//! Tree-based multicast (§4.2).
//!
//! When a top node starts to multicast an event about node `X`, the message
//! spreads by binary dissection of the identifier space: at step `s` every
//! informed node sends the event to one more node whose nodeId shares its
//! first `s` bits and differs at the next bit, always choosing "a target
//! node with the highest level from all possible nodes" — i.e. the
//! strongest audience-set member of `X` in the flipped half. The tree is
//! not pre-determined; every node picks its next target at runtime from its
//! own peer list.
//!
//! This module is *pure*: it computes forwarding decisions from a
//! [`PeerList`] without performing I/O, so the same logic drives the
//! sans-IO node machine (full fidelity, from the node's own list) and the
//! property tests (from any list, e.g. ground truth). The oracle-mode
//! simulator plans its trees with its own trie (`peerwindow_sim::plan`),
//! which a test there keeps equal to [`plan_tree`].

#[cfg(any(test, feature = "invariants"))]
use crate::id::ID_BITS;
use crate::id::{NodeId, Prefix};
use crate::level::Level;
use crate::peer_list::PeerList;
use crate::pointer::{Addr, Pointer};
use serde::{Deserialize, Serialize};

/// A forwarding target: the minimum a sender must know to address it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Target {
    /// Target node id.
    pub id: NodeId,
    /// Target transport address.
    pub addr: Addr,
    /// Target level as known to the sender.
    pub level: Level,
}

impl From<&Pointer> for Target {
    fn from(p: &Pointer) -> Self {
        Target {
            id: p.id,
            addr: p.addr,
            level: p.level,
        }
    }
}

/// One send decided by [`forward_steps`]: forward the event to `target`,
/// which becomes responsible for the id range of length `next_step`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Forward {
    /// Range length the *receiver* is responsible for (its `step`).
    pub next_step: u8,
    /// Where to send.
    pub target: Target,
}

/// Computes every forward a node makes after receiving (or initiating) the
/// multicast of an event about `changing`, per the §4.2 rules.
///
/// `local` is the forwarding node's id and `step` the length of the id
/// range it is responsible for: its level for the initiating top node, or
/// the `next_step` carried by the message that reached it. The returned
/// forwards are ordered by increasing step (the order the node sends them).
///
/// The §4.2 stop rule "until no more appropriate node can be found" is
/// interpreted as: stop once the node's remaining responsibility range
/// holds no other audience member (empty *sibling* half-ranges are skipped,
/// not terminal — otherwise members deeper on the node's own side would be
/// unreachable). Once `local.prefix(s)` holds no audience member, no later
/// flipped range can hold one either, so this is exactly "the strongest
/// audience member of every non-empty flipped range", which
/// [`PeerList::forwards`] computes in one walk per level.
pub fn forward_steps(peers: &PeerList, local: NodeId, step: u8, changing: NodeId) -> Vec<Forward> {
    let mut out = peers.forwards(local, step, changing);
    out.sort_unstable_by_key(|f| f.next_step);
    // Every debug invariants-enabled run is a differential test of the
    // walk against the per-step loop, delivery by delivery.
    #[cfg(feature = "invariants")]
    debug_assert_eq!(
        out,
        forward_steps_reference(peers, local, step, changing),
        "{local:?}: forward walk diverged from the per-step loop (step {step}, about {changing:?})"
    );
    out
}

/// [`forward_steps`] as one range query per step and flipped range: the
/// definition the walk is tested against.
#[cfg(any(test, feature = "invariants"))]
pub(crate) fn forward_steps_reference(
    peers: &PeerList,
    local: NodeId,
    step: u8,
    changing: NodeId,
) -> Vec<Forward> {
    let mut out = Vec::new();
    for s in step..ID_BITS {
        let remaining = local.prefix(s);
        if peers
            .strongest_audience_in_range(remaining, changing, local)
            .is_none()
        {
            break;
        }
        let flipped = remaining.child(!local.bit(s));
        if let Some(p) = peers.strongest_audience_in_range(flipped, changing, local) {
            out.push(Forward {
                next_step: s + 1,
                target: Target::from(p),
            });
        }
    }
    out
}

/// Picks a replacement target after a failed send (§4.2: after three
/// unanswered attempts the pointer is removed and the message redirected).
/// `range` is the flipped range of the failed send; `dead` contains ids
/// already tried. Returns the strongest remaining candidate.
pub fn redirect_target(
    peers: &PeerList,
    range: Prefix,
    changing: NodeId,
    local: NodeId,
    dead: &[NodeId],
) -> Option<Target> {
    // The list is expected to have dropped `dead` already (the failed
    // pointer is removed before redirecting); this fallback skips them in
    // case the caller retries before mutating its list.
    let t = peers.strongest_audience_in_range(range, changing, local)?;
    if dead.contains(&t.id) {
        None
    } else {
        Some(Target::from(t))
    }
}

/// One edge of a fully planned multicast tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TreeEdge {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: Target,
    /// Range length the receiver becomes responsible for.
    pub step: u8,
    /// Hop count from the root (root's children have depth 1).
    pub depth: u32,
}

/// Plans the complete multicast tree for an event about `changing`, rooted
/// at `root` (a top node of the subject's part) with responsibility range
/// length `root_step` (the root's level). Every sender is assumed to hold
/// `peers` — a *consistent* view such as ground truth, or any single
/// node's list in tests.
///
/// Returns the edges in breadth-first order. With a consistent view the
/// receivers are exactly the audience set minus `{root, changing}`, each
/// reached once (asserted by the property tests).
pub fn plan_tree(peers: &PeerList, root: NodeId, root_step: u8, changing: NodeId) -> Vec<TreeEdge> {
    let mut edges = Vec::new();
    // (node, step, depth) work queue.
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((root, root_step, 0u32));
    while let Some((node, step, depth)) = queue.pop_front() {
        for f in forward_steps(peers, node, step, changing) {
            edges.push(TreeEdge {
                from: node,
                to: f.target,
                step: f.next_step,
                depth: depth + 1,
            });
            queue.push_back((f.target.id, f.next_step, depth + 1));
        }
    }
    edges
}

/// Summary statistics of a planned tree (§4.2 properties 2–3: the root has
/// ≈ log₂N out-degree and the tree has ≈ log₂N depth).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TreeStats {
    /// Number of receivers (edges).
    pub receivers: usize,
    /// Maximum depth.
    pub max_depth: u32,
    /// Maximum out-degree over all senders.
    pub max_out_degree: usize,
    /// Out-degree of the root.
    pub root_out_degree: usize,
}

/// Computes [`TreeStats`] for a planned tree rooted at `root`.
pub fn tree_stats(edges: &[TreeEdge], root: NodeId) -> TreeStats {
    use std::collections::BTreeMap;
    let mut out: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut max_depth = 0;
    for e in edges {
        *out.entry(e.from).or_default() += 1;
        max_depth = max_depth.max(e.depth);
    }
    TreeStats {
        receivers: edges.len(),
        max_depth,
        max_out_degree: out.values().copied().max().unwrap_or(0),
        root_out_degree: out.get(&root).copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::NodeIdentity;
    use crate::pointer::Pointer;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn nid(bits: &str) -> NodeId {
        Prefix::from_bits_str(bits).unwrap().range_start()
    }

    fn figure1_list() -> PeerList {
        let mut list = PeerList::new(Prefix::EMPTY);
        for (bits, level) in [
            ("0010", 0),
            ("0111", 0),
            ("0100", 2),
            ("1101", 1),
            ("1011", 1),
            ("0110", 2),
            ("0000", 2),
            ("1010", 2),
            ("0011", 2),
            ("1000", 3),
        ] {
            let id = nid(bits);
            list.insert(Pointer::new(id, Addr(0), Level::new(level)));
        }
        list
    }

    #[test]
    fn tree_covers_exact_audience_of_paper_example() {
        let list = figure1_list();
        let changing = nid("1011"); // node E
        let root = nid("0010"); // top node A
        let edges = plan_tree(&list, root, 0, changing);
        let reached: BTreeSet<NodeId> = edges.iter().map(|e| e.to.id).collect();
        // Audience of E = {A, B, D, E, H}; minus root A and subject E.
        let expect: BTreeSet<NodeId> = [nid("0111"), nid("1101"), nid("1010")]
            .into_iter()
            .collect();
        assert_eq!(reached, expect);
        // Exactly-once delivery.
        assert_eq!(reached.len(), edges.len());
    }

    #[test]
    fn messages_flow_stronger_to_weaker() {
        // §4.2 property 1. Senders' levels (as known in the list) must be
        // ≤ receivers' levels along every edge.
        let list = figure1_list();
        let changing = nid("1011");
        let root = nid("0010");
        let level_of = |id: NodeId| list.get(id).unwrap().level;
        for e in plan_tree(&list, root, 0, changing) {
            assert!(
                level_of(e.from).at_least_as_strong_as(e.to.level),
                "edge {:?} flows weaker→stronger",
                e
            );
        }
    }

    #[test]
    fn forward_steps_skip_empty_sibling_ranges() {
        // Root A (0010) multicasting about E (1011): A's step-0 send goes
        // into the "1…" half; step-1 flipped range "01" holds top node B;
        // step-2 flipped range "000" holds only non-audience G, so it is
        // skipped, and recursion still terminates.
        let list = figure1_list();
        let fw = forward_steps(&list, nid("0010"), 0, nid("1011"));
        let steps: Vec<u8> = fw.iter().map(|f| f.next_step).collect();
        let ids: Vec<NodeId> = fw.iter().map(|f| f.target.id).collect();
        assert_eq!(steps, vec![1, 2]);
        // Step-0 flipped half "1…": E is excluded as the subject, so the
        // strongest audience member there is D (level 1).
        assert_eq!(ids[0], nid("1101")); // D
        assert_eq!(ids[1], nid("0111")); // B
    }

    #[test]
    fn larger_random_membership_reaches_every_audience_member_once() {
        // Build a synthetic 200-node membership with random ids and levels
        // drawn so that eigenstring constraints hold, then check coverage
        // for several changing nodes.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut list = PeerList::new(Prefix::EMPTY);
        let mut ids = Vec::new();
        for _ in 0..200 {
            let id = NodeId(rng.gen::<u128>());
            let level = Level::new(rng.gen_range(0..4));
            list.insert(Pointer::new(id, Addr(0), level));
            ids.push((id, level));
        }
        // Ensure at least one top node exists and use it as root.
        let root = ids
            .iter()
            .find(|(_, l)| l.is_top())
            .map(|(id, _)| *id)
            .unwrap_or_else(|| {
                let id = NodeId(rng.gen::<u128>());
                list.insert(Pointer::new(id, Addr(0), Level::TOP));
                ids.push((id, Level::TOP));
                id
            });
        for &(changing, _) in ids.iter().take(10) {
            let edges = plan_tree(&list, root, 0, changing);
            let reached: BTreeSet<NodeId> = edges.iter().map(|e| e.to.id).collect();
            let expect: BTreeSet<NodeId> = ids
                .iter()
                .filter(|(id, l)| {
                    NodeIdentity::new(*id, *l).covers(changing) && *id != root && *id != changing
                })
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(reached, expect, "audience mismatch for {changing}");
            assert_eq!(reached.len(), edges.len(), "duplicate delivery");
        }
    }

    #[test]
    fn depth_and_root_degree_are_logarithmic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut list = PeerList::new(Prefix::EMPTY);
        let n = 1024;
        let mut root = None;
        for i in 0..n {
            let id = NodeId(rng.gen::<u128>());
            // All top nodes: audience = everyone; worst-case tree size.
            list.insert(Pointer::new(id, Addr(0), Level::TOP));
            if i == 0 {
                root = Some(id);
            }
        }
        let root = root.unwrap();
        let changing = NodeId(rng.gen::<u128>());
        let edges = plan_tree(&list, root, 0, changing);
        let stats = tree_stats(&edges, root);
        assert_eq!(stats.receivers, n - 1); // everyone but the root
                                            // log2(1024) = 10; allow slack for the uneven random split.
        assert!(stats.max_depth <= 24, "depth {} too large", stats.max_depth);
        assert!(
            stats.root_out_degree >= 8 && stats.root_out_degree <= 40,
            "root degree {} not ≈ log2 N",
            stats.root_out_degree
        );
    }

    #[test]
    fn redirect_skips_dead_targets() {
        let list = figure1_list();
        let changing = nid("1011");
        let range = Prefix::from_bits_str("1").unwrap();
        let t = redirect_target(&list, range, changing, nid("0010"), &[]).unwrap();
        assert_eq!(t.id, nid("1101"));
        // Pretend D already failed but the list still contains it.
        assert!(redirect_target(&list, range, changing, nid("0010"), &[nid("1101")]).is_none());
        // Once the dead pointer is actually removed, the next candidate
        // (H, level 2) is returned.
        let mut pruned = list.clone();
        pruned.remove(nid("1101"));
        let t = redirect_target(&pruned, range, changing, nid("0010"), &[nid("1101")]).unwrap();
        assert_eq!(t.id, nid("1010"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-walk-per-level forwards equal the per-step loop on
        /// random lists — clustered shared prefixes, ids on flipped-range
        /// boundaries, levels 0–7 — for `changing` absent from the list,
        /// held in it, or equal to `local`, at every step up to 24 plus a
        /// drawn one, 127 and `ID_BITS`.
        #[test]
        fn forward_walk_matches_per_step_loop(
            pool in proptest::collection::vec(any::<u128>(), 6),
            entries in proptest::collection::vec((0usize..8, any::<u128>(), 0u8..=7, 0u8..3), 0..64),
            local_spec in (0usize..8, any::<u128>(), 0u8..=7, 0u8..3),
            changing_spec in (0usize..8, any::<u128>(), 0u8..=7, 0u8..3),
            local_held in any::<bool>(),
            step in 0u8..=ID_BITS,
        ) {
            // Clusters 0–5 share the first 3–12 bits of a pool id; 6 and
            // 7 are uniform ids. Shape 1 clears every bit past the first
            // 4–19 and shape 2 sets them: the first and last id of a
            // flipped range, where a cursor off by one shows.
            let id_of = |(cluster, tail, _, shape): (usize, u128, u8, u8)| {
                let id = match pool.get(cluster) {
                    Some(&base) => {
                        let shared = 3 + (tail % 10) as u32;
                        let high = u128::MAX << (128 - shared);
                        (base & high) | (tail & !high)
                    }
                    None => tail,
                };
                let low = u128::MAX >> (4 + (tail >> 120) % 16);
                NodeId(match shape {
                    1 => id & !low,
                    2 => id | low,
                    _ => id,
                })
            };
            let local = id_of(local_spec);
            let mut list = PeerList::new(Prefix::EMPTY);
            for &e in &entries {
                list.insert(Pointer::new(id_of(e), Addr(0), Level::new(e.2)));
            }
            if local_held {
                list.insert(Pointer::new(local, Addr(0), Level::new(local_spec.2)));
            }
            let drawn = id_of(changing_spec);
            let mut absent = list.clone();
            absent.remove(drawn);
            let held = list
                .iter()
                .nth((changing_spec.1 % list.len().max(1) as u128) as usize)
                .map_or(drawn, |p| p.id);
            for (peers, changing) in [(&absent, drawn), (&list, held), (&list, local)] {
                for s in (0..=24).chain([step, 127, ID_BITS]) {
                    prop_assert_eq!(
                        forward_steps(peers, local, s, changing),
                        forward_steps_reference(peers, local, s, changing),
                        "local {local:?}, step {s}, changing {changing:?}"
                    );
                }
            }
        }
    }
}
