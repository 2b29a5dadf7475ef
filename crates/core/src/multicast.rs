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
//! This module is *pure*: it computes forwarding decisions from a view of
//! the membership ([`AudienceView`]) without performing I/O, so the same
//! logic drives the sans-IO node machine (full fidelity), the oracle-mode
//! simulator, and the property tests.

use crate::id::{NodeId, Prefix, ID_BITS};
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

/// A queryable view of the membership, as seen by one forwarding node.
///
/// Implemented by [`PeerList`] (a node's own, possibly erroneous knowledge)
/// and by the oracle directory in `peerwindow-sim` (ground truth).
pub trait AudienceView {
    /// The strongest (smallest level value) audience-set member of
    /// `changing` whose id lies in `range`, excluding `exclude` and
    /// `changing` itself; ties broken by smallest id.
    fn strongest_audience_in_range(
        &self,
        range: Prefix,
        changing: NodeId,
        exclude: NodeId,
    ) -> Option<Target>;

    /// Whether any audience-set member of `changing` (≠ `exclude`,
    /// ≠ `changing`) lies in `range`.
    fn any_audience_in_range(&self, range: Prefix, changing: NodeId, exclude: NodeId) -> bool {
        self.strongest_audience_in_range(range, changing, exclude)
            .is_some()
    }
}

impl AudienceView for PeerList {
    fn strongest_audience_in_range(
        &self,
        range: Prefix,
        changing: NodeId,
        exclude: NodeId,
    ) -> Option<Target> {
        PeerList::strongest_audience_in_range(self, range, changing, exclude).map(Target::from)
    }
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
/// unreachable).
pub fn forward_steps<V: AudienceView>(
    view: &V,
    local: NodeId,
    step: u8,
    changing: NodeId,
) -> Vec<Forward> {
    let mut out = Vec::new();
    for s in step..ID_BITS {
        let remaining = local.prefix(s);
        if !view.any_audience_in_range(remaining, changing, local) {
            break;
        }
        let flipped = remaining.child(!local.bit(s));
        if let Some(target) = view.strongest_audience_in_range(flipped, changing, local) {
            out.push(Forward {
                next_step: s + 1,
                target,
            });
        }
    }
    out
}

/// Picks a replacement target after a failed send (§4.2: after three
/// unanswered attempts the pointer is removed and the message redirected).
/// `range` is the flipped range of the failed send; `dead` contains ids
/// already tried. Returns the strongest remaining candidate.
pub fn redirect_target<V: AudienceView>(
    view: &V,
    range: Prefix,
    changing: NodeId,
    local: NodeId,
    dead: &[NodeId],
) -> Option<Target> {
    // The view is expected to have dropped `dead` already (the failed
    // pointer is removed before redirecting); this fallback skips them in
    // case the caller retries before mutating its list.
    let t = view.strongest_audience_in_range(range, changing, local)?;
    if dead.contains(&t.id) {
        None
    } else {
        Some(t)
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
/// length `root_step` (the root's level). Requires a *consistent* view —
/// ground truth in oracle mode, or any single node's list in tests.
///
/// Returns the edges in breadth-first order. With a consistent view the
/// receivers are exactly the audience set minus `{root, changing}`, each
/// reached once (asserted by the property tests).
pub fn plan_tree<V: AudienceView>(
    view: &V,
    root: NodeId,
    root_step: u8,
    changing: NodeId,
) -> Vec<TreeEdge> {
    let mut edges = Vec::new();
    // (node, step, depth) work queue.
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((root, root_step, 0u32));
    while let Some((node, step, depth)) = queue.pop_front() {
        for f in forward_steps(view, node, step, changing) {
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
}
