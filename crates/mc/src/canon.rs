//! Canonical state hashing with id-symmetry reduction.
//!
//! Two quiescent states of the sweep net are *permutation-equivalent*
//! when one can be turned into the other by relabeling node ids within
//! their eigenstring prefix classes (§2: protocol behavior depends on
//! ids only through prefix relations up to the maximum configured
//! level, so such a relabeling commutes with every transition). The
//! checker must explore only one representative per equivalence class.
//!
//! The encoding is a color-refinement canonicalization (the 1-WL /
//! nauty-refinement idea specialized to this graph): every id-table
//! slot is an entity; its initial color hashes only relabeling-invariant
//! facts (lifecycle status, prefix class, level, flags, pending-input
//! tags); colors are then refined a few rounds through the labeled
//! peer/top reference graph; the final serialization writes each slot's
//! record with references encoded by *color rank* — dense canonical
//! indices per distinct color class — and sorts the records. The result
//! is identical for any two permutation-equivalent states. (A naive
//! "dense indices in first-seen order" relabeling is not: first-seen
//! order itself depends on the labeling.)
//!
//! Refinement may fail to split genuinely distinct slots that are
//! locally indistinguishable, and the projection leaves some state out
//! (`NodeMachine::project` keeps no `Dedup` horizon, lifetime estimate
//! or pointer age). Either way two distinct states can share a
//! canonical form, and the second is then never expanded. That costs
//! *completeness*, not soundness: a violation reachable only through
//! the pruned state goes unseen, but every reported violation is real,
//! since every transition that is executed at all is still
//! invariant-checked. (The visited set compares full word sequences on
//! every hash hit, so a mere hash collision prunes nothing.)
//! ROADMAP direction 3(b) makes the projection complete.

use crate::net::{McNet, SlotStatus};
use peerwindow_core::id::NodeId;
use peerwindow_core::invariants::{hash_words, prefix_class, splitmix64, CanonicalState};
use std::collections::BTreeMap;

/// Refinement rounds. The reference graph's diameter is tiny (peer and
/// top lists are near-cliques within a level); three rounds separate
/// everything the protocol can distinguish in practice, and more rounds
/// only cost time, never soundness.
const REFINE_ROUNDS: usize = 3;

fn status_word(s: SlotStatus) -> u64 {
    match s {
        SlotStatus::Unjoined => 0,
        SlotStatus::Joining => 1,
        SlotStatus::Active => 2,
        SlotStatus::Left => 3,
        SlotStatus::Crashed => 4,
        SlotStatus::Fatal => 5,
    }
}

/// Builds the canonical projection of a quiescent `net`.
///
/// `class_bits` is the number of leading id bits that must be preserved
/// by any relabeling (the deepest configured level plus one is enough:
/// eigenstrings never look deeper). Pass 0 to treat all ids as fully
/// interchangeable (single-level systems).
pub fn canonical_state(net: &McNet, class_bits: u8) -> CanonicalState {
    let n = net.len();

    // Per-slot relabeling-invariant facts.
    let mut class = vec![0u64; n];
    let mut level = vec![0u64; n];
    let mut flags = vec![0u64; n];
    let mut status = vec![0u64; n];
    let mut pending = vec![0u64; n];
    // Labeled out-edges: (kind, recorded level, dst slot). Kind 1 =
    // peer-list entry, kind 2 = top-list entry.
    let mut edges: Vec<Vec<(u64, u64, usize)>> = vec![Vec::new(); n];
    // Unresolvable references (ids in a list that are not in the table —
    // impossible today, but the encoding must not silently drop them).
    let mut foreign = vec![0u64; n];

    let slot_of: BTreeMap<u128, usize> = net
        .table()
        .iter()
        .enumerate()
        .map(|(s, &id)| (id, s))
        .collect();

    for s in 0..n {
        status[s] = status_word(net.status(s));
        class[s] = prefix_class(NodeId(net.table()[s]), class_bits);
        if let Some(m) = net.machine(s) {
            let p = m.project(class_bits);
            level[s] = u64::from(p.level);
            flags[s] = u64::from(p.active)
                | (u64::from(p.departed) << 1)
                | (u64::from(p.believes_top) << 2);
            pending[s] = p.pending_rpcs;
            for (id, lvl) in &p.peers {
                match slot_of.get(&id.raw()) {
                    Some(&d) => edges[s].push((1, u64::from(*lvl), d)),
                    None => foreign[s] = splitmix64(foreign[s] ^ 1),
                }
            }
            for (id, lvl) in &p.tops {
                match slot_of.get(&id.raw()) {
                    Some(&d) => edges[s].push((2, u64::from(*lvl), d)),
                    None => foreign[s] = splitmix64(foreign[s] ^ 2),
                }
            }
        }
    }

    // In-flight queue shape feeds the slot colors: a slot with a probe
    // timer pending is not equivalent to one without. Tags are summed
    // into an order-insensitive per-slot multiset hash (queue order
    // between independent deliveries is a scheduling artifact).
    let mut queue_mix = vec![0u64; n];
    for (dest, tag) in net.queue_shape() {
        queue_mix[dest] = queue_mix[dest].wrapping_add(splitmix64(tag ^ 0x9e3779));
    }

    // Initial colors: everything invariant under relabeling.
    let mut color: Vec<u64> = (0..n)
        .map(|s| {
            hash_words(&[
                status[s],
                class[s],
                level[s],
                flags[s],
                pending[s],
                queue_mix[s],
                foreign[s],
            ])
        })
        .collect();

    // Refine: fold in the sorted multiset of labeled out-edge colors
    // plus the sorted multiset of labeled in-edge colors.
    for _ in 0..REFINE_ROUNDS {
        let mut incoming: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (s, es) in edges.iter().enumerate() {
            for &(kind, lvl, d) in es {
                incoming[d].push(hash_words(&[kind, lvl, color[s]]));
            }
        }
        let next: Vec<u64> = (0..n)
            .map(|s| {
                let mut out: Vec<u64> = edges[s]
                    .iter()
                    .map(|&(kind, lvl, d)| hash_words(&[kind, lvl, color[d]]))
                    .collect();
                out.sort_unstable();
                let mut inc = incoming[s].clone();
                inc.sort_unstable();
                let mut words = Vec::with_capacity(2 + out.len() + inc.len());
                words.push(color[s]);
                words.extend(out);
                words.push(u64::MAX); // separator: out-multiset vs in-multiset
                words.extend(inc);
                hash_words(&words)
            })
            .collect();
        color = next;
    }

    // Dense canonical indices per distinct color class: rank colors by
    // value; every reference below is encoded by its target's rank.
    let mut distinct: Vec<u64> = color.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let rank_of: BTreeMap<u64, u64> = distinct
        .iter()
        .enumerate()
        .map(|(r, &c)| (c, r as u64))
        .collect();

    // Per-slot records, references by color rank, then sorted so slot
    // order (which is labeling-dependent) vanishes from the encoding.
    let mut records: Vec<u64> = (0..n)
        .map(|s| {
            let mut out: Vec<u64> = edges[s]
                .iter()
                .map(|&(kind, lvl, d)| hash_words(&[kind, lvl, rank_of[&color[d]]]))
                .collect();
            out.sort_unstable();
            let mut words = vec![
                status[s],
                class[s],
                level[s],
                flags[s],
                pending[s],
                queue_mix[s],
                foreign[s],
                rank_of[&color[s]],
            ];
            words.extend(out);
            hash_words(&words)
        })
        .collect();
    records.sort_unstable();

    // Fault-rule phase words: the absolute clock is abstracted away
    // (two states differing only in timestamps are equivalent), but
    // which plan rules are still pending / active / spent changes the
    // future and must distinguish states.
    let now = net.now();
    let mut words = Vec::with_capacity(records.len() + 8);
    words.push(n as u64);
    words.push(u64::from(class_bits));
    words.extend(records);
    words.push(u64::MAX); // separator: records vs fault phases
    for (i, (from_us, until_us)) in net.fault_rule_windows().enumerate() {
        let phase = if now < from_us {
            0
        } else if now < until_us {
            1
        } else {
            2
        };
        words.push(hash_words(&[i as u64, phase]));
    }

    CanonicalState::from_words(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::mc_protocol_config;
    use crate::net::SweepOp;

    // Three ids in the same top-bit prefix class (class_bits = 1).
    const A: u128 = 0x2000_0000_0000_0000_0000_0000_0000_0000;
    const B: u128 = 0x6000_0000_0000_0000_0000_0000_0000_0000;
    const C: u128 = 0x7000_0000_0000_0000_0000_0000_0000_0000;

    fn settled_net(table: &[u128], joins: &[usize]) -> McNet {
        let mut net = McNet::new(table, &mc_protocol_config(), None, false);
        net.run_until(5_000_000).unwrap();
        for &k in joins {
            net.apply_op(SweepOp::Join(k), 8_000_000).unwrap();
        }
        net
    }

    #[test]
    fn identical_runs_hash_identically() {
        let a = settled_net(&[A, B, C], &[1]);
        let b = settled_net(&[A, B, C], &[1]);
        assert_eq!(canonical_state(&a, 1), canonical_state(&b, 1));
    }

    #[test]
    fn swapped_ids_within_class_hash_identically() {
        // Same system, but the two later ids trade table slots: the
        // second run joins the *other* id. Within one prefix class the
        // canonical encodings must coincide.
        let a = settled_net(&[A, B, C], &[1]);
        let b = settled_net(&[A, C, B], &[1]);
        assert_eq!(
            canonical_state(&a, 1).hash,
            canonical_state(&b, 1).hash,
            "id relabeling within a prefix class must not change the canonical hash"
        );
    }

    #[test]
    fn different_membership_hashes_differently() {
        let one = settled_net(&[A, B, C], &[]);
        let two = settled_net(&[A, B, C], &[1]);
        assert_ne!(canonical_state(&one, 1).hash, canonical_state(&two, 1).hash);
    }
}
