//! Top-node lists and their lazy maintenance (§2, §4.5).
//!
//! Every node keeps pointers to `t` top nodes of its part (commonly
//! `t = 8`), so that state-changing events and failure reports can be
//! handed to a top node for multicast. The list is refreshed lazily:
//! every report response piggybacks `t−1` fresh top-node pointers; a
//! failed report is redirected to the next entry; when all entries are
//! stale the node falls back to asking a peer for its list.

use crate::id::NodeId;
use crate::multicast::Target;
use serde::{Deserialize, Serialize};

/// A node's list of known top nodes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TopList {
    capacity: usize,
    entries: Vec<Target>,
}

impl TopList {
    /// Creates an empty list with the given capacity (`t`).
    pub fn new(capacity: usize) -> Self {
        TopList {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Capacity `t`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries, most recently refreshed first.
    #[inline]
    pub fn entries(&self) -> &[Target] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty (the node must fall back to a peer).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges freshly learned top-node pointers (piggybacked on a report
    /// response, §4.5). Each goes to the front, replacing any entry with
    /// its id; the list is truncated to capacity.
    pub fn refresh(&mut self, fresh: impl IntoIterator<Item = Target>) {
        for t in fresh {
            self.entries.retain(|e| e.id != t.id);
            self.entries.insert(0, t);
        }
        self.entries.truncate(self.capacity);
    }

    /// Picks a top node to report to. `pick` supplies a pseudo-random index
    /// (the paper chooses "randomly from its top-node list"); entries in
    /// `dead` (already timed out this attempt) are skipped.
    pub fn choose(&self, dead: &[NodeId], pick: impl FnOnce(usize) -> usize) -> Option<Target> {
        let live: Vec<&Target> = self
            .entries
            .iter()
            .filter(|e| !dead.contains(&e.id))
            .collect();
        if live.is_empty() {
            return None;
        }
        let idx = pick(live.len()) % live.len();
        Some(*live[idx])
    }

    /// Drops an entry that failed to respond.
    pub fn remove(&mut self, id: NodeId) {
        self.entries.retain(|e| e.id != id);
    }

    /// Updates the recorded level of an entry (driven by LevelShift and
    /// Refresh events — a stale level here misroutes reports).
    pub fn note_level(&mut self, id: NodeId, level: crate::level::Level) {
        for e in &mut self.entries {
            if e.id == id {
                e.level = level;
            }
        }
    }

    /// Entries to piggyback on a response: up to `t − 1` of our own
    /// entries, excluding `recipient`'s own id.
    pub fn piggyback(&self, recipient: NodeId) -> Vec<Target> {
        self.entries
            .iter()
            .filter(|e| e.id != recipient)
            .take(self.capacity.saturating_sub(1))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;
    use crate::pointer::Addr;
    use proptest::prelude::*;

    fn t(i: u128) -> Target {
        Target {
            id: NodeId(i),
            addr: Addr(i as u64),
            level: Level::TOP,
        }
    }

    #[test]
    fn refresh_dedupes_and_truncates() {
        let mut l = TopList::new(3);
        l.refresh([t(1), t(2), t(3)]);
        assert_eq!(l.len(), 3);
        l.refresh([t(2), t(4)]);
        let ids: Vec<u128> = l.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![4, 2, 3]); // 1 fell off the end
    }

    #[test]
    fn choose_skips_dead_entries() {
        let mut l = TopList::new(4);
        l.refresh([t(1), t(2), t(3)]);
        let chosen = l.choose(&[NodeId(3), NodeId(2)], |_| 0).unwrap();
        assert_eq!(chosen.id, NodeId(1));
        assert!(l
            .choose(&[NodeId(1), NodeId(2), NodeId(3)], |_| 0)
            .is_none());
    }

    #[test]
    fn choose_uses_pick_modulo() {
        let mut l = TopList::new(4);
        l.refresh([t(1), t(2)]);
        // entries are [2, 1]; pick(2)=5 → 5 % 2 = 1 → entry 1.
        let chosen = l.choose(&[], |n| {
            assert_eq!(n, 2);
            5
        });
        assert_eq!(chosen.unwrap().id, NodeId(1));
    }

    #[test]
    fn piggyback_excludes_recipient_and_caps_at_t_minus_1() {
        let mut l = TopList::new(3);
        l.refresh([t(1), t(2), t(3)]);
        let pb = l.piggyback(NodeId(2));
        let ids: Vec<u128> = pb.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![3, 1]);
        assert!(pb.len() <= 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `refresh` equals its definition: for each fresh entry, drop
        /// every entry with its id, then put it in front; truncate at the
        /// end. Lists are built by earlier refreshes (ids distinct, as
        /// every list the protocol holds), over few ids so fresh entries
        /// often lead or repeat, with levels that tell a rewrite apart.
        #[test]
        fn refresh_is_retain_then_insert(
            capacity in 0usize..6,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..4), 0..5),
                1..8,
            ),
        ) {
            let mut list = TopList::new(capacity);
            let mut model: Vec<Target> = Vec::new();
            for batch in batches {
                let fresh: Vec<Target> = batch
                    .iter()
                    .map(|&(id, level)| Target { level: Level::new(level), ..t(u128::from(id)) })
                    .collect();
                for &f in &fresh {
                    model.retain(|e| e.id != f.id);
                    model.insert(0, f);
                }
                model.truncate(capacity);
                list.refresh(fresh);
                prop_assert_eq!(list.entries(), &model[..]);
            }
        }
    }

    #[test]
    fn remove_failed_entry() {
        let mut l = TopList::new(3);
        l.refresh([t(1), t(2)]);
        l.remove(NodeId(2));
        assert_eq!(l.len(), 1);
        assert_eq!(l.entries()[0].id, NodeId(1));
    }
}
