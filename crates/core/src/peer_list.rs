//! Peer lists — every node's large collection of pointers.
//!
//! An `l`-level node's peer list must contain pointers to all nodes whose
//! nodeId shares its first `l` bits (§2). The list is kept sorted by
//! nodeId (the failure-detection circle, §4.1) and secondarily indexed by
//! level so the tree multicast (§4.2) can find "the target node with the
//! highest level from all possible nodes" in `O(levels · log n)`.

use crate::id::{NodeId, Prefix, ID_BITS};
use crate::level::{Level, NodeIdentity};
use crate::multicast::{Forward, Target};
use crate::pointer::Pointer;
use std::collections::{BTreeMap, BTreeSet};

/// A node's peer list: all known pointers within its eigenstring scope.
///
/// ```
/// use peerwindow_core::prelude::*;
/// let mut list = PeerList::new(Prefix::EMPTY);
/// list.insert(Pointer::new(NodeId::new(42), Addr(7), Level::new(1)));
/// assert_eq!(list.len(), 1);
/// assert!(list.contains(NodeId::new(42)));
/// // Narrowing the scope (a level shift) drops out-of-scope pointers.
/// list.set_scope(Prefix::from_bits_str("1").unwrap());
/// assert!(list.is_empty()); // id 42 starts with a 0 bit
/// ```
#[derive(Clone, Debug, Default)]
pub struct PeerList {
    /// The scope this list is supposed to cover (the owner's eigenstring).
    scope: Prefix,
    /// All entries, ordered by nodeId (the probing circle).
    entries: BTreeMap<NodeId, Pointer>,
    /// Secondary index: ids of entries at each level.
    by_level: Vec<BTreeSet<NodeId>>,
    /// Mutation counter: bumped by every state-changing call so snapshot
    /// publication (`crate::snapshot`) can coalesce "did anything change
    /// since the last capture?" into one integer compare. Not part of the
    /// protocol state: never serialized, never hashed into fingerprints.
    generation: u64,
    /// Like `generation`, but only for changes a serving-layer query can
    /// observe: membership, levels, info, scope. Refresh-stamp touches
    /// (§4.6 probe acks — the steady-state hot path) bump `generation`
    /// only, so publishers gating on this counter skip an O(n) capture
    /// per probe ack.
    content_generation: u64,
}

impl PeerList {
    /// Creates an empty list scoped to `scope`.
    pub fn new(scope: Prefix) -> Self {
        PeerList {
            scope,
            entries: BTreeMap::new(),
            by_level: Vec::new(),
            generation: 0,
            content_generation: 0,
        }
    }

    /// The eigenstring scope this list covers.
    #[inline]
    pub fn scope(&self) -> Prefix {
        self.scope
    }

    /// Mutation counter: increases on every state-changing call (insert,
    /// remove, level/info/refresh updates, re-scoping). Two equal
    /// generations on the *same* list instance mean no mutation happened
    /// in between; snapshot publishers use this to skip redundant
    /// captures. Observation only — cloning copies the current value.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Content-mutation counter: increases only when membership, a
    /// level, attached info, or the scope changes — everything a
    /// serving-layer query can observe. Pure refresh-stamp touches do
    /// *not* bump it, so snapshot publishers gating on this counter stay
    /// off the §4.6 probe-ack hot path.
    #[inline]
    pub fn content_generation(&self) -> u64 {
        self.content_generation
    }

    /// Re-scopes the list (level shift, §4.3). When narrowing, out-of-scope
    /// pointers are dropped ("removes those useless pointers"); when
    /// widening, the caller is responsible for downloading the missing
    /// pointers from a stronger node.
    pub fn set_scope(&mut self, scope: Prefix) {
        self.generation += 1;
        self.content_generation += 1;
        self.scope = scope;
        if !scope.is_empty() {
            let out_of_scope: Vec<NodeId> = self
                .entries
                .keys()
                .copied()
                .filter(|id| !scope.contains(*id))
                .collect();
            for id in out_of_scope {
                self.remove(id);
            }
        }
    }

    /// Number of pointers currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a pointer by id.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&Pointer> {
        self.entries.get(&id)
    }

    /// Whether the list contains `id`.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Inserts or replaces a pointer. Out-of-scope pointers are accepted
    /// (the protocol may briefly hold them during level shifts) but callers
    /// normally insert within scope. Returns the previous pointer, if any.
    pub fn insert(&mut self, ptr: Pointer) -> Option<Pointer> {
        let id = ptr.id;
        let level = ptr.level;
        let addr = ptr.addr;
        let info = ptr.info.clone(); // refcount bump, not a copy
        self.generation += 1;
        let prev = self.entries.insert(id, ptr);
        // Re-inserting an observably identical pointer (the common case:
        // window exchanges redeliver known peers with fresher stamps) is
        // not a *content* change — gating it out keeps snapshot
        // publishers off the steady-state exchange path.
        if prev
            .as_ref()
            .is_none_or(|old| old.level != level || old.addr != addr || old.info != info)
        {
            self.content_generation += 1;
        }
        if let Some(ref old) = prev {
            if old.level != level {
                self.unindex(id, old.level);
            } else {
                return prev; // index already correct
            }
        }
        self.index(id, level);
        prev
    }

    /// Removes a pointer, returning it if present.
    pub fn remove(&mut self, id: NodeId) -> Option<Pointer> {
        let prev = self.entries.remove(&id);
        if let Some(ref p) = prev {
            self.generation += 1;
            self.content_generation += 1;
            self.unindex(id, p.level);
        }
        prev
    }

    /// Updates the recorded level of `id` (a level-shift event). Returns
    /// `false` if the id is unknown.
    pub fn update_level(&mut self, id: NodeId, level: Level) -> bool {
        // Take the old level out first to appease the borrow checker.
        let old = match self.entries.get(&id) {
            Some(p) => p.level,
            None => return false,
        };
        if old != level {
            self.generation += 1;
            self.content_generation += 1;
            self.unindex(id, old);
            self.index(id, level);
            if let Some(p) = self.entries.get_mut(&id) {
                p.level = level;
            }
        }
        true
    }

    /// Updates the attached info and refresh stamp of `id`.
    pub fn update_info(&mut self, id: NodeId, info: bytes::Bytes, now_us: u64) -> bool {
        match self.entries.get_mut(&id) {
            Some(p) => {
                // §4.6 refresh reports re-deliver the info a node already
                // advertises; only a genuine change is serving-observable.
                if p.info != info {
                    self.content_generation += 1;
                }
                p.info = info;
                p.last_refresh_us = now_us;
                self.generation += 1;
                true
            }
            None => false,
        }
    }

    /// Marks `id` as refreshed at `now_us` (§4.6).
    pub fn touch(&mut self, id: NodeId, now_us: u64) -> bool {
        match self.entries.get_mut(&id) {
            Some(p) => {
                p.last_refresh_us = now_us;
                self.generation += 1;
                true
            }
            None => false,
        }
    }

    /// Iterates over all pointers in nodeId order.
    pub fn iter(&self) -> impl Iterator<Item = &Pointer> + '_ {
        self.entries.values()
    }

    /// Iterates over all pointers within `prefix`, in nodeId order.
    pub fn iter_prefix(&self, prefix: Prefix) -> impl Iterator<Item = &Pointer> + '_ {
        self.entries.range(prefix.id_range()).map(|(_, p)| p)
    }

    /// Number of pointers within `prefix`.
    pub fn count_prefix(&self, prefix: Prefix) -> usize {
        self.entries.range(prefix.id_range()).count()
    }

    /// The pointers a node re-scoping to `prefix` would download from us
    /// (§4.3 step 3 / warm-up): our entries restricted to `prefix`.
    pub fn subset_for(&self, prefix: Prefix) -> Vec<Pointer> {
        self.iter_prefix(prefix).cloned().collect()
    }

    /// The *right neighbor* on the probing circle (§4.1): the entry with
    /// the smallest id strictly greater than `me` among nodes in `group`
    /// (the caller's eigenstring group: same level, same prefix), wrapping
    /// around. Returns `None` when the group has no other member.
    pub fn ring_successor_in_group(
        &self,
        me: NodeId,
        group: Prefix,
        level: Level,
    ) -> Option<&Pointer> {
        let set = self.by_level.get(level.value() as usize)?;
        let range = group.id_range();
        let (start, end) = (*range.start(), *range.end());
        // First candidate after `me`, then wrap to the start of the group.
        let after = set
            .range((
                std::ops::Bound::Excluded(me),
                std::ops::Bound::Included(end),
            ))
            .next();
        let id = match after {
            Some(&id) => id,
            None => *set
                .range((
                    std::ops::Bound::Included(start),
                    std::ops::Bound::Included(end),
                ))
                .find(|&&id| id != me)?,
        };
        if id == me {
            return None;
        }
        self.entries.get(&id)
    }

    /// Number of held entries at `level` whose id falls inside `group` —
    /// the membership count of one eigenstring group as this list sees
    /// it. Linear in the group: kept as the definition
    /// [`PeerList::group_singletons`] is tested against.
    #[cfg(any(test, feature = "invariants"))]
    pub(crate) fn count_group(&self, group: Prefix, level: Level) -> usize {
        match self.by_level.get(level.value() as usize) {
            Some(set) => set.range(group.id_range()).count(),
            None => 0,
        }
    }

    /// Every held entry that is alone in its eigenstring group (same
    /// level, same first `level` bits) as this list sees it, in ascending
    /// id order. Such a peer has no same-group predecessor anywhere in
    /// our view: nobody's §4.1 ring reaches it.
    ///
    /// One pass per level over the id-sorted level index: members of one
    /// group are contiguous there, so an entry is alone iff neither sorted
    /// neighbour shares its first `level` bits.
    pub(crate) fn group_singletons(&self) -> Vec<(NodeId, Level)> {
        let mut out = Vec::new();
        for (l, set) in (0..=u8::MAX).zip(&self.by_level) {
            if l == 0 {
                // The empty eigenstring: all of level 0 is one group.
                if set.len() == 1 {
                    out.extend(set.iter().map(|&id| (id, Level::TOP)));
                }
                continue;
            }
            let mut prev: Option<NodeId> = None;
            let mut ids = set.iter().copied().peekable();
            while let Some(id) = ids.next() {
                let in_group = |other: NodeId| id.common_prefix_len(other) >= l;
                if !prev.is_some_and(in_group) && !ids.peek().copied().is_some_and(in_group) {
                    out.push((id, Level(l)));
                }
                prev = Some(id);
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// The right neighbor on the circle formed by the *whole* peer list
    /// (the probe fallback for a node alone in its group): the entry with
    /// the smallest id strictly greater than `me`, wrapping around.
    pub fn ring_successor(&self, me: NodeId) -> Option<&Pointer> {
        self.entries
            .range((std::ops::Bound::Excluded(me), std::ops::Bound::Unbounded))
            .next()
            .or_else(|| self.entries.iter().next())
            .map(|(_, p)| p)
            .filter(|p| p.id != me)
    }

    /// Highest level value present in the index.
    fn max_level(&self) -> u8 {
        self.by_level.len().saturating_sub(1) as u8
    }

    /// Finds the strongest audience-set member of `changing` within the id
    /// range `range` — the §4.2 rule "choose a target node with the highest
    /// level from all possible nodes". Ties (several candidates at the
    /// strongest level) are broken by smallest nodeId, which keeps full and
    /// oracle fidelity modes bit-identical. `exclude` (normally the local
    /// node) is never returned.
    ///
    /// A level-`l` entry `c` is in `changing`'s audience set iff
    /// `c.prefix(l) == changing.prefix(l)`; within a fixed range this is a
    /// per-level range test, so the scan is `O(levels · log n)`.
    pub fn strongest_audience_in_range(
        &self,
        range: Prefix,
        changing: NodeId,
        exclude: NodeId,
    ) -> Option<&Pointer> {
        let diverge = changing.common_prefix_len(range.range_start());
        for l in 0..=self.max_level() {
            let set = match self.by_level.get(l as usize) {
                Some(s) if !s.is_empty() => s,
                _ => continue,
            };
            // Level-l members of the audience set have eigenstring equal to
            // changing.prefix(l). Inside `range` they exist only if the two
            // prefixes are compatible.
            let query = if l <= range.len() {
                // Everything in `range` already fixes the first `range.len()`
                // bits; audience requires those bits to agree with `changing`
                // on the first l of them.
                if l <= diverge.min(range.len()) {
                    range
                } else {
                    continue;
                }
            } else {
                // Deeper levels: candidates must extend `changing`'s own
                // prefix, which lies inside `range` only if `range` itself
                // agrees with `changing` on all its bits.
                if diverge >= range.len() && l <= ID_BITS {
                    changing.prefix(l)
                } else {
                    continue;
                }
            };
            let found = set
                .range(query.id_range())
                .find(|&&id| id != exclude && id != changing);
            if let Some(&id) = found {
                return self.entries.get(&id);
            }
        }
        None
    }

    /// Every §4.2 forward of one delivery, in no particular order: for each
    /// `s` in `step..ID_BITS`, the strongest audience-set member of
    /// `changing` (ties to the smallest id) in the flipped range
    /// `F_s = local.prefix(s).child(!local.bit(s))`, sent with
    /// `next_step = s + 1`. `local` and `changing` are never targets.
    ///
    /// One walk per level, strongest first: seek the first level-`l`
    /// audience member inside `local.prefix(step)`, charge it to
    /// `s = lcp(local, id)` unless a stronger level already filled `s`,
    /// then seek past `F_s`. The `F_s` partition `local.prefix(step)`
    /// minus `local`, so a level costs one seek per flipped range it
    /// occupies, not one range query per `s`.
    pub fn forwards(&self, local: NodeId, step: u8, changing: NodeId) -> Vec<Forward> {
        let shared = local.common_prefix_len(changing);
        let mut filled = 0u128; // bit s: F_s has its target
        let mut out = Vec::new();
        for (l, set) in (0..=ID_BITS).zip(&self.by_level) {
            // Level-l audience members share `changing`'s first l bits:
            // one id range, which meets `local.prefix(step)` only when the
            // two prefixes nest, and then the longer one is the overlap.
            if shared < l.min(step) {
                continue;
            }
            let range = if l > step {
                changing.prefix(l)
            } else {
                local.prefix(step)
            };
            let end = range.range_end();
            let mut ids = set.range(range.range_start()..);
            while let Some(&id) = ids.next() {
                if id > end {
                    break;
                }
                if id == local || id == changing {
                    continue;
                }
                let s = local.common_prefix_len(id);
                let slot = 1u128 << s;
                if filled & slot == 0 {
                    filled |= slot;
                    if let Some(p) = self.entries.get(&id) {
                        out.push(Forward {
                            next_step: s + 1,
                            target: Target::from(p),
                        });
                    }
                }
                // The rest of this level in F_s = id.prefix(s + 1) loses to
                // what filled it: a stronger level, or this smaller id.
                let past = id.prefix(s + 1).range_end();
                if past >= end {
                    break;
                }
                ids = set.range(NodeId(past.0 + 1)..);
            }
        }
        out
    }

    /// Updates the recorded level, attached info and refresh stamp of
    /// `id` in one lookup — exactly [`PeerList::update_level`] followed by
    /// [`PeerList::update_info`], counters included. Returns `false` if
    /// the id is unknown.
    pub fn update(&mut self, id: NodeId, level: Level, info: bytes::Bytes, now_us: u64) -> bool {
        let Some(p) = self.entries.get_mut(&id) else {
            return false;
        };
        let old = std::mem::replace(&mut p.level, level);
        // §4.6 refresh reports re-deliver the info a node already
        // advertises; only a genuine change is serving-observable.
        let info_changed = p.info != info;
        p.info = info;
        p.last_refresh_us = now_us;
        if old != level {
            self.generation += 1;
            self.content_generation += 1;
            self.unindex(id, old);
            self.index(id, level);
        }
        if info_changed {
            self.content_generation += 1;
        }
        self.generation += 1;
        true
    }

    /// All audience-set members of `changing` present in this list (test
    /// and oracle helper).
    pub fn audience_members(&self, changing: NodeId) -> Vec<NodeIdentity> {
        self.entries
            .values()
            .filter(|p| p.identity().covers(changing))
            .map(|p| p.identity())
            .collect()
    }

    /// Per-level entry counts (reporting).
    pub fn level_histogram(&self) -> Vec<usize> {
        self.by_level.iter().map(|s| s.len()).collect()
    }

    /// Drops every pointer whose `last_refresh_us` is older than
    /// `deadline_for(level)` (§4.6 expiry: an `m`-level pointer unrefreshed
    /// for `3 · LT_m` is removed without explicit probing). Returns the
    /// removed ids.
    pub fn expire(&mut self, mut deadline_for: impl FnMut(Level) -> u64) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .entries
            .values()
            .filter(|p| p.last_refresh_us < deadline_for(p.level))
            .map(|p| p.id)
            .collect();
        for &id in &stale {
            self.remove(id);
        }
        stale
    }

    /// Whether the level index mirrors the entries exactly: walking the
    /// entries in id order, each one is the next id of its own level's
    /// set, and no set holds anything more. [`PeerList::group_singletons`]
    /// reads groups off the index alone, so it leans on this.
    #[cfg(any(test, feature = "invariants"))]
    pub(crate) fn index_is_consistent(&self) -> bool {
        let mut cursors: Vec<_> = self.by_level.iter().map(BTreeSet::iter).collect();
        self.entries.values().all(|p| {
            let cursor = cursors.get_mut(usize::from(p.level.value()));
            cursor.and_then(Iterator::next) == Some(&p.id)
        }) && cursors.iter_mut().all(|c| c.next().is_none())
    }

    fn index(&mut self, id: NodeId, level: Level) {
        let l = level.value() as usize;
        if self.by_level.len() <= l {
            self.by_level.resize_with(l + 1, BTreeSet::new);
        }
        self.by_level[l].insert(id);
    }

    fn unindex(&mut self, id: NodeId, level: Level) {
        if let Some(set) = self.by_level.get_mut(level.value() as usize) {
            set.remove(&id);
        }
        while matches!(self.by_level.last(), Some(s) if s.is_empty()) {
            self.by_level.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointer::Addr;

    fn p(bits: &str, level: u8) -> Pointer {
        let id = Prefix::from_bits_str(bits).unwrap().range_start();
        Pointer::new(id, Addr(0), Level::new(level))
    }

    fn nid(bits: &str) -> NodeId {
        Prefix::from_bits_str(bits).unwrap().range_start()
    }

    /// The 10-node example of figure 1 (4-bit ids, padded to 128 bits).
    fn figure1_list() -> PeerList {
        let mut list = PeerList::new(Prefix::EMPTY);
        for (bits, level) in [
            ("0010", 0), // A
            ("0111", 0), // B
            ("0100", 2), // C
            ("1101", 1), // D
            ("1011", 1), // E
            ("0110", 2), // F
            ("0000", 2), // G
            ("1010", 2), // H
            ("0011", 2), // I
            ("1000", 3), // J
        ] {
            list.insert(p(bits, level));
        }
        list
    }

    #[test]
    fn insert_remove_and_reindex() {
        let mut list = PeerList::new(Prefix::EMPTY);
        assert!(list.is_empty());
        list.insert(p("1010", 2));
        list.insert(p("1010", 2)); // idempotent
        assert_eq!(list.len(), 1);
        assert!(list.update_level(nid("1010"), Level::new(1)));
        assert_eq!(list.get(nid("1010")).unwrap().level, Level::new(1));
        assert_eq!(list.level_histogram(), vec![0, 1]);
        assert!(list.remove(nid("1010")).is_some());
        assert!(list.level_histogram().is_empty());
        assert!(!list.update_level(nid("1010"), Level::TOP));
    }

    #[test]
    fn scope_narrowing_drops_outsiders() {
        let mut list = figure1_list();
        list.set_scope(Prefix::from_bits_str("1").unwrap());
        // Only D, E, H, J start with "1".
        assert_eq!(list.len(), 4);
        assert!(list.contains(nid("1101")));
        assert!(!list.contains(nid("0010")));
    }

    #[test]
    fn ring_successor_wraps_within_group() {
        let list = figure1_list();
        // Level-2 nodes with prefix "0": G(0000), I(0011), C(0100), F(0110).
        let g2 = Prefix::from_bits_str("0").unwrap();
        let next = |me: &str| {
            list.ring_successor_in_group(nid(me), g2, Level::new(2))
                .map(|p| p.id)
        };
        assert_eq!(next("0000"), Some(nid("0011")));
        assert_eq!(next("0110"), Some(nid("0000"))); // wrap
                                                     // Singleton group: the only level-1 node under "11" is D itself.
        let solo = list.ring_successor_in_group(
            nid("1101"),
            Prefix::from_bits_str("11").unwrap(),
            Level::new(1),
        );
        assert!(solo.is_none());
    }

    #[test]
    fn audience_members_match_paper_example() {
        // §2: node E's (1011) audience set = {A, B (level 0), D, E (level 1,
        // eigenstring "1"), H (level 2, eigenstring "10")}.
        let list = figure1_list();
        let mut ids: Vec<NodeId> = list
            .audience_members(nid("1011"))
            .into_iter()
            .map(|i| i.id)
            .collect();
        ids.sort();
        let mut expect = vec![
            nid("0010"),
            nid("0111"),
            nid("1101"),
            nid("1011"),
            nid("1010"),
        ];
        expect.sort();
        assert_eq!(ids, expect);
    }

    #[test]
    fn strongest_audience_prefers_low_level_value() {
        let list = figure1_list();
        let changing = nid("1011"); // E
                                    // In the "0…" half, only the level-0 nodes A and B are audience.
        let range = Prefix::from_bits_str("0").unwrap();
        let t = list
            .strongest_audience_in_range(range, changing, NodeId::MAX)
            .unwrap();
        assert_eq!(t.level, Level::TOP);
        assert_eq!(t.id, nid("0010")); // smallest-id tie-break (A over B)
                                       // In the "10" quarter, H (level 2, eigenstring "10") qualifies.
        let range = Prefix::from_bits_str("10").unwrap();
        let t = list
            .strongest_audience_in_range(range, changing, nid("1011"))
            .unwrap();
        assert_eq!(t.id, nid("1010"));
        // In the "11" quarter, D has level 1 and eigenstring "1": audience.
        let range = Prefix::from_bits_str("11").unwrap();
        let t = list
            .strongest_audience_in_range(range, changing, NodeId::MAX)
            .unwrap();
        assert_eq!(t.id, nid("1101"));
    }

    #[test]
    fn strongest_audience_excludes_changing_and_self() {
        let list = figure1_list();
        let changing = nid("1011");
        // Range "1011…": only E itself lives there; excluded.
        let range = Prefix::from_bits_str("1011").unwrap();
        assert!(list
            .strongest_audience_in_range(range, changing, NodeId::MAX)
            .is_none());
    }

    #[test]
    fn non_audience_levels_are_skipped() {
        let list = figure1_list();
        // Changing node 0101…: audience = A, B (level 0) plus C (0100) and
        // F (0110), both level 2 with eigenstring "01". G (0000) and I
        // (0011) have eigenstring "00" and are not audience members.
        let changing = nid("0101");
        // Range "00" holds A (0010, level 0, audience) plus the
        // non-audience G and I; A is found.
        let range = Prefix::from_bits_str("00").unwrap();
        let t = list
            .strongest_audience_in_range(range, changing, NodeId::MAX)
            .unwrap();
        assert_eq!(t.id, nid("0010"));
        // Range "000" holds only G, a non-audience node.
        let range = Prefix::from_bits_str("000").unwrap();
        assert!(list
            .strongest_audience_in_range(range, changing, NodeId::MAX)
            .is_none());
        // Range "011" holds B (0111, level 0) and F (0110, level 2): the
        // stronger B wins; with B unavailable the scan falls through to F.
        let range = Prefix::from_bits_str("011").unwrap();
        let t = list
            .strongest_audience_in_range(range, changing, NodeId::MAX)
            .unwrap();
        assert_eq!(t.id, nid("0111"));
        let t = list
            .strongest_audience_in_range(range, changing, nid("0111"))
            .unwrap();
        assert_eq!(t.id, nid("0110"));
    }

    #[test]
    fn expire_drops_old_entries() {
        let mut list = figure1_list();
        let now = 1_000_000u64;
        for ptr in [nid("0010"), nid("1011")] {
            list.touch(ptr, now);
        }
        let removed = list.expire(|_| now); // everything untouched dies
        assert_eq!(removed.len(), 8);
        assert_eq!(list.len(), 2);
        assert!(list.contains(nid("0010")));
        assert!(list.contains(nid("1011")));
    }

    #[test]
    fn generation_tracks_every_mutation_kind() {
        let mut list = PeerList::new(Prefix::EMPTY);
        let g0 = list.generation();
        list.insert(p("1010", 2));
        assert!(list.generation() > g0);
        let g = list.generation();
        let cg = list.content_generation();
        // Read-only calls don't move either counter.
        let _ = list.get(nid("1010"));
        let _ = list.level_histogram();
        assert_eq!(list.generation(), g);
        assert_eq!(list.content_generation(), cg);
        // Failed mutations don't move them either.
        assert!(!list.touch(nid("0001"), 5));
        assert!(!list.update_level(nid("0001"), Level::TOP));
        assert!(list.remove(nid("0001")).is_none());
        assert_eq!(list.generation(), g);
        assert_eq!(list.content_generation(), cg);
        // Each successful mutation kind bumps the full counter…
        assert!(list.touch(nid("1010"), 5));
        assert!(list.update_level(nid("1010"), Level::new(1)));
        assert!(list.update_info(nid("1010"), bytes::Bytes::from_static(b"x"), 6));
        // Re-delivering identical info (a §4.6 refresh) is a refresh
        // stamp, not a content change.
        let cg_same = list.content_generation();
        assert!(list.update_info(nid("1010"), bytes::Bytes::from_static(b"x"), 7));
        assert_eq!(list.content_generation(), cg_same);
        list.set_scope(Prefix::from_bits_str("1").unwrap());
        assert!(list.remove(nid("1010")).is_some());
        assert_eq!(list.generation(), g + 6);
        // …but touch() and the identical-info refresh are invisible to
        // the content counter (refresh stamps are not serving-layer
        // state), so it moved two less.
        assert_eq!(list.content_generation(), cg + 4);

        // update() is update_level + update_info in one lookup: same
        // counters, same entry, same level index, same verdict.
        let x = bytes::Bytes::from_static(b"x");
        let y = bytes::Bytes::from_static(b"y");
        let e = nid("1011");
        let mut with_info = figure1_list();
        assert!(with_info.update_info(e, x.clone(), 3));
        for (id, level, info) in [
            (e, Level::new(1), x.clone()),   // same level and info
            (e, Level::new(3), x.clone()),   // new level
            (e, Level::new(1), y.clone()),   // new info
            (e, Level::TOP, y.clone()),      // both
            (nid("0001"), Level::TOP, y),    // absent id
            (nid("1000"), Level::new(2), x), // the only level-3 entry: the index shrinks
        ] {
            let (mut one, mut two) = (with_info.clone(), with_info.clone());
            let found = one.update(id, level, info.clone(), 9);
            assert_eq!(found, two.update_level(id, level));
            assert_eq!(found, two.update_info(id, info, 9));
            assert_eq!(found, with_info.contains(id));
            assert_eq!(one.generation(), two.generation(), "{id:?} {level:?}");
            assert_eq!(one.content_generation(), two.content_generation());
            assert_eq!(one.get(id), two.get(id));
            assert_eq!(one.level_histogram(), two.level_histogram());
            assert!(one.index_is_consistent());
        }
    }

    #[test]
    fn subset_for_returns_prefix_slice() {
        let list = figure1_list();
        let sub = list.subset_for(Prefix::from_bits_str("10").unwrap());
        let ids: Vec<NodeId> = sub.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![nid("1000"), nid("1010"), nid("1011")]);
    }
}
