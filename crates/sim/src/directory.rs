//! Ground-truth membership directory for oracle-mode simulation.
//!
//! The paper's own experiment uses this trick (§5): "Considering that
//! PeerWindow nodes with the same eigenstring would have the same peer
//! list, we record all the correct peer lists in a centralized data
//! structure, and only record erroneous items in nodes' individual data
//! structures." The directory holds the live membership in sorted vectors
//! (one global, one per level), so every peer-list-shaped question — list
//! sizes, group populations, multicast target selection — is a pair of
//! binary searches instead of per-node state. Beside them it keeps one
//! compressed binary trie over every live id, which plans each event's
//! multicast ([`Directory::plan`]) without extracting its audience;
//! [`Directory::collect_audience`] is the extraction the older planner in
//! [`crate::plan`] reads.

mod trie;

use peerwindow_core::prelude::{Level, NodeId, Prefix};
use trie::Trie;
pub use trie::{Charge, Hop, Traffic};

/// Per-node simulation state (workload schedule and adaptation); the
/// node's traffic counters are [`Directory::traffic`].
#[derive(Clone, Debug)]
pub struct SlotData {
    /// Node id.
    pub id: NodeId,
    /// Overlay address (stable per slot; maps to a topology stub node).
    pub addr: u32,
    /// Current level.
    pub level: Level,
    /// Bandwidth threshold, bps.
    pub threshold_bps: f64,
    /// Total access bandwidth, bps (reporting only).
    pub bandwidth_bps: f64,
    /// Whether the node is currently alive.
    pub alive: bool,
    /// Event sequence counter (for StateEvent seq fields).
    pub seq: u64,
    /// Adaptation debounce: +1 per over-budget window, −1 per
    /// raise-eligible window, reset on in-band windows; a shift needs two
    /// consecutive same-direction windows (deep levels see few events per
    /// window, and acting on one noisy sample makes them flap).
    pub pressure: i8,
}

/// What audience extraction needs to know about one live node, so that
/// it never reads `slots`; `slot` is also how an id finds its slot.
#[derive(Clone, Copy, Debug)]
struct Member {
    slot: u32,
    addr: u32,
    level: u8,
}

/// The ground-truth directory.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    /// All live ids, sorted.
    all: Vec<u128>,
    /// `members[i]` describes the node `all[i]` (same length, same order).
    members: Vec<Member>,
    /// Live ids per level, each sorted.
    levels: Vec<Vec<u128>>,
    /// Slot storage (never shrinks; `alive` distinguishes).
    slots: Vec<SlotData>,
    /// Live count per level (kept in sync with `levels`).
    level_counts: Vec<usize>,
    /// The kept multicast trie over `all`.
    trie: Trie,
}

fn insert_sorted(v: &mut Vec<u128>, x: u128) {
    match v.binary_search(&x) {
        Ok(_) => {}
        Err(pos) => v.insert(pos, x),
    }
}

fn remove_sorted(v: &mut Vec<u128>, x: u128) {
    if let Ok(pos) = v.binary_search(&x) {
        v.remove(pos);
    }
}

/// Index range of ids with prefix `p` within a sorted vector.
fn range_of(v: &[u128], p: Prefix) -> (usize, usize) {
    let lo = v.partition_point(|&x| x < p.range_start().raw());
    let hi = v.partition_point(|&x| x <= p.range_end().raw());
    (lo, hi)
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Highest level value in use.
    pub fn max_level(&self) -> u8 {
        self.levels.len().saturating_sub(1) as u8
    }

    /// Live nodes at `level`.
    pub fn level_count(&self, level: u8) -> usize {
        self.level_counts.get(level as usize).copied().unwrap_or(0)
    }

    /// The slot storage (including dead slots).
    pub fn slots(&self) -> &[SlotData] {
        &self.slots
    }

    /// Mutable slot access.
    pub fn slot_mut(&mut self, slot: u32) -> &mut SlotData {
        &mut self.slots[slot as usize]
    }

    /// Slot of a live id.
    pub fn slot_of(&self, id: NodeId) -> Option<u32> {
        self.position(id).map(|pos| self.members[pos].slot)
    }

    /// Slot data of a live id.
    pub fn get(&self, id: NodeId) -> Option<&SlotData> {
        self.slot_of(id).map(|s| &self.slots[s as usize])
    }

    /// Position of a live id in `all` (and `members`).
    fn position(&self, id: NodeId) -> Option<usize> {
        self.all.binary_search(&id.raw()).ok()
    }

    /// Makes `levels[l]` and `level_counts[l]` exist.
    fn grow_levels(&mut self, l: usize) {
        if self.levels.len() <= l {
            self.levels.resize_with(l + 1, Vec::new);
            self.level_counts.resize(l + 1, 0);
        }
    }

    /// What [`Self::join`] and [`Self::join_all`] share: gives the node
    /// the next slot and counts it at its level. The caller places the id
    /// and the returned entry in the sorted columns.
    fn admit(
        &mut self,
        id: NodeId,
        addr: u32,
        level: Level,
        threshold_bps: f64,
        bandwidth_bps: f64,
    ) -> Member {
        let slot = self.slots.len() as u32;
        self.slots.push(SlotData {
            id,
            addr,
            level,
            threshold_bps,
            bandwidth_bps,
            alive: true,
            seq: 1,
            pressure: 0,
        });
        let level = level.value();
        self.grow_levels(level as usize);
        self.level_counts[level as usize] += 1;
        Member { slot, addr, level }
    }

    /// Adds a node; returns its slot.
    ///
    /// # Panics
    /// Panics if the id is already live.
    pub fn join(
        &mut self,
        id: NodeId,
        addr: u32,
        level: Level,
        threshold_bps: f64,
        bandwidth_bps: f64,
    ) -> u32 {
        let Err(pos) = self.all.binary_search(&id.raw()) else {
            panic!("duplicate join of {id}");
        };
        let member = self.admit(id, addr, level, threshold_bps, bandwidth_bps);
        self.all.insert(pos, id.raw());
        self.members.insert(pos, member);
        insert_sorted(&mut self.levels[member.level as usize], id.raw());
        self.trie.insert(member.slot, id.raw(), addr, member.level);
        member.slot
    }

    /// Adds every node of `nodes`, each a tuple of [`Self::join`]'s
    /// arguments, with the slots and the end state of joining them one by
    /// one in iteration order. The sorted columns are appended to and
    /// sorted once, not shifted per node, and the trie is built in one
    /// stack pass over them: O(n log n) for a whole population where
    /// repeated `join` is O(n²).
    ///
    /// # Panics
    /// Panics if an id is already live or comes twice.
    pub fn join_all(&mut self, nodes: impl IntoIterator<Item = (NodeId, u32, Level, f64, f64)>) {
        let nodes = nodes.into_iter();
        let expected = nodes.size_hint().0;
        self.slots.reserve(expected);
        let mut column: Vec<(u128, Member)> = Vec::with_capacity(self.len() + expected);
        column.extend(self.all.drain(..).zip(self.members.drain(..)));
        for (id, addr, level, threshold_bps, bandwidth_bps) in nodes {
            let member = self.admit(id, addr, level, threshold_bps, bandwidth_bps);
            column.push((id.raw(), member));
            self.levels[member.level as usize].push(id.raw());
        }
        column.sort_unstable_by_key(|&(id, _)| id);
        if let Some(w) = column.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("duplicate join of {}", NodeId(w[0].0));
        }
        (self.all, self.members) = column.into_iter().unzip();
        for ids in &mut self.levels {
            ids.sort_unstable();
        }
        self.trie
            .rebuild(&self.all, &self.members, self.slots.len());
    }

    /// Removes a node; returns its slot if it was live.
    pub fn leave(&mut self, id: NodeId) -> Option<u32> {
        let pos = self.position(id)?;
        let slot = self.members[pos].slot;
        let level = self.slots[slot as usize].level.value() as usize;
        self.slots[slot as usize].alive = false;
        self.all.remove(pos);
        self.members.remove(pos);
        remove_sorted(&mut self.levels[level], id.raw());
        self.level_counts[level] -= 1;
        self.trie.remove(id.raw());
        Some(slot)
    }

    /// Changes a live node's level; returns `(slot, old_level)`.
    pub fn change_level(&mut self, id: NodeId, new: Level) -> Option<(u32, Level)> {
        let pos = self.position(id)?;
        let slot = self.members[pos].slot;
        let old = self.slots[slot as usize].level;
        if old == new {
            return None;
        }
        remove_sorted(&mut self.levels[old.value() as usize], id.raw());
        self.level_counts[old.value() as usize] -= 1;
        let l = new.value() as usize;
        self.grow_levels(l);
        insert_sorted(&mut self.levels[l], id.raw());
        self.level_counts[l] += 1;
        self.slots[slot as usize].level = new;
        self.members[pos].level = new.value();
        self.trie.set_level(id.raw(), new.value());
        Some((slot, old))
    }

    /// Number of live ids with prefix `p` — the correct peer-list size of
    /// any node whose eigenstring is `p` (§2 property 1).
    pub fn count_prefix(&self, p: Prefix) -> usize {
        let (lo, hi) = range_of(&self.all, p);
        hi - lo
    }

    /// Live ids at `level` with prefix `p` (a group's population).
    pub fn count_level_prefix(&self, level: u8, p: Prefix) -> usize {
        match self.levels.get(level as usize) {
            Some(v) => {
                let (lo, hi) = range_of(v, p);
                hi - lo
            }
            None => 0,
        }
    }

    /// Iterates live ids at `level` within `p`.
    pub fn level_prefix_ids(&self, level: u8, p: Prefix) -> &[u128] {
        match self.levels.get(level as usize) {
            Some(v) => {
                let (lo, hi) = range_of(v, p);
                &v[lo..hi]
            }
            None => &[],
        }
    }

    /// The part of node `id` (§4.4): the smallest `l` such that some live
    /// node's eigenstring equals `id.prefix(l)`. Returns `(top_level,
    /// part_prefix)`; `None` only when the system is empty of coverers
    /// (cannot happen for a live id — its own eigenstring covers it).
    pub fn part_of(&self, id: NodeId) -> Option<(Level, Prefix)> {
        for l in 0..=self.max_level() {
            let p = id.prefix(l);
            if self.count_level_prefix(l, p) > 0 {
                return Some((Level::new(l), p));
            }
        }
        None
    }

    /// Picks a pseudo-random top node of `subject`'s part, excluding the
    /// subject itself. `die` supplies randomness (index below n).
    pub fn random_top_for(
        &self,
        subject: NodeId,
        mut die: impl FnMut(usize) -> usize,
    ) -> Option<NodeId> {
        let (top_level, part) = self.part_of(subject)?;
        let ids = self.level_prefix_ids(top_level.value(), part);
        if ids.is_empty() {
            return None;
        }
        for _ in 0..8 {
            let cand = ids[die(ids.len())];
            if cand != subject.raw() {
                return Some(NodeId(cand));
            }
        }
        ids.iter()
            .find(|&&x| x != subject.raw())
            .map(|&x| NodeId(x))
    }

    /// The audience set of `subject`, sorted by id: every live node other
    /// than the subject whose eigenstring covers it, i.e. whose id shares
    /// at least `level` leading bits with `subject`. One pass over the
    /// id-sorted membership, so the output needs no sort. Writes into
    /// `out` (reused buffer).
    pub fn collect_audience(&self, subject: NodeId, out: &mut Vec<AudienceEntry>) {
        out.clear();
        let subject = subject.raw();
        for (&id, m) in self.all.iter().zip(&self.members) {
            if (id ^ subject).leading_zeros() >= m.level as u32 && id != subject {
                out.push(AudienceEntry {
                    id,
                    level: m.level,
                    slot: m.slot,
                    addr: m.addr,
                });
            }
        }
    }

    /// Size of `subject`'s audience, counted from the level columns: the
    /// level-`l` nodes sharing `l` bits with it, over every `l`, less the
    /// subject itself if live.
    pub fn audience_len(&self, subject: NodeId) -> usize {
        let covering: usize = (0..=self.max_level())
            .map(|l| self.count_level_prefix(l, subject.prefix(l)))
            .sum();
        covering - self.get(subject).is_some() as usize
    }

    /// Plans the multicast of an event about `subject` (live or just
    /// departed) from `root`, a live node of its audience that holds the
    /// event at `t_root`, over the kept trie, and charges every member's
    /// [`Traffic`] as it goes. `latency(from_addr, to_addr)` supplies
    /// one-way latency; `processing_us` is the §5.1 per-hop compute delay.
    /// Calls `on_deliver` once per receiver but the root, in the same
    /// depth-first send order, with the same times, steps and depths, as
    /// [`crate::plan::plan_event`] over [`Self::collect_audience`].
    ///
    /// # Panics
    /// Panics if `root` is not live.
    #[allow(clippy::too_many_arguments)]
    pub fn plan<L, F>(
        &mut self,
        subject: NodeId,
        root: NodeId,
        t_root: u64,
        processing_us: u64,
        charge: Charge,
        latency: L,
        on_deliver: F,
    ) where
        L: FnMut(u32, u32) -> u64,
        F: FnMut(&Hop),
    {
        self.trie.walk(
            subject.raw(),
            root.raw(),
            t_root,
            processing_us,
            charge,
            latency,
            on_deliver,
        );
    }

    /// The traffic counters of a live slot.
    pub fn traffic(&self, slot: u32) -> &Traffic {
        self.trie.traffic(slot)
    }

    /// Starts a new adaptation window for every node.
    pub fn reset_windows(&mut self) {
        self.trie.reset_windows();
    }

    /// Consistency check for tests: every invariant the sorted vectors,
    /// counters and the kept trie must satisfy.
    pub fn check_invariants(&self) {
        assert!(self.all.windows(2).all(|w| w[0] < w[1]), "all not sorted");
        assert_eq!(self.members.len(), self.all.len(), "column length");
        for (&id, m) in self.all.iter().zip(&self.members) {
            let s = &self.slots[m.slot as usize];
            assert_eq!(s.id.raw(), id, "slot {} holds another id", m.slot);
            assert!(s.alive, "column names the dead slot {}", m.slot);
            assert_eq!((m.level, m.addr), (s.level.value(), s.addr));
        }
        let mut total = 0;
        for (l, v) in self.levels.iter().enumerate() {
            assert!(v.windows(2).all(|w| w[0] < w[1]), "level {l} not sorted");
            assert_eq!(v.len(), self.level_counts[l], "level {l} count");
            total += v.len();
            for &id in v {
                let s = self.get(NodeId(id)).expect("a level lists a live id");
                assert_eq!(s.level.value() as usize, l);
            }
        }
        assert_eq!(total, self.all.len(), "levels partition all");
        let alive = self.slots.iter().filter(|s| s.alive).count();
        assert_eq!(alive, self.all.len(), "a live slot is missing from all");
        self.trie
            .check_invariants(&self.all, &self.members, self.slots.len());
    }
}

/// One audience-set member (sorted extraction for the tree planner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AudienceEntry {
    /// Raw node id.
    pub id: u128,
    /// Level.
    pub level: u8,
    /// Slot index.
    pub slot: u32,
    /// Overlay address (copied out so planners never re-touch slots).
    pub addr: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(bits: &str) -> NodeId {
        Prefix::from_bits_str(bits).unwrap().range_start()
    }

    fn figure1() -> Directory {
        let mut d = Directory::new();
        for (i, (bits, level)) in [
            ("0010", 0u8), // A
            ("0111", 0),   // B
            ("0100", 2),   // C
            ("1101", 1),   // D
            ("1011", 1),   // E
            ("0110", 2),   // F
            ("0000", 2),   // G
            ("1010", 2),   // H
            ("0011", 2),   // I
            ("1000", 3),   // J
        ]
        .iter()
        .enumerate()
        {
            d.join(nid(bits), i as u32, Level::new(*level), 500.0, 1e6);
        }
        d.check_invariants();
        d
    }

    #[test]
    fn join_leave_change_level_keep_invariants() {
        let mut d = figure1();
        assert_eq!(d.len(), 10);
        assert_eq!(d.level_count(0), 2);
        assert_eq!(d.level_count(2), 5);
        d.leave(nid("0111"));
        d.check_invariants();
        assert_eq!(d.level_count(0), 1);
        d.change_level(nid("1011"), Level::new(2));
        d.check_invariants();
        assert_eq!(d.level_count(1), 1);
        assert_eq!(d.level_count(2), 6);
        // no-op change returns None
        assert!(d.change_level(nid("1011"), Level::new(2)).is_none());
        // rejoin after leave works
        d.join(nid("0111"), 99, Level::TOP, 500.0, 1e6);
        d.check_invariants();
        assert_eq!(d.level_count(0), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate join of")]
    fn join_all_rejects_an_id_that_is_live() {
        let mut d = figure1();
        let fresh = (nid("1111"), 10, Level::TOP, 500.0, 1e6);
        let live = (nid("0110"), 11, Level::new(2), 500.0, 1e6);
        d.join_all([fresh, live]);
    }

    #[test]
    #[should_panic(expected = "duplicate join of")]
    fn join_all_rejects_an_id_that_comes_twice() {
        let mut d = figure1();
        let node = |addr| (nid("1111"), addr, Level::TOP, 500.0, 1e6);
        d.join_all([node(10), node(11)]);
    }

    #[test]
    fn count_prefix_is_correct_list_size() {
        let d = figure1();
        assert_eq!(d.count_prefix(Prefix::EMPTY), 10);
        assert_eq!(d.count_prefix(Prefix::from_bits_str("1").unwrap()), 4);
        assert_eq!(d.count_prefix(Prefix::from_bits_str("10").unwrap()), 3);
        assert_eq!(d.count_prefix(Prefix::from_bits_str("11").unwrap()), 1);
    }

    #[test]
    fn audience_matches_paper_example() {
        let d = figure1();
        let mut out = Vec::new();
        d.collect_audience(nid("1011"), &mut out);
        let ids: Vec<u128> = out.iter().map(|e| e.id).collect();
        let expect: Vec<u128> = [nid("0010"), nid("0111"), nid("1010"), nid("1101")]
            .iter()
            .map(|n| n.raw())
            .collect();
        assert_eq!(ids, expect);
        // levels carried along
        let h = out.iter().find(|e| e.id == nid("1010").raw()).unwrap();
        assert_eq!(h.level, 2);
    }

    #[test]
    fn audience_follows_a_level_shift() {
        let mut d = figure1();
        let ids_of = |d: &Directory, subject: NodeId| {
            let mut out = Vec::new();
            d.collect_audience(subject, &mut out);
            out
        };
        // H (1010, level 2) hears about E (1011); J (1000, level 3) and
        // C (0100, level 2) do not.
        let e = nid("1011");
        assert!(ids_of(&d, e).iter().any(|a| a.id == nid("1010").raw()));
        assert!(ids_of(&d, e).iter().all(|a| a.id != nid("1000").raw()));
        // J rises to level 2: "10" covers E, and the entry carries the
        // new level. H sinks to level 4: "1010" no longer covers E.
        d.change_level(nid("1000"), Level::new(2));
        d.change_level(nid("1010"), Level::new(4));
        d.check_invariants();
        let after = ids_of(&d, e);
        let j = after.iter().find(|a| a.id == nid("1000").raw()).unwrap();
        assert_eq!((j.level, j.slot, j.addr), (2, 9, 9));
        assert!(after.iter().all(|a| a.id != nid("1010").raw()));
        // C rises to the top and now hears about everything.
        d.change_level(nid("0100"), Level::TOP);
        assert!(ids_of(&d, e).iter().any(|a| a.id == nid("0100").raw()));
    }

    #[test]
    fn part_of_whole_system_is_top() {
        let d = figure1();
        let (l, p) = d.part_of(nid("1011")).unwrap();
        assert_eq!(l, Level::TOP);
        assert_eq!(p, Prefix::EMPTY);
    }

    #[test]
    fn part_of_split_system() {
        let mut d = figure1();
        d.leave(nid("0010"));
        d.leave(nid("0111"));
        d.check_invariants();
        // Now the "1…" side's tops are the level-1 nodes D and E.
        let (l, p) = d.part_of(nid("1000")).unwrap();
        assert_eq!(l, Level::new(1));
        assert_eq!(p, Prefix::from_bits_str("1").unwrap());
        // The "0…" side splits further: C and F ("01"-group level 2).
        let (l, p) = d.part_of(nid("0110")).unwrap();
        assert_eq!(l, Level::new(2));
        assert_eq!(p, Prefix::from_bits_str("01").unwrap());
    }

    #[test]
    fn random_top_excludes_subject() {
        let d = figure1();
        let mut k = 0usize;
        let top = d
            .random_top_for(nid("0010"), |n| {
                k += 1;
                (k - 1) % n
            })
            .unwrap();
        assert_ne!(top, nid("0010"));
        assert_eq!(top, nid("0111")); // the only other top
    }

    #[test]
    fn random_top_in_split_part() {
        let mut d = figure1();
        d.leave(nid("0010"));
        d.leave(nid("0111"));
        let top = d.random_top_for(nid("1000"), |_| 0).unwrap();
        // Tops of part "1" are D (1101) and E (1011); die(0) picks E
        // (smaller id sorts first).
        assert_eq!(top, nid("1011"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Join(u128, u8),
        Leave(usize),
        Shift(usize, u8),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (any::<u128>(), 0u8..6).prop_map(|(id, l)| Op::Join(id, l)),
                any::<usize>().prop_map(Op::Leave),
                (any::<usize>(), 0u8..6).prop_map(|(i, l)| Op::Shift(i, l)),
            ],
            1..120,
        )
    }

    /// Ids that crowd the deep end of the trie: four bases that part only
    /// in their last byte, each spread over its low three bits.
    fn clustered_id() -> impl Strategy<Value = u128> {
        (0u64..4, 0u64..8).prop_map(|(base, low)| {
            0x5EED_0000_0000_0000_0000_0000_0000_0000 | (base << 6 | low) as u128
        })
    }

    /// Operations over uniform and clustered ids at levels 0–6, each with a
    /// pick of the live subject to plan for after it.
    fn arb_mixed_ops() -> impl Strategy<Value = Vec<(Op, usize)>> {
        let op = prop_oneof![
            (prop_oneof![any::<u128>(), clustered_id()], 0u8..7)
                .prop_map(|(id, l)| Op::Join(id, l)),
            any::<usize>().prop_map(Op::Leave),
            (any::<usize>(), 0u8..7).prop_map(|(i, l)| Op::Shift(i, l)),
        ];
        proptest::collection::vec((op, any::<usize>()), 1..80)
    }

    /// A delivery named by ids: (parent, child, child level, at, step, depth).
    type Named = (u128, u128, u8, u64, u8, u32);

    /// Both ways of planning one event, and the charges the kept trie made.
    #[derive(Default)]
    struct Plans {
        kept: Vec<Named>,
        reference: Vec<Named>,
        /// Per audience member, its counters after the kept-trie plan and
        /// what the per-member formula expects.
        charges: Vec<(Traffic, Traffic)>,
    }

    /// Plans `subject`'s event from a top of its part both ways: the kept
    /// trie, and `collect_audience` + `plan_event_indexed`.
    fn both_plans(dir: &mut Directory, subject: NodeId) -> Plans {
        use crate::plan::{plan_event_indexed, Rmq};
        let Some(root) = dir.random_top_for(subject, |n| n / 2) else {
            return Plans::default();
        };
        // Asymmetric, so a hop with sender and receiver swapped shows.
        let latency = |a: u32, b: u32| 1_000 * (a % 1_000) as u64 + (b % 1_000) as u64 + 1;
        let mut audience = Vec::new();
        dir.collect_audience(subject, &mut audience);
        let root_idx = audience
            .binary_search_by_key(&root.raw(), |e| e.id)
            .expect("the root is an audience member");
        let mut want = Vec::new();
        plan_event_indexed(
            &audience,
            &mut Rmq::new(),
            root_idx,
            audience[root_idx].level,
            50,
            7,
            |p, c| latency(audience[p].addr, audience[c].addr),
            |d| {
                let (p, c) = (&audience[d.parent], &audience[d.child]);
                want.push((p.id, c.id, c.level, d.at_us, d.step, d.depth));
            },
        );
        assert_eq!(want.len() + 1, dir.audience_len(subject));
        let charge = Charge {
            event_bits: 1 << 20,
            ack_bits: 1,
            measuring: true,
        };
        let before: Vec<Traffic> = audience.iter().map(|e| *dir.traffic(e.slot)).collect();
        let mut kept = Vec::new();
        dir.plan(subject, root, 50, 7, charge, latency, |h| {
            kept.push((
                h.parent.raw(),
                h.child.raw(),
                h.level,
                h.at_us,
                h.step,
                h.depth,
            ));
        });
        let mut charges = Vec::new();
        for (e, before) in audience.iter().zip(before) {
            let kids = want.iter().filter(|d| d.0 == e.id).count() as u64;
            let acked = (e.id != root.raw()) as u64;
            let expected = Traffic {
                rx_window_bits: before.rx_window_bits + charge.event_bits,
                rx_measure_bits: before.rx_measure_bits
                    + charge.event_bits
                    + kids * charge.ack_bits,
                tx_measure_bits: before.tx_measure_bits
                    + kids * charge.event_bits
                    + acked * charge.ack_bits,
            };
            charges.push((*dir.traffic(e.slot), expected));
        }
        Plans {
            kept,
            reference: want,
            charges,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random operation sequences keep every structural invariant, and
        /// the range counts always agree with a brute-force recount.
        #[test]
        fn random_ops_maintain_invariants(ops in arb_ops(), probe in any::<u128>()) {
            let mut dir = Directory::new();
            let mut live: Vec<u128> = Vec::new();
            for op in ops {
                match op {
                    Op::Join(id, level) => {
                        if dir.get(NodeId(id)).is_none() {
                            dir.join(NodeId(id), id as u32, Level::new(level), 500.0, 1e6);
                            live.push(id);
                        }
                    }
                    Op::Leave(i) => {
                        if !live.is_empty() {
                            let id = live.remove(i % live.len());
                            prop_assert!(dir.leave(NodeId(id)).is_some());
                        }
                    }
                    Op::Shift(i, level) => {
                        if !live.is_empty() {
                            let id = live[i % live.len()];
                            dir.change_level(NodeId(id), Level::new(level));
                        }
                    }
                }
                dir.check_invariants();
            }
            prop_assert_eq!(dir.len(), live.len());
            // count_prefix agrees with brute force for a random probe.
            for l in [0u8, 1, 2, 5, 9] {
                let p = NodeId(probe).prefix(l);
                let brute = live.iter().filter(|&&id| p.contains(NodeId(id))).count();
                prop_assert_eq!(dir.count_prefix(p), brute, "prefix len {}", l);
            }
            // Audience extraction matches the covers() definition.
            let mut audience = Vec::new();
            dir.collect_audience(NodeId(probe), &mut audience);
            let brute: std::collections::BTreeSet<u128> = live
                .iter()
                .filter(|&&id| {
                    id != probe && {
                        let lvl = dir.get(NodeId(id)).unwrap().level;
                        NodeId(id).prefix(lvl.value()).contains(NodeId(probe))
                    }
                })
                .copied()
                .collect();
            let got: std::collections::BTreeSet<u128> =
                audience.iter().map(|e| e.id).collect();
            prop_assert_eq!(got, brute);
            // … comes out strictly id-ascending (the planner reads its
            // trie off adjacent pairs), and every entry describes its slot.
            prop_assert!(audience.windows(2).all(|w| w[0].id < w[1].id));
            for e in &audience {
                let s = &dir.slots()[e.slot as usize];
                prop_assert_eq!(
                    (e.id, e.level, e.addr, true),
                    (s.id.raw(), s.level.value(), s.addr, s.alive)
                );
            }
        }

        /// After every join, leave and level shift the kept trie equals one
        /// rebuilt from the columns, and plans — for a live subject and for
        /// the id just removed — the reference planner's deliveries over the
        /// extracted audience, field for field and in order.
        #[test]
        fn kept_trie_plans_like_the_reference_planner(ops in arb_mixed_ops()) {
            let mut dir = Directory::new();
            let mut live: Vec<u128> = Vec::new();
            for (op, pick) in ops {
                let mut subjects = Vec::new();
                match op {
                    Op::Join(id, level) => {
                        if dir.get(NodeId(id)).is_none() {
                            dir.join(NodeId(id), id as u32 ^ 0x9E37, Level::new(level), 500.0, 1e6);
                            live.push(id);
                        }
                    }
                    Op::Leave(i) => {
                        if !live.is_empty() {
                            let id = live.swap_remove(i % live.len());
                            dir.leave(NodeId(id));
                            subjects.push(id);
                        }
                    }
                    Op::Shift(i, level) => {
                        if !live.is_empty() {
                            dir.change_level(NodeId(live[i % live.len()]), Level::new(level));
                        }
                    }
                }
                dir.check_invariants();
                if !live.is_empty() {
                    subjects.push(live[pick % live.len()]);
                }
                for subject in subjects {
                    let plans = both_plans(&mut dir, NodeId(subject));
                    prop_assert_eq!(plans.kept, plans.reference, "subject {}", NodeId(subject));
                    for (charged, expected) in plans.charges {
                        prop_assert_eq!(charged, expected, "charges for subject {}", NodeId(subject));
                    }
                }
            }
        }

        /// `join_all` leaves what joining its nodes one by one leaves —
        /// every column, counter and slot — on an empty directory and on
        /// one that has seen joins and leaves.
        #[test]
        fn join_all_equals_repeated_join(
            earlier in proptest::collection::vec((any::<u128>(), 0u8..6), 0..40),
            batch in proptest::collection::vec((any::<u128>(), 0u8..6), 0..160),
        ) {
            let mut seen = std::collections::BTreeSet::new();
            let mut distinct = |nodes: Vec<(u128, u8)>| -> Vec<(u128, u8)> {
                nodes.into_iter().filter(|&(id, _)| seen.insert(id)).collect()
            };
            let (earlier, batch) = (distinct(earlier), distinct(batch));
            let args = |&(id, level): &(u128, u8)| {
                (NodeId(id), !id as u32, Level::new(level), 500.0 + level as f64, 1e6)
            };
            let mut one_by_one = Directory::new();
            for node in &earlier {
                let (id, addr, level, threshold_bps, bandwidth_bps) = args(node);
                one_by_one.join(id, addr, level, threshold_bps, bandwidth_bps);
            }
            // Dead slots, so that slot numbers and column positions differ.
            for &(id, _) in earlier.iter().step_by(3) {
                one_by_one.leave(NodeId(id));
            }
            // Traffic on the survivors, which `join_all` must carry over.
            if let Some(&(subject, _)) = earlier.first() {
                if let Some(root) = one_by_one.random_top_for(NodeId(subject), |_| 0) {
                    let charge = Charge { event_bits: 1_000, ack_bits: 1, measuring: true };
                    one_by_one.plan(NodeId(subject), root, 0, 0, charge, |_, _| 1, |_| {});
                }
            }
            let mut batched = one_by_one.clone();
            for node in &batch {
                let (id, addr, level, threshold_bps, bandwidth_bps) = args(node);
                one_by_one.join(id, addr, level, threshold_bps, bandwidth_bps);
            }
            batched.join_all(batch.iter().map(args));
            batched.check_invariants();
            prop_assert_eq!(&batched.all, &one_by_one.all);
            prop_assert_eq!(&batched.levels, &one_by_one.levels);
            prop_assert_eq!(&batched.level_counts, &one_by_one.level_counts);
            // `Member` and `SlotData` have no `PartialEq`; `Debug` prints
            // every field, floats exactly.
            prop_assert_eq!(format!("{:?}", batched.members), format!("{:?}", one_by_one.members));
            prop_assert_eq!(format!("{:?}", batched.slots), format!("{:?}", one_by_one.slots));
            for m in &batched.members {
                prop_assert_eq!(batched.traffic(m.slot), one_by_one.traffic(m.slot));
            }
        }

        /// part_of always returns the strongest covering eigenstring.
        #[test]
        fn part_of_is_minimal_cover(ids in proptest::collection::vec((any::<u128>(), 0u8..5), 1..40)) {
            let mut dir = Directory::new();
            for &(id, l) in &ids {
                if dir.get(NodeId(id)).is_none() {
                    dir.join(NodeId(id), 0, Level::new(l), 500.0, 1e6);
                }
            }
            for &(id, _) in &ids {
                let (top_level, p) = dir.part_of(NodeId(id)).expect("own eigenstring covers");
                prop_assert!(p.contains(NodeId(id)));
                prop_assert_eq!(p.len(), top_level.value());
                // Nothing stronger covers it.
                for l in 0..top_level.value() {
                    prop_assert_eq!(
                        dir.count_level_prefix(l, NodeId(id).prefix(l)),
                        0,
                        "stronger cover exists at level {}", l
                    );
                }
            }
        }
    }
}
