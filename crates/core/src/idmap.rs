//! An id-keyed map with O(1) lookups, under the dedup horizon and the
//! peer list.
//!
//! Every §4.2 multicast delivery looks its subject up twice: in the
//! dedup horizon (`Dedup::admit`) and in the peer list
//! ([`PeerList::update`](crate::peer_list::PeerList::update)). In a
//! `BTreeMap` of a few thousand ids each lookup is a descent through
//! several cold nodes, on one of hundreds of machines. [`IdMap`] keeps
//! its items dense in a `Vec` and finds them through an open-addressing
//! index of slot numbers: linear probing at a load of at most ½,
//! backward-shift deletion (no tombstones), and `swap_remove` of the
//! items with the moved one re-pointed.
//!
//! The hash mixes both 64-bit halves of the id under a key. A node keys
//! its maps from its own seed ([`IdMap::with_key`]), so the same seed
//! and operations leave the same slot order, while ids crafted to
//! share one node's index cells (a multicast subject is whatever a
//! sender names) need that node's seed. Slot order is a product of the
//! key and the operation history, not of the ids alone, so the one walk
//! in it is [`IdMap::iter_unordered`], and the audit lint's
//! `hash-collections` rule makes each call site say why the order
//! cannot reach an output. Everything else is a lookup by id.

use crate::id::NodeId;

/// An index cell that names no item.
const EMPTY: u32 = u32::MAX;

/// A map from [`NodeId`] to `V` with expected O(1) `get`, `insert` and
/// `remove`, and no iteration in id order.
#[derive(Clone)]
pub struct IdMap<V> {
    /// The entries, dense, in slot order.
    items: Vec<(NodeId, V)>,
    /// Open-addressing table of slot numbers into `items` ([`EMPTY`] for
    /// none): a power of two long, at least twice `items.len()`, or empty
    /// before the first insert.
    index: Vec<u32>,
    /// The hash key, mixed from the seed given to [`IdMap::with_key`].
    key: u64,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self::with_key(0)
    }
}

impl<V> IdMap<V> {
    /// An empty map whose hash is keyed by `seed` (any value; it is
    /// mixed first; `default()` takes seed 0). Which key a map has
    /// changes only its slot order. It allocates on the first insert.
    pub fn with_key(seed: u64) -> Self {
        IdMap {
            items: Vec::new(),
            index: Vec::new(),
            key: mix(seed),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The value of `id`, if present.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&V> {
        let pos = self.find(id).ok()?;
        Some(&self.items[self.index[pos] as usize].1)
    }

    /// The value of `id`, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut V> {
        let pos = self.find(id).ok()?;
        Some(&mut self.items[self.index[pos] as usize].1)
    }

    /// Whether `id` has an entry.
    #[inline]
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.find(id).is_ok()
    }

    /// Sets the value of `id`, returning the one it replaces.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        match self.find_or_make_room(id) {
            Ok(pos) => {
                let slot = self.index[pos] as usize;
                Some(std::mem::replace(&mut self.items[slot].1, value))
            }
            Err(pos) => {
                self.push(pos, id, value);
                None
            }
        }
    }

    /// The value of `id`, mutably, first inserting `make()` when absent.
    pub fn get_or_insert_with(&mut self, id: NodeId, make: impl FnOnce() -> V) -> &mut V {
        let slot = match self.find_or_make_room(id) {
            Ok(pos) => self.index[pos] as usize,
            Err(pos) => self.push(pos, id, make()),
        };
        &mut self.items[slot].1
    }

    /// Removes the entry of `id`, returning its value. The last item
    /// moves into the freed slot.
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let pos = self.find(id).ok()?;
        let slot = self.index[pos];
        self.unlink(pos);
        let (_, value) = self.items.swap_remove(slot as usize);
        if let Some(&(moved, _)) = self.items.get(slot as usize) {
            // The old last item: its cell still names the slot it left.
            let last = self.items.len() as u32;
            let mut at = self.home(moved);
            while self.index[at] != last {
                debug_assert_ne!(self.index[at], EMPTY, "{moved:?} has no cell");
                at = self.next(at);
            }
            self.index[at] = slot;
        }
        Some(value)
    }

    /// Every entry, in slot order: an artefact of the operation history,
    /// not of the ids. A caller must not let this order reach an output
    /// (the audit lint asks each call site to say why it does not).
    // audit: ordered — the definition; each caller answers for its use.
    pub fn iter_unordered(&self) -> std::slice::Iter<'_, (NodeId, V)> {
        self.items.iter()
    }

    /// The index cell holding `id` (`Ok`), or the empty cell ending its
    /// probe sequence (`Err`; `Err(0)` when there is no index yet).
    #[inline]
    fn find(&self, id: NodeId) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mut at = self.home(id);
        loop {
            match self.index[at] {
                EMPTY => return Err(at),
                slot if self.items[slot as usize].0 == id => return Ok(at),
                _ => at = self.next(at),
            }
        }
    }

    /// [`Self::find`], first growing the index when one more item would
    /// take the load past ½.
    fn find_or_make_room(&mut self, id: NodeId) -> Result<usize, usize> {
        if 2 * (self.items.len() + 1) > self.index.len() {
            self.grow();
        }
        self.find(id)
    }

    /// Appends an item, naming it in the empty index cell `pos`; returns
    /// its slot.
    fn push(&mut self, pos: usize, id: NodeId, value: V) -> usize {
        let slot = self.items.len();
        debug_assert!(slot < EMPTY as usize);
        self.index[pos] = slot as u32;
        // Grow by a quarter, not double: a 512-node system's level-0
        // lists hover at 511 pointers, and doubling there would hold up
        // to twice the list (`peak_rss_mb` +19 % on `fullsim_churn`).
        if slot == self.items.capacity() {
            self.items.reserve_exact(slot / 4 + 1);
        }
        self.items.push((id, value));
        slot
    }

    /// Empties index cell `hole`, shifting back every later cell of its
    /// cluster that may move there, so no probe sequence breaks.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut at = self.next(hole);
        loop {
            let slot = self.index[at];
            if slot == EMPTY {
                break;
            }
            // The cell may move back iff its home is not cyclically in
            // (hole, at]: it is at least as far from its home as the hole.
            let home = self.home(self.items[slot as usize].0);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = at;
            }
            at = self.next(at);
        }
        self.index[hole] = EMPTY;
    }

    /// Doubles the index (8 cells at first) and re-places every item.
    fn grow(&mut self) {
        self.index = vec![EMPTY; (2 * self.index.len()).max(8)];
        for (slot, &(id, _)) in self.items.iter().enumerate() {
            let mut at = self.home(id);
            while self.index[at] != EMPTY {
                at = self.next(at);
            }
            self.index[at] = slot as u32;
        }
    }

    #[inline]
    fn home(&self, id: NodeId) -> usize {
        hash(id, self.key) as usize & (self.index.len() - 1)
    }

    #[inline]
    fn next(&self, at: usize) -> usize {
        (at + 1) & (self.index.len() - 1)
    }
}

/// Two folded multiplies: the high half under the key, then that with
/// the low half. Each product has an odd constant as one factor, so it
/// is zero only for one input word (the high half equal to the key, or
/// the low half equal to the first round), never for a whole half of
/// the id. Ids that differ only in their top bits (the tests'
/// `(i + 1) << 100`) or only in their bottom bits land far apart.
#[inline]
fn hash(id: NodeId, key: u64) -> u64 {
    let (hi, lo) = ((id.0 >> 64) as u64, id.0 as u64);
    fold(
        fold(hi ^ key, 0x243F_6A88_85A3_08D3) ^ lo,
        0x1319_8A2E_0370_7345,
    )
}

/// The 128-bit product of `x` and `k`, its halves XORed together.
#[inline]
fn fold(x: u64, k: u64) -> u64 {
    let product = u128::from(x) * u128::from(k);
    (product >> 64) as u64 ^ product as u64
}

/// The SplitMix64 finalizer: turns a seed (often a small integer) into
/// a key with every bit in play.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shown as a map in id order, like a `BTreeMap`, so no slot order
/// reaches a `Debug` output.
impl<V: std::fmt::Debug> std::fmt::Debug for IdMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sorted: Vec<&(NodeId, V)> = self.items.iter().collect();
        sorted.sort_unstable_by_key(|&&(id, _)| id);
        f.debug_map()
            .entries(sorted.into_iter().map(|(id, v)| (id, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The map's own invariants: the index is a power of two at least
    /// twice the items, names every slot exactly once, and every item
    /// is reachable from its home without crossing an empty cell.
    fn well_formed<V>(map: &IdMap<V>) -> bool {
        if map.index.is_empty() {
            return map.items.is_empty();
        }
        let mut named = vec![0u32; map.items.len()];
        for &slot in map.index.iter().filter(|&&s| s != EMPTY) {
            match named.get_mut(slot as usize) {
                Some(n) => *n += 1,
                None => return false,
            }
        }
        map.index.len().is_power_of_two()
            && 2 * map.items.len() <= map.index.len()
            && named.iter().all(|&n| n == 1)
            && map.items.iter().all(|&(id, _)| map.find(id).is_ok())
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u128, u32),
        Upsert(u128, u32),
        Remove(u128),
        Get(u128),
    }

    /// Ids drawn from a small pool so operations meet, in three
    /// families: ids sharing their low 64 bits, ids sharing their high
    /// 64 bits (so each half of the hash alone tells a family apart),
    /// and `(i + 1) << 100` ids that differ only in their top bits.
    fn pool_id(pick: u8) -> u128 {
        let i = u128::from(pick % 48);
        match pick % 3 {
            0 => (i << 64) | 0xDEAD_BEEF,
            1 => (0xFEED_u128 << 64) | i,
            _ => (i + 1) << 100,
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u32>()).prop_map(|(p, v)| Op::Insert(pool_id(p), v)),
            (any::<u8>(), any::<u32>()).prop_map(|(p, v)| Op::Upsert(pool_id(p), v)),
            any::<u8>().prop_map(|p| Op::Remove(pool_id(p))),
            any::<u8>().prop_map(|p| Op::Remove(pool_id(p))),
            any::<u8>().prop_map(|p| Op::Get(pool_id(p))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Insert, upsert, remove and get agree with a `BTreeMap` at
        /// every step, through growth and through removals inside
        /// collision chains, and the same entries are held at the end.
        #[test]
        fn agrees_with_a_btree_map(
            key in any::<u64>(),
            ops in proptest::collection::vec(arb_op(), 1..400),
        ) {
            let mut map = IdMap::with_key(key);
            let mut model = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        prop_assert_eq!(map.insert(NodeId(id), v), model.insert(id, v));
                    }
                    Op::Upsert(id, v) => {
                        *map.get_or_insert_with(NodeId(id), || v) ^= 1;
                        *model.entry(id).or_insert(v) ^= 1;
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(map.remove(NodeId(id)), model.remove(&id));
                    }
                    Op::Get(id) => {
                        prop_assert_eq!(map.get(NodeId(id)), model.get(&id));
                        prop_assert_eq!(map.contains_key(NodeId(id)), model.contains_key(&id));
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert!(well_formed(&map));
            }
            let mut held: Vec<(u128, u32)> =
                map.iter_unordered().map(|&(id, v)| (id.0, v)).collect();
            held.sort_unstable();
            prop_assert!(held.into_iter().eq(model.into_iter()));
        }
    }

    #[test]
    fn grows_past_many_ids_and_empties_again() {
        let mut map = IdMap::default();
        let id = |i: u128| NodeId((i + 1) << 100);
        for i in 0..5_000 {
            assert_eq!(map.insert(id(i), i), None);
        }
        assert!(well_formed(&map));
        assert_eq!(map.index.len(), 16_384);
        for i in (0..5_000).rev().step_by(2) {
            assert_eq!(map.remove(id(i)), Some(i));
        }
        for i in 0..5_000 {
            assert_eq!(map.get(id(i)).copied(), (i % 2 == 0).then_some(i));
        }
        assert!(well_formed(&map));
        for i in (0..5_000).step_by(2) {
            assert_eq!(map.remove(id(i)), Some(i));
        }
        assert!(map.is_empty() && well_formed(&map));
        assert!(map.index.iter().all(|&s| s == EMPTY));
    }

    /// The most cells any item's probe from its home crosses.
    fn longest_probe<V>(map: &IdMap<V>) -> usize {
        let mask = map.index.len() - 1;
        let cells = map.index.iter().enumerate();
        let held = cells.filter(|&(_, &slot)| slot != EMPTY);
        let home = |slot: u32| map.home(map.items[slot as usize].0);
        held.map(|(at, &slot)| (at.wrapping_sub(home(slot)) & mask) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Under several keys, structured id families probe about as far as
    /// random ids (which read 19–27 cells at this size and load; one
    /// cluster would read 4 096): ids sharing their low bits, their high bits, or
    /// differing in their top bits alone; the halves that zeroed the
    /// product of a single-multiply `(hi ^ C1) · (lo ^ C2)` hash; and
    /// high halves equal to the key (the first round's zero).
    #[test]
    fn the_hash_spreads_ids_that_differ_in_one_half() {
        type Family = fn(u128, u64) -> u128;
        let families: [(&str, Family); 7] = [
            ("mixed", |i, _| (u128::from(mix(i as u64)) << 64) | i),
            ("top bits", |i, _| (i + 1) << 100),
            ("shared low half", |i, _| (i << 64) | 0xDEAD_BEEF),
            ("shared high half", |i, _| (0xFEED << 64) | i),
            ("high half C1", |i, _| (0x243F_6A88_85A3_08D3 << 64) | i),
            ("low half C2", |i, _| (i << 64) | 0x1319_8A2E_0370_7344),
            ("high half = key", |i, key| {
                (u128::from(key) << 64) | (i * 7)
            }),
        ];
        for seed in [0, 1, 0x5EED, u64::MAX] {
            for (name, family) in &families {
                let mut map = IdMap::with_key(seed);
                for i in 0..4_096 {
                    map.insert(NodeId(family(i, mix(seed))), ());
                }
                let longest = longest_probe(&map);
                assert!(
                    longest <= 40,
                    "seed {seed}, {name}: a probe crosses {longest} cells"
                );
            }
        }
    }

    /// Ids crafted against one key share a cell under it (the first
    /// round cancelled by the low half), and spread under another: the
    /// key is what keeps a sender who does not know it from piling
    /// subjects into one probe cluster.
    #[test]
    fn a_collision_family_for_one_key_spreads_under_another() {
        let crafted = |seed: u64, i: u128| {
            let hi = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let lo = fold(hi ^ mix(seed), 0x243F_6A88_85A3_08D3);
            NodeId((u128::from(hi) << 64) | u128::from(lo))
        };
        let mut target = IdMap::with_key(1);
        let mut other = IdMap::with_key(2);
        for i in 0..512 {
            target.insert(crafted(1, i), ());
            other.insert(crafted(1, i), ());
        }
        assert_eq!(longest_probe(&target), 512);
        let longest = longest_probe(&other);
        assert!(longest <= 40, "a probe crosses {longest} cells");
    }

    #[test]
    fn debug_lists_entries_in_id_order() {
        let mut map = IdMap::default();
        for i in [5u128, 1, 3] {
            map.insert(NodeId(i), i);
        }
        let mut tree = BTreeMap::new();
        for i in [5u128, 1, 3] {
            tree.insert(NodeId(i), i);
        }
        assert_eq!(format!("{map:?}"), format!("{tree:?}"));
    }
}
