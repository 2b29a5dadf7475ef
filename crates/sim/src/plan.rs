//! Per-event multicast tree planning over an extracted audience set.
//!
//! Oracle mode plans each event's entire dissemination tree in one pass
//! over the (sorted) audience array instead of simulating every hop as a
//! discrete event. The §4.2 recursion dissects the id-sorted array bit by
//! bit, which is a walk down the compressed binary trie of the ids: every
//! range it hands on is one subtree, and target selection ("highest level,
//! smallest id") asks for a subtree's minimum. [`Rmq::build`] makes the
//! trie, minima included, in one linear stack pass; the planner descends
//! it, accumulating latency + processing per hop. The result is
//! bit-identical to `peerwindow_core::multicast::plan_tree` over a
//! consistent peer list (asserted by tests), at a cost of O(A) per event
//! instead of O(A · levels · log N) heap events.

use crate::directory::AudienceEntry;

/// A [`Split`] side that is a single audience entry. Split 0 does not
/// exist (a split lies between two entries), so its index is free.
const LEAF: u32 = 0;

/// Trie node `i`, `1 <= i < n`: entries `i - 1` and `i` first differ at
/// `bit`, and nothing nearer the root parts them. Side 0 (left) holds the
/// ids with that bit clear and is entry `i - 1` alone where `child` says
/// `LEAF`; side 1 holds the ids with it set, entry `i` alone if `LEAF`.
#[derive(Clone, Copy, Default)]
struct Split {
    child: [u32; 2],
    /// Per side its strongest (lowest `level`) entry, among equals the one
    /// with the smallest index (= smallest id, the array is id-sorted).
    best: [u32; 2],
    level: [u8; 2],
    bit: u8,
}

/// Range-minimum answers over `(level, index)` keys for the only ranges
/// the planner asks about, the subtrees of the id-sorted audience's binary
/// trie (the Cartesian tree of the common-prefix lengths of adjacent ids).
/// Buffers — the planner's work stack included — are reused across events.
#[derive(Default)]
pub struct Rmq {
    /// `splits[i]` for `1 <= i < n`; slot 0 is unused, see [`LEAF`].
    splits: Vec<Split>,
    /// The split with the smallest bit; `LEAF` below two entries.
    root: u32,
    /// While building: the splits whose side 1 is still open, bits ascending.
    spine: Vec<u32>,
    /// The planner's pending sub-trees: (holder idx, subtree, t, depth).
    stack: Vec<(usize, u32, u64, u32)>,
}

impl Rmq {
    /// Empty trie (build before use).
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)builds over `audience`, which must be strictly id-ascending.
    pub fn build(&mut self, audience: &[AudienceEntry]) {
        let n = audience.len();
        // No clearing: every split below `n` is written whole before it is read.
        self.splits.resize(n.max(1), Split::default());
        self.spine.clear();
        self.root = LEAF;
        // Split `n` is a sentinel above the root: it closes what is open.
        for i in 1..=n {
            let bit = match audience.get(i) {
                Some(next) => {
                    debug_assert!(audience[i - 1].id < next.id, "audience not id-ascending");
                    (audience[i - 1].id ^ next.id).leading_zeros() as u8
                }
                None => 0,
            };
            // Every open split at this bit or deeper lies wholly left of
            // split `i` and ends with entry `i - 1`: pop them, innermost
            // first, each one's side 1 being what was closed before it. The
            // outermost becomes `i`'s side 0. (Two splits of one range never
            // share a bit: sorted ids cross from 0 to 1 at a bit once.)
            let (mut closed, mut best, mut level) = (LEAF, i as u32 - 1, audience[i - 1].level);
            while let Some(&top) = self.spine.last() {
                let s = &mut self.splits[top as usize];
                if s.bit < bit {
                    break;
                }
                self.spine.pop();
                (s.best[1], s.level[1]) = (best, level);
                let side = (s.level[1] < s.level[0]) as usize; // a tie stays left
                (closed, best, level) = (top, s.best[side], s.level[side]);
            }
            if i == n {
                self.root = closed;
            } else {
                if let Some(&parent) = self.spine.last() {
                    self.splits[parent as usize].child[1] = i as u32;
                }
                self.splits[i] = Split {
                    child: [closed, LEAF],
                    best: [best, 0],
                    level: [level, 0],
                    bit,
                };
                self.spine.push(i as u32);
            }
        }
    }
}

/// One planned delivery.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// Index of the sender in the audience array, or `usize::MAX` for the
    /// report hop into the root.
    pub parent: usize,
    /// Index of the receiver.
    pub child: usize,
    /// Time (µs) at which the receiver gets the event.
    pub at_us: u64,
    /// Range length the receiver becomes responsible for.
    pub step: u8,
    /// Tree depth (root's children = 1).
    pub depth: u32,
}

/// Plans the full tree for an event whose sorted `audience` excludes the
/// subject. `root_idx` is the initiating top node's index, `root_step` its
/// level — every audience id must share the root's first `root_step` bits
/// — and `t_root` the time it holds the event. `latency(parent_idx,
/// child_idx)` supplies one-way latency between two audience positions;
/// `processing_us` is the §5.1 per-hop compute delay. Calls `on_deliver`
/// once per receiver in depth-first send order.
#[allow(clippy::too_many_arguments)]
pub fn plan_event_indexed<L, F>(
    audience: &[AudienceEntry],
    rmq: &mut Rmq,
    root_idx: usize,
    root_step: u8,
    t_root: u64,
    processing_us: u64,
    mut latency: L,
    mut on_deliver: F,
) where
    L: FnMut(usize, usize) -> u64,
    F: FnMut(&Delivery),
{
    if audience.is_empty() {
        return;
    }
    rmq.build(audience);
    let Rmq {
        splits,
        root,
        stack,
        ..
    } = rmq;
    // The root split has the smallest bit of all.
    debug_assert!(
        *root == LEAF || splits[*root as usize].bit >= root_step,
        "audience ids differ within the root's first {root_step} bits"
    );
    stack.push((root_idx, *root, t_root, 0));
    while let Some((y, mut node, t, depth)) = stack.pop() {
        // Down from the subtree `y` answers for to `y`'s own leaf: at each
        // split the other side gets one copy, through its strongest entry.
        while node != LEAF {
            let s = &splits[node as usize];
            let side = (y >= node as usize) as usize;
            let (keep, sibling) = (s.child[side], s.child[1 - side]);
            debug_assert!(
                keep != LEAF || y == node as usize - 1 + side,
                "holder outside its subtree"
            );
            let child = s.best[1 - side] as usize;
            let t_child = t + processing_us + latency(y, child);
            let d = Delivery {
                parent: y,
                child,
                at_us: t_child,
                step: s.bit + 1,
                depth: depth + 1,
            };
            on_deliver(&d);
            if sibling != LEAF {
                stack.push((child, sibling, t_child, depth + 1));
            }
            node = keep;
        }
    }
}

/// [`plan_event_indexed`] with latency asked by slot: `latency(a_slot,
/// b_slot)`, for callers that keep per-node data in slot order.
#[allow(clippy::too_many_arguments)]
pub fn plan_event<L, F>(
    audience: &[AudienceEntry],
    rmq: &mut Rmq,
    root_idx: usize,
    root_step: u8,
    t_root: u64,
    processing_us: u64,
    mut latency: L,
    on_deliver: F,
) where
    L: FnMut(u32, u32) -> u64,
    F: FnMut(&Delivery),
{
    plan_event_indexed(
        audience,
        rmq,
        root_idx,
        root_step,
        t_root,
        processing_us,
        |parent, child| latency(audience[parent].slot, audience[child].slot),
        on_deliver,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerwindow_core::prelude::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn audience_from(members: &[(u128, u8)], subject: u128) -> Vec<AudienceEntry> {
        let mut v: Vec<AudienceEntry> = members
            .iter()
            .enumerate()
            .filter(|(_, &(id, l))| {
                id != subject
                    && NodeIdentity::new(NodeId(id), Level::new(l)).covers(NodeId(subject))
            })
            .map(|(slot, &(id, l))| AudienceEntry {
                id,
                level: l,
                slot: slot as u32,
                addr: slot as u32,
            })
            .collect();
        v.sort_unstable_by_key(|e| e.id);
        v
    }

    /// The planner this module ran before the trie, kept as the reference:
    /// a sparse-table range-minimum over `(level, index)` rebuilt per
    /// event, and one `partition_point` over the ids per split.
    #[derive(Default)]
    struct SparseRmq {
        n: usize,
        /// `table[k][i]` = argmin over `[i, i + 2^k)`.
        table: Vec<Vec<u32>>,
        levels: Vec<u8>,
    }

    impl SparseRmq {
        fn build(&mut self, audience: &[AudienceEntry]) {
            let n = audience.len();
            self.n = n;
            self.levels.clear();
            self.levels.extend(audience.iter().map(|e| e.level));
            let k_max = if n <= 1 {
                1
            } else {
                usize::BITS as usize - (n - 1).leading_zeros() as usize
            };
            if self.table.len() < k_max {
                self.table.resize_with(k_max, Vec::new);
            }
            let t0 = &mut self.table[0];
            t0.clear();
            t0.extend(0..n as u32);
            for k in 1..k_max {
                let half = 1usize << (k - 1);
                let len = n.saturating_sub((1 << k) - 1);
                // Split to appease the borrow checker: read level k-1, write k.
                let (lo, hi) = self.table.split_at_mut(k);
                let prev = &lo[k - 1];
                let cur = &mut hi[0];
                cur.clear();
                for i in 0..len {
                    let a = prev[i];
                    let b = prev[i + half];
                    cur.push(if self.levels[a as usize] <= self.levels[b as usize] {
                        a
                    } else {
                        b
                    });
                }
            }
        }

        /// Argmin over `[lo, hi)`; `None` when the range is empty.
        fn argmin(&self, lo: usize, hi: usize) -> Option<usize> {
            if lo >= hi || hi > self.n {
                return None;
            }
            let len = hi - lo;
            if len == 1 {
                return Some(lo);
            }
            let k = usize::BITS as usize - 1 - len.leading_zeros() as usize;
            let a = self.table[k][lo];
            let b = self.table[k][hi - (1 << k)];
            // Tie-break: smaller level wins; equal levels → smaller index
            // (= smaller id, the array is id-sorted).
            Some(if self.levels[a as usize] < self.levels[b as usize] {
                a as usize
            } else if self.levels[b as usize] < self.levels[a as usize] {
                b as usize
            } else {
                a.min(b) as usize
            })
        }
    }

    fn plan_event_reference(
        audience: &[AudienceEntry],
        root_idx: usize,
        root_step: u8,
        t_root: u64,
        processing_us: u64,
        mut latency: impl FnMut(usize, usize) -> u64,
        mut on_deliver: impl FnMut(&Delivery),
    ) {
        if audience.is_empty() {
            return;
        }
        let mut rmq = SparseRmq::default();
        rmq.build(audience);
        let mut stack = vec![(root_idx, 0, audience.len(), root_step, t_root, 0)];
        while let Some((y, mut lo, mut hi, mut s, t, depth)) = stack.pop() {
            let y_id = NodeId(audience[y].id);
            debug_assert!(lo <= y && y < hi, "holder outside its slice");
            while hi - lo > 1 && s < 128 {
                // Split [lo, hi) — all ids share y's first s bits — by bit s.
                let boundary = y_id.prefix(s).child(true).range_start().raw();
                let mid = lo + audience[lo..hi].partition_point(|e| e.id < boundary);
                let (flip_lo, flip_hi, keep_lo, keep_hi) = if y_id.bit(s) {
                    (lo, mid, mid, hi)
                } else {
                    (mid, hi, lo, mid)
                };
                if let Some(child) = rmq.argmin(flip_lo, flip_hi) {
                    let t_child = t + processing_us + latency(y, child);
                    let d = Delivery {
                        parent: y,
                        child,
                        at_us: t_child,
                        step: s + 1,
                        depth: depth + 1,
                    };
                    on_deliver(&d);
                    stack.push((child, flip_lo, flip_hi, s + 1, t_child, depth + 1));
                }
                lo = keep_lo;
                hi = keep_hi;
                s += 1;
            }
        }
    }

    /// Ids that crowd the deep end of the trie: four bases that part only
    /// in their last byte, each spread over its low three bits.
    fn clustered_id() -> impl Strategy<Value = u128> {
        (0u64..4, 0u64..8).prop_map(|(base, low)| {
            0x5EED_0000_0000_0000_0000_0000_0000_0000 | (base << 6 | low) as u128
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The trie walk emits the reference planner's deliveries, field
        /// for field and in the same order, on any audience a directory
        /// can extract: every member shares `level` bits with the subject
        /// and the root is one of the strongest.
        #[test]
        fn planner_matches_reference_planner(
            subject in any::<u128>(),
            raw in proptest::collection::vec(
                (prop_oneof![any::<u128>(), clustered_id()], 0u8..7),
                1..=600,
            ),
            root_pick in any::<usize>(),
        ) {
            let mut audience: Vec<AudienceEntry> = raw
                .iter()
                .map(|&(tail, level)| {
                    let tail_mask = u128::MAX >> level;
                    (subject & !tail_mask | tail & tail_mask, level)
                })
                .filter(|&(id, _)| id != subject)
                .enumerate()
                .map(|(i, (id, level))| AudienceEntry { id, level, slot: i as u32, addr: i as u32 })
                .collect();
            audience.sort_unstable_by_key(|e| e.id);
            audience.dedup_by_key(|e| e.id);
            prop_assume!(!audience.is_empty());
            let root_step = audience.iter().map(|e| e.level).min().expect("non-empty");
            let tops: Vec<usize> = (0..audience.len())
                .filter(|&i| audience[i].level == root_step)
                .collect();
            let root_idx = tops[root_pick % tops.len()];
            // Asymmetric, so a delivery with parent and child swapped shows.
            let latency = |parent: usize, child: usize| 1_000 * parent as u64 + child as u64;
            let key = |d: &Delivery| (d.parent, d.child, d.at_us, d.step, d.depth);
            let mut want = Vec::new();
            plan_event_reference(&audience, root_idx, root_step, 50, 7, latency, |d| {
                want.push(key(d))
            });
            let mut got = Vec::new();
            plan_event_indexed(
                &audience,
                &mut Rmq::new(),
                root_idx,
                root_step,
                50,
                7,
                latency,
                |d| got.push(key(d)),
            );
            prop_assert_eq!(want.len(), audience.len() - 1);
            prop_assert_eq!(got, want);
        }
    }

    /// A trie rebuilt over a smaller audience keeps nothing of the larger
    /// one it held before.
    #[test]
    fn rmq_reuse_across_sizes() {
        let mk = |n: usize| -> Vec<AudienceEntry> {
            (0..n)
                .map(|i| AudienceEntry {
                    id: i as u128,
                    level: (i % 3) as u8,
                    slot: i as u32,
                    addr: i as u32,
                })
                .collect()
        };
        let edges = |rmq: &mut Rmq, audience: &[AudienceEntry]| {
            let mut edges = Vec::new();
            plan_event(
                audience,
                rmq,
                0,
                0,
                0,
                0,
                |_, _| 0,
                |d| edges.push((d.parent, d.child)),
            );
            edges
        };
        let mut rmq = Rmq::new();
        let large = mk(100);
        rmq.build(&large);
        // Ids 0..100 first part at bit 121 (64 = 1 << 6): the root's copy
        // into 64..100 goes to 66, the first level-0 entry there.
        assert_eq!(edges(&mut rmq, &large)[0], (0, 66));
        let small = mk(10);
        let reused = edges(&mut rmq, &small);
        assert_eq!(reused.len(), 9);
        assert_eq!(reused[0], (0, 9)); // 8 and 9 sit beyond bit 124; 9 is level 0
        assert_eq!(reused, edges(&mut Rmq::new(), &small));
        assert!(edges(&mut rmq, &[]).is_empty());
    }

    /// The planner must produce exactly the same edge set as the reference
    /// implementation in peerwindow-core over a consistent view.
    #[test]
    fn planner_matches_core_plan_tree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let members: Vec<(u128, u8)> = (0..400)
            .map(|_| (rng.gen::<u128>(), rng.gen_range(0..4u8)))
            .collect();
        // Reference peer list (top node view).
        let mut list = PeerList::new(Prefix::EMPTY);
        for &(id, l) in &members {
            list.insert(Pointer::new(NodeId(id), Addr(0), Level::new(l)));
        }
        let root = members.iter().find(|&&(_, l)| l == 0).unwrap().0;
        for trial in 0..10 {
            let subject = members[trial * 17].0;
            if subject == root {
                continue;
            }
            let reference: BTreeSet<(u128, u128, u8)> =
                plan_tree(&list, NodeId(root), 0, NodeId(subject))
                    .into_iter()
                    .map(|e| (e.from.raw(), e.to.id.raw(), e.step))
                    .collect();
            let audience = audience_from(&members, subject);
            let root_idx = audience
                .binary_search_by_key(&root, |e| e.id)
                .expect("root in audience");
            let mut rmq = Rmq::new();
            let mut got = BTreeSet::new();
            plan_event(
                &audience,
                &mut rmq,
                root_idx,
                0,
                0,
                0,
                |_, _| 0,
                |d| {
                    got.insert((audience[d.parent].id, audience[d.child].id, d.step));
                },
            );
            // Core's plan_tree excludes the subject but includes the root's
            // own deliveries; both reach audience \ {root, subject}.
            assert_eq!(got, reference, "trial {trial}");
        }
    }

    #[test]
    fn delivery_times_accumulate_latency_and_processing() {
        // Chain: 2 top nodes and one level-1 node; fixed latency 10, proc 1.
        let members = [
            (0x2000_0000_0000_0000_0000_0000_0000_0000u128, 0u8),
            (0x7000_0000_0000_0000_0000_0000_0000_0000u128, 0),
            (0xB000_0000_0000_0000_0000_0000_0000_0000u128, 1),
        ];
        let subject = 0xB800_0000_0000_0000_0000_0000_0000_0000u128;
        let audience = audience_from(&members, subject);
        assert_eq!(audience.len(), 3);
        let root_idx = audience
            .binary_search_by_key(&members[0].0, |e| e.id)
            .unwrap();
        let mut rmq = Rmq::new();
        let mut deliveries = Vec::new();
        plan_event(
            &audience,
            &mut rmq,
            root_idx,
            0,
            100,
            1,
            |_, _| 10,
            |d| deliveries.push(*d),
        );
        assert_eq!(deliveries.len(), 2);
        // Root (0010…) sends into the "1" half first: both remaining
        // members are there; strongest is the other top (0111…)? No:
        // 0111… is in the "0" half. The "1" half holds only the level-1
        // node → depth-1 delivery at 100+1+10.
        for d in &deliveries {
            assert_eq!(d.at_us, 111);
            assert_eq!(d.depth, 1);
        }
    }

    #[test]
    fn empty_audience_is_noop() {
        let mut rmq = Rmq::new();
        let mut called = false;
        plan_event(&[], &mut rmq, 0, 0, 0, 0, |_, _| 0, |_| called = true);
        assert!(!called);
    }
}
