//! The serving engine: high-QPS queries over published snapshots.
//!
//! [`select`](crate::select) answers the paper's §1/§3 queries directly
//! against a [`PeerList`](peerwindow_core::peer_list::PeerList) — correct,
//! but every call re-decodes every pointer's attached info and the caller
//! must hold the list (and therefore the protocol) still. This module is
//! the serving-layer version: it consumes the immutable
//! [`PeerSnapshot`]s the protocol publishes (`peerwindow_core::snapshot`)
//! and does all per-pointer work once per pointer *version*, so
//! steady-state queries are index lookups and a refresh costs what
//! changed.
//!
//! * [`PreparedSnapshot`] — one snapshot plus its decoded infos and
//!   indexes: sorted numeric columns, a string-equality index, the
//!   level order, the undecodable set, and the bloom filters packed by
//!   shape.
//! * [`QueryPlan`] — a reusable, snapshot-independent compiled query:
//!   holders plans precompute their [`BloomProbe`] once and reuse it
//!   across every snapshot and every pointer's filter.
//! * [`QueryEngine`] — ties a [`SnapshotReader`] to a lock-free
//!   [`Published`] cell of the latest [`PreparedSnapshot`]: a refresher
//!   thread calls [`QueryEngine::refresh`], any number of query threads
//!   call [`QueryEngine::prepared`] and execute plans without ever
//!   taking a lock.
//!
//! **Refresh is a patch.** [`QueryEngine::refresh`] derives the next
//! prepared snapshot from the one it is serving. One merge walk over the
//! two id-sorted pointer arrays finds the pointers both hold with the
//! same `(id, level, info bytes)`; those are *carried*: they share their
//! decoded [`InfoMap`] (an `Arc`) and keep every index entry, renumbered
//! from old position to new. Only the rest — joiners, and pointers whose
//! level or info changed — are decoded and sorted, and each index is
//! rebuilt by one linear pass that renumbers the carried entries and
//! merges the small sorted run of fresh ones in. The order survives the
//! renumbering because it is monotone (both arrays are id-sorted, so a
//! carried pointer's rank among carried pointers never changes) and
//! every index sorts on fields a carried pointer keeps: id, `(level,
//! id)`, `(value, id)`. Lists, columns and groups left empty are
//! dropped, so the result is structurally what building from nothing
//! gives — which is the same code, advancing from
//! [`PreparedSnapshot::empty`]. The served snapshot is never modified: a
//! reader holding an older `Arc<PreparedSnapshot>` keeps that epoch's
//! answers. The diff is against whatever is being served, so an engine
//! that skips epochs needs nothing special.
//!
//! **Holders sweeps packed rows.** A filter's probe positions depend
//! only on the probe and the filter's shape `(k, m)`, so bloom-bearing
//! pointers are grouped by shape with their filter bytes packed
//! row-major. A holders query computes the `k` `(byte, mask)` positions
//! once per group — the only divisions it does — and tests them row by
//! contiguous row; a pointer is not read before it is a hit.
//!
//! Every query here is *result-identical* to its [`select`](crate::select)
//! counterpart on the same list content — pinned by the differential
//! proptest below (patched indexes against a from-scratch reference
//! build, plans against `select`, over random operation sequences with
//! skipped epochs) and by proptests in `tests/` — so callers can move
//! from list-querying to snapshot-serving without behavioral drift.
//!
//! Decode failures are not swallowed: each prepared snapshot counts
//! pointers whose non-empty info decodes as neither an [`InfoMap`] nor a
//! bloom attachment, and the engine surfaces the total plus a
//! `DiagCode::InfoDecodeError` trace record per affected refresh.

use crate::bloom::{probe_positions, Bloom, BloomProbe, BloomView};
use crate::info::{InfoMap, Value};
use crate::select;
use bytes::Bytes;
use peerwindow_core::pointer::Pointer;
use peerwindow_core::snapshot::{PeerSnapshot, Published, SnapshotReader};
use peerwindow_trace::{CauseId, DiagCode, NodeTrace, TraceEventKind, TraceRecord};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What [`PreparedSnapshot::info`] answers for a pointer whose attachment
/// is empty or decodes as no [`InfoMap`].
static NO_INFO: InfoMap = InfoMap::new();

/// Remap entry of an old pointer the next epoch does not carry.
const GONE: u32 = u32::MAX;

/// A numeric column: `(value, pointer index)` ascending by value, then
/// index. NaN never enters one.
type Column = Vec<(f64, u32)>;

/// The exact-match string index: key → value → pointer indices,
/// ascending.
type StrIndex = BTreeMap<String, BTreeMap<String, Vec<u32>>>;

/// A filter's shape `(k, m)`: `k` probes over `m` bytes.
type Shape = (u32, usize);

/// The filters of one `(k, m)` population — `k` probes over `m` bytes,
/// the [`BloomView::parse`] reading of the attachment — packed for the
/// holders sweep.
#[derive(Debug, Default, PartialEq)]
struct BloomRows {
    /// Pointer indices, ascending.
    idxs: Vec<u32>,
    /// `idxs.len()` filters of `m` bytes each, row-major, index-parallel
    /// with `idxs`.
    rows: Vec<u8>,
}

impl BloomRows {
    fn push(&mut self, idx: u32, bits: &[u8]) {
        self.idxs.push(idx);
        self.rows.extend_from_slice(bits);
    }
}

/// A snapshot with all per-pointer work done up front: infos decoded,
/// numeric columns sorted, string values indexed, level order
/// materialized, bloom filters packed. Queries against a prepared
/// snapshot are allocation-light index walks.
///
/// Pointer indices are positions in `snap.pointers()`, which is sorted
/// by id: ascending index order *is* id order.
#[derive(Debug)]
pub struct PreparedSnapshot {
    snap: Arc<PeerSnapshot>,
    /// Decoded info per pointer (index-parallel with `snap.pointers()`),
    /// shared with every epoch that carries the pointer; `None` where
    /// the attachment is empty or not an `InfoMap` (served as the empty
    /// map, mirroring [`select::info_of`]).
    infos: Vec<Option<Arc<InfoMap>>>,
    /// Indices of pointers whose non-empty info decoded as neither an
    /// `InfoMap` nor a bloom attachment — foreign-attachment rot,
    /// surfaced not hidden. Ascending.
    undecodable: Vec<u32>,
    /// Pointer indices sorted by `(level value, id)` — the
    /// strongest-nodes order.
    by_level: Vec<u32>,
    /// Per-key numeric columns (the order [`select::k_smallest_by`]'s
    /// stable sort over an id-ordered scan produces).
    f64_cols: BTreeMap<String, Column>,
    /// No empty list and no empty value map is kept.
    str_index: StrIndex,
    /// Every pointer whose info parses as a serialized bloom filter (the
    /// [`BloomView::parse`] acceptance rule — identical to what
    /// [`select::probable_holders`] would consider), grouped by the
    /// filter's `(k, m)`.
    blooms: BTreeMap<Shape, BloomRows>,
}

/// Whether two attachments hold the same bytes: the same buffer (a
/// snapshot clones the list's `Bytes`, so an untouched pointer's is), or
/// equal content.
fn same_bytes(a: &Bytes, b: &Bytes) -> bool {
    (std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()) || a[..] == b[..]
}

fn cmp_entry(a: &(f64, u32), b: &(f64, u32)) -> CmpOrdering {
    // No NaN in a column, so `partial_cmp` is total here; ±0.0 compare
    // equal and tie by index like any other repeated value.
    a.0.partial_cmp(&b.0)
        .unwrap_or(CmpOrdering::Equal)
        .then(a.1.cmp(&b.1))
}

fn push_entry<T>(lists: &mut BTreeMap<String, Vec<T>>, key: &str, entry: T) {
    match lists.get_mut(key) {
        Some(list) => list.push(entry),
        None => {
            lists.insert(key.to_string(), vec![entry]);
        }
    }
}

/// Merges the sorted `run` into the sorted `list` in place; the two
/// share no element and `cmp` never answers `Equal` across them. Each
/// run entry is placed by binary search from the back and the entries
/// above it move up once, so the cost is one `memmove` of `list` plus
/// `run.len()` searches.
fn merge_run<T: Copy>(list: &mut Vec<T>, run: &[T], cmp: impl Fn(&T, &T) -> CmpOrdering) {
    let mut end = list.len();
    list.extend_from_slice(run);
    for (below, entry) in run.iter().enumerate().rev() {
        let pos = list[..end].partition_point(|x| cmp(x, entry) == CmpOrdering::Less);
        list.copy_within(pos..end, pos + below + 1);
        list[pos + below] = *entry;
        end = pos;
    }
}

/// The next epoch of one sorted index list: the entries of carried
/// pointers, re-indexed by `carry` (which keeps their order), with the
/// sorted `run` of fresh entries merged in. `None` if nothing is left.
fn patch_list<T: Copy>(
    was: &[T],
    run: &[T],
    carry: impl Fn(T) -> Option<T>,
    cmp: impl Fn(&T, &T) -> CmpOrdering,
) -> Option<Vec<T>> {
    let mut next = Vec::with_capacity(was.len() + run.len());
    next.extend(was.iter().filter_map(|&entry| carry(entry)));
    merge_run(&mut next, run, cmp);
    (!next.is_empty()).then_some(next)
}

/// [`patch_list`] for a `(k, m)` group: the rows of carried pointers are
/// copied over, the fresh ones copied in from their attachments.
fn patch_rows(
    m: usize,
    was: &BloomRows,
    run: Vec<(u32, &[u8])>,
    carry: impl Fn(u32) -> Option<u32>,
) -> Option<BloomRows> {
    let mut next = BloomRows::default();
    next.idxs.reserve(was.idxs.len() + run.len());
    next.rows.reserve((was.idxs.len() + run.len()) * m);
    let mut run = run.into_iter().peekable();
    for (bits, &i) in was.rows.chunks_exact(m).zip(&was.idxs) {
        let Some(idx) = carry(i) else { continue };
        while let Some((fresh, fresh_bits)) = run.next_if(|&(fresh, _)| fresh < idx) {
            next.push(fresh, fresh_bits);
        }
        next.push(idx, bits);
    }
    for (fresh, fresh_bits) in run {
        next.push(fresh, fresh_bits);
    }
    (!next.idxs.is_empty()).then_some(next)
}

/// The next epoch of a keyed family of index parts. `patch(key, was,
/// fresh)` makes a part from the old one (an empty one, under a key the
/// old epoch did not have) and its fresh entries; a part it answers
/// `None` for is dropped with its key, so the family is structurally
/// what a from-scratch build gives.
fn patch_family<K: Ord + Clone, V: Default, F: Default>(
    old: &BTreeMap<K, V>,
    mut fresh: BTreeMap<K, F>,
    patch: impl Fn(&K, &V, F) -> Option<V>,
) -> BTreeMap<K, V> {
    let mut next: BTreeMap<K, V> = old
        .iter()
        .filter_map(|(key, was)| {
            let part = patch(key, was, fresh.remove(key).unwrap_or_default())?;
            Some((key.clone(), part))
        })
        .collect();
    let nothing = V::default();
    next.extend(fresh.into_iter().filter_map(|(key, run)| {
        let part = patch(&key, &nothing, run)?;
        Some((key, part))
    }));
    next
}

/// Index entries of the pointers an epoch does not carry from the one
/// before it, each list in the order the index keeps it.
#[derive(Default)]
struct Fresh<'a> {
    idxs: Vec<u32>,
    undecodable: Vec<u32>,
    f64_cols: BTreeMap<String, Column>,
    str_index: StrIndex,
    blooms: BTreeMap<Shape, Vec<(u32, &'a [u8])>>,
}

impl<'a> Fresh<'a> {
    /// Decodes pointer `idx` and files its index entries; returns what
    /// `infos[idx]` holds. Called in ascending `idx` order.
    fn index(&mut self, idx: u32, p: &'a Pointer) -> Option<Arc<InfoMap>> {
        self.idxs.push(idx);
        // Bloom candidacy is independent of InfoMap decodability so the
        // batched holders path accepts exactly the filters the
        // per-pointer path accepts.
        let view = BloomView::parse(&p.info);
        if let Some(v) = view {
            self.blooms
                .entry((v.k(), v.bits().len()))
                .or_default()
                .push((idx, v.bits()));
        }
        let map = match select::try_info_of(p) {
            Ok(map) => map,
            Err(_) => {
                if view.is_none() {
                    self.undecodable.push(idx);
                }
                return None;
            }
        };
        for (key, value) in map.iter() {
            match value {
                // A NaN is not a measurement: the pointer is skipped
                // like one without the field (and a column with a NaN in
                // it has no sort order).
                Value::F64(v) if !v.is_nan() => push_entry(&mut self.f64_cols, key, (*v, idx)),
                // u64 counters are not coerced into numeric columns:
                // `InfoMap::get_f64` doesn't coerce either, and the
                // columns must answer exactly what select answers.
                Value::F64(_) | Value::U64(_) => {}
                Value::Str(s) => match self.str_index.get_mut(key) {
                    Some(by_value) => push_entry(by_value, s, idx),
                    None => {
                        let by_value = BTreeMap::from([(s.clone(), vec![idx])]);
                        self.str_index.insert(key.to_string(), by_value);
                    }
                },
            }
        }
        (!map.is_empty()).then(|| Arc::new(map))
    }
}

impl PreparedSnapshot {
    /// Prepares `snap` with no previous epoch to start from: every
    /// pointer is decoded and indexed. `O(n · info size + n log n)`.
    pub fn prepare(snap: Arc<PeerSnapshot>) -> Self {
        Self::empty().advance(snap)
    }

    /// A prepared view of the empty snapshot (what a fresh engine serves
    /// before the first publication).
    pub fn empty() -> Self {
        PreparedSnapshot {
            snap: Arc::new(PeerSnapshot::empty()),
            infos: Vec::new(),
            undecodable: Vec::new(),
            by_level: Vec::new(),
            f64_cols: BTreeMap::new(),
            str_index: BTreeMap::new(),
            blooms: BTreeMap::new(),
        }
    }

    /// The prepared form of `snap`, derived from this one (any earlier —
    /// or the same — state of the list; it need not be the epoch just
    /// before). Nothing of `self` is modified: readers holding it keep
    /// their epoch's answers.
    ///
    /// A pointer is *carried* when its `(id, level, info bytes)` are in
    /// both snapshots (`addr` and the refresh stamps feed no index), and
    /// *fresh* otherwise. Carried pointers keep their decoded info and
    /// their index entries, renumbered; only fresh ones are decoded and
    /// sorted. Both pointer arrays are id-sorted, so the old → new
    /// renumbering of carried pointers is strictly increasing, and every
    /// index order — id, `(level, id)`, `(value, id)` — is an order on
    /// fields a carried pointer keeps: a renumbered list is still
    /// sorted, and merging the sorted fresh entries in gives the list a
    /// from-scratch build would. Cost: one pass over both pointer
    /// arrays and each index, plus decode and sort of the fresh ones.
    fn advance(&self, snap: Arc<PeerSnapshot>) -> Self {
        let old = self.snap.pointers();
        let new = snap.pointers();
        let mut remap = vec![GONE; old.len()];
        let mut infos = Vec::with_capacity(new.len());
        let mut fresh = Fresh::default();
        let mut o = 0;
        for (idx, p) in new.iter().enumerate() {
            let idx = idx as u32;
            while old.get(o).is_some_and(|q| q.id < p.id) {
                o += 1;
            }
            match old.get(o) {
                Some(q) if q.id == p.id && q.level == p.level && same_bytes(&q.info, &p.info) => {
                    remap[o] = idx;
                    infos.push(self.infos[o].clone());
                }
                _ => infos.push(fresh.index(idx, p)),
            }
        }
        let carry = |i: u32| Some(remap[i as usize]).filter(|&idx| idx != GONE);
        let carry_entry = |(v, i): (f64, u32)| carry(i).map(|idx| (v, idx));
        let level_then_id = |a: &u32, b: &u32| {
            let level = |i: &u32| new[*i as usize].level.value();
            level(a).cmp(&level(b)).then(a.cmp(b))
        };
        fresh.idxs.sort_unstable_by(level_then_id);

        let undecodable =
            patch_list(&self.undecodable, &fresh.undecodable, carry, u32::cmp).unwrap_or_default();
        let by_level =
            patch_list(&self.by_level, &fresh.idxs, carry, level_then_id).unwrap_or_default();
        let f64_cols = patch_family(&self.f64_cols, fresh.f64_cols, |_, was, mut run| {
            run.sort_unstable_by(cmp_entry);
            patch_list(was, &run, carry_entry, cmp_entry)
        });
        let str_index = patch_family(&self.str_index, fresh.str_index, |_, was, runs| {
            let by_value = patch_family(was, runs, |_, was, run| {
                patch_list(was, &run, carry, u32::cmp)
            });
            (!by_value.is_empty()).then_some(by_value)
        });
        let blooms = patch_family(&self.blooms, fresh.blooms, |&(_, m), was, run| {
            patch_rows(m, was, run, carry)
        });

        PreparedSnapshot {
            snap,
            infos,
            undecodable,
            by_level,
            f64_cols,
            str_index,
            blooms,
        }
    }

    /// The underlying snapshot.
    #[inline]
    pub fn snapshot(&self) -> &Arc<PeerSnapshot> {
        &self.snap
    }

    /// Snapshot epoch (shorthand for `snapshot().epoch`).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// Number of pointers served.
    #[inline]
    pub fn len(&self) -> usize {
        self.snap.len()
    }

    /// Whether the snapshot holds no pointers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.snap.is_empty()
    }

    /// Pointers whose info decoded as neither schema (this snapshot
    /// only; the engine accumulates across refreshes).
    #[inline]
    pub fn decode_errors(&self) -> u64 {
        self.undecodable.len() as u64
    }

    /// The decoded info of pointer index `i` (empty map on decode
    /// failure, like [`select::info_of`]).
    pub fn info(&self, i: usize) -> &InfoMap {
        self.infos[i].as_deref().unwrap_or(&NO_INFO)
    }

    /// All pointers whose decoded info satisfies `pred` — the
    /// full-scan partner query, with decoding already paid.
    pub fn find_partners(&self, mut pred: impl FnMut(&Pointer, &InfoMap) -> bool) -> Vec<&Pointer> {
        self.snap
            .pointers()
            .iter()
            .zip(&self.infos)
            .filter(|(p, m)| pred(p, m.as_deref().unwrap_or(&NO_INFO)))
            .map(|(p, _)| p)
            .collect()
    }

    /// Partners whose string field `key` equals `value` exactly — the
    /// indexed fast path (`O(log n + hits)`). `limit` caps the result
    /// (id order, so it pages deterministically); pass `usize::MAX` for
    /// all matches.
    pub fn partners_eq(&self, key: &str, value: &str, limit: usize) -> Vec<&Pointer> {
        match self
            .str_index
            .get(key)
            .and_then(|by_value| by_value.get(value))
        {
            Some(idxs) => idxs
                .iter()
                .take(limit)
                .map(|&i| &self.snap.pointers()[i as usize])
                .collect(),
            None => Vec::new(),
        }
    }

    /// The `k` pointers with the smallest value of numeric field `key`
    /// (`O(k)` off the presorted column). A NaN value counts as no
    /// value.
    pub fn k_smallest_by(&self, key: &str, k: usize) -> Vec<&Pointer> {
        match self.f64_cols.get(key) {
            Some(col) => col
                .iter()
                .take(k)
                .map(|&(_, i)| &self.snap.pointers()[i as usize])
                .collect(),
            None => Vec::new(),
        }
    }

    /// Up to `k` pointers at the strongest levels (`O(k)` off the level
    /// order).
    pub fn strongest(&self, k: usize) -> Vec<&Pointer> {
        self.by_level
            .iter()
            .take(k)
            .map(|&i| &self.snap.pointers()[i as usize])
            .collect()
    }

    /// Pointers that *probably* hold the probed document, in id order:
    /// the batched bloom path. Per `(k, m)` group the probe's `k`
    /// `(byte, mask)` positions are computed once — the only divisions
    /// of the query — and tested against the group's packed filters,
    /// one contiguous row after another; no pointer is read before it
    /// is a hit.
    pub fn probable_holders_probe(&self, probe: BloomProbe) -> Vec<&Pointer> {
        let mut hits: Vec<u32> = Vec::new();
        let mut positions: Vec<(usize, u8)> = Vec::new();
        for (&(k, m), group) in &self.blooms {
            positions.clear();
            positions.extend(probe_positions(probe, k, m));
            for (bits, &i) in group.rows.chunks_exact(m).zip(&group.idxs) {
                if positions.iter().all(|&(byte, mask)| bits[byte] & mask != 0) {
                    hits.push(i);
                }
            }
        }
        // Each group's hits ascend; across groups they interleave.
        hits.sort_unstable();
        hits.iter()
            .map(|&i| &self.snap.pointers()[i as usize])
            .collect()
    }

    /// Convenience: hash `document` and run the batched holders query.
    pub fn probable_holders(&self, document: &[u8]) -> Vec<&Pointer> {
        self.probable_holders_probe(Bloom::probe(document))
    }
}

/// A compiled, snapshot-independent query: build once, execute against
/// every prepared snapshot the engine publishes. The payoff is in
/// [`QueryPlan::holders`], which hashes the document once at plan-build
/// time; the other variants pre-own their parameters so the hot path
/// does no allocation.
#[derive(Clone, Debug)]
pub enum QueryPlan {
    /// Partners whose string field `key` equals `value`.
    PartnersEq {
        /// Info field name.
        key: String,
        /// Required exact value.
        value: String,
        /// Result budget (`usize::MAX` for all matches).
        limit: usize,
    },
    /// The `k` pointers with the smallest numeric field `key`.
    KSmallest {
        /// Info field name.
        key: String,
        /// Result budget.
        k: usize,
    },
    /// Up to `k` pointers at the strongest levels.
    Strongest {
        /// Result budget.
        k: usize,
    },
    /// Probable holders of a document (probe precomputed).
    Holders {
        /// The document's precomputed probe set.
        probe: BloomProbe,
    },
}

impl QueryPlan {
    /// A holders plan for `document`, hashing it exactly once.
    pub fn holders(document: &[u8]) -> Self {
        QueryPlan::Holders {
            probe: Bloom::probe(document),
        }
    }

    /// Executes the plan against a prepared snapshot.
    pub fn execute<'s>(&self, ps: &'s PreparedSnapshot) -> Vec<&'s Pointer> {
        match self {
            QueryPlan::PartnersEq { key, value, limit } => ps.partners_eq(key, value, *limit),
            QueryPlan::KSmallest { key, k } => ps.k_smallest_by(key, *k),
            QueryPlan::Strongest { k } => ps.strongest(*k),
            QueryPlan::Holders { probe } => ps.probable_holders_probe(*probe),
        }
    }
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The serving engine: one node's [`SnapshotReader`] on the write side,
/// a lock-free [`Published`] cell of the latest [`PreparedSnapshot`] on
/// the read side.
///
/// Threading model: any number of query threads call [`Self::prepared`]
/// (wait-free load) and execute plans; one or more refresher threads
/// call [`Self::refresh`] (serialized internally) to fold newly
/// published protocol snapshots into prepared form. Queries never block
/// on a refresh in progress — they keep serving the previous epoch
/// until the swap.
#[derive(Debug)]
pub struct QueryEngine {
    source: SnapshotReader,
    prepared: Arc<Published<PreparedSnapshot>>,
    /// Cumulative decode errors across all refreshed epochs.
    decode_errors_total: AtomicU64,
    refresh_lock: Mutex<()>,
    diag: Mutex<NodeTrace>,
}

impl QueryEngine {
    /// Builds an engine over `source`, preparing its current snapshot
    /// immediately.
    pub fn new(source: SnapshotReader) -> Self {
        let first = PreparedSnapshot::prepare(source.load());
        let me = first.snapshot().me.id.raw();
        let mut trace = NodeTrace::new(me);
        trace.set_enabled(true);
        let engine = QueryEngine {
            source,
            decode_errors_total: AtomicU64::new(0),
            refresh_lock: Mutex::new(()),
            diag: Mutex::new(trace),
            prepared: Arc::new(Published::new(Arc::new(PreparedSnapshot::empty()))),
        };
        engine.install(first);
        engine
    }

    fn install(&self, ps: PreparedSnapshot) {
        let errs = ps.decode_errors();
        if errs > 0 {
            self.decode_errors_total.fetch_add(errs, Ordering::Relaxed);
            let mut diag = unpoison(self.diag.lock());
            diag.set_now(ps.snapshot().at_us);
            diag.emit(
                ps.snapshot().me.level.value(),
                TraceEventKind::Diag {
                    code: DiagCode::InfoDecodeError,
                },
                CauseId::NONE,
            );
        }
        self.prepared.publish(Arc::new(ps));
    }

    /// Folds the source's latest snapshot into prepared form if its
    /// epoch advanced past what we serve. Returns `true` when a new
    /// prepared snapshot was published. Concurrent callers are
    /// serialized; queries are never blocked.
    pub fn refresh(&self) -> bool {
        let _g = unpoison(self.refresh_lock.lock());
        let snap = self.source.load();
        let served = self.prepared.load();
        if snap.epoch <= served.epoch() {
            return false;
        }
        self.install(served.advance(snap));
        true
    }

    /// The latest prepared snapshot — wait-free, never torn; hold the
    /// `Arc` for as long as the query runs.
    #[inline]
    pub fn prepared(&self) -> Arc<PreparedSnapshot> {
        self.prepared.load()
    }

    /// Executes a plan against the latest prepared snapshot, cloning the
    /// results out (borrow-free convenience; hot loops should hold
    /// [`Self::prepared`] and use [`QueryPlan::execute`]).
    pub fn execute(&self, plan: &QueryPlan) -> Vec<Pointer> {
        let ps = self.prepared();
        plan.execute(&ps).into_iter().cloned().collect()
    }

    /// Cumulative count of undecodable attached infos seen across all
    /// refreshes (per-snapshot counts are on [`PreparedSnapshot`]).
    pub fn decode_errors_total(&self) -> u64 {
        self.decode_errors_total.load(Ordering::Relaxed)
    }

    /// Drains the engine's diagnostic trace records (one
    /// `info_decode_error` record per refresh that surfaced errors).
    pub fn take_diagnostics(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        unpoison(self.diag.lock()).drain_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerwindow_core::peer_list::PeerList;
    use peerwindow_core::prelude::*;
    use peerwindow_core::snapshot::SnapshotPublisher;
    use proptest::prelude::*;

    /// The from-scratch prepare pass that [`PreparedSnapshot::advance`]
    /// replaced — decode every pointer, push every entry, sort every
    /// index — kept as the reference the patched build is compared with.
    fn prepare_reference(snap: Arc<PeerSnapshot>) -> PreparedSnapshot {
        let n = snap.len();
        let mut infos = Vec::with_capacity(n);
        let mut undecodable = Vec::new();
        let mut f64_cols: BTreeMap<String, Column> = BTreeMap::new();
        let mut str_index: StrIndex = BTreeMap::new();
        let mut blooms: BTreeMap<Shape, BloomRows> = BTreeMap::new();
        for (i, p) in snap.pointers().iter().enumerate() {
            let idx = i as u32;
            if let Some(v) = BloomView::parse(&p.info) {
                blooms
                    .entry((v.k(), p.info.len() - 1))
                    .or_default()
                    .push(idx, &p.info[1..]);
            }
            let info = match select::try_info_of(p) {
                Ok(m) => m,
                Err(_) => {
                    if BloomView::parse(&p.info).is_none() {
                        undecodable.push(idx);
                    }
                    InfoMap::default()
                }
            };
            for (key, value) in info.iter() {
                match value {
                    Value::F64(v) if v.is_nan() => {}
                    Value::F64(v) => f64_cols.entry(key.to_string()).or_default().push((*v, idx)),
                    Value::U64(_) => {}
                    Value::Str(s) => str_index
                        .entry(key.to_string())
                        .or_default()
                        .entry(s.clone())
                        .or_default()
                        .push(idx),
                }
            }
            infos.push((!info.is_empty()).then(|| Arc::new(info)));
        }
        for col in f64_cols.values_mut() {
            // Stable by-value sort: ties keep pointer-id order, exactly
            // like select::k_smallest_by's stable sort over an id-ordered
            // scan.
            col.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        }
        let mut by_level: Vec<u32> = (0..n as u32).collect();
        by_level.sort_by_key(|&i| {
            let p = &snap.pointers()[i as usize];
            (p.level.value(), p.id)
        });
        PreparedSnapshot {
            snap,
            infos,
            undecodable,
            by_level,
            f64_cols,
            str_index,
            blooms,
        }
    }

    /// Everything a prepared snapshot derives from its pointers, in a
    /// form `==` can judge (floats by bit pattern, infos by `Debug`: a
    /// NaN field must compare equal to itself).
    #[derive(Debug, PartialEq)]
    struct Indexes {
        infos: Vec<String>,
        decode_errors: u64,
        undecodable: Vec<u32>,
        by_level: Vec<u32>,
        f64_cols: BTreeMap<String, Vec<(u64, u32)>>,
        str_index: StrIndex,
        blooms: Vec<(Shape, Vec<u32>, Vec<u8>)>,
    }

    fn indexes(ps: &PreparedSnapshot) -> Indexes {
        Indexes {
            infos: (0..ps.len()).map(|i| format!("{:?}", ps.info(i))).collect(),
            decode_errors: ps.decode_errors(),
            undecodable: ps.undecodable.clone(),
            by_level: ps.by_level.clone(),
            f64_cols: ps
                .f64_cols
                .iter()
                .map(|(k, col)| {
                    (
                        k.clone(),
                        col.iter().map(|&(v, i)| (v.to_bits(), i)).collect(),
                    )
                })
                .collect(),
            str_index: ps.str_index.clone(),
            blooms: ps
                .blooms
                .iter()
                .map(|(&key, g)| (key, g.idxs.clone(), g.rows.clone()))
                .collect(),
        }
    }

    fn info(os: &str, load: f64) -> Bytes {
        let mut m = InfoMap::new();
        m.set_str("os", os).set_f64("load", load);
        m.encode().unwrap()
    }

    fn seeded_list() -> PeerList {
        let mut l = PeerList::new(Prefix::EMPTY);
        let mut holder = Bloom::for_items(10, 0.01);
        holder.insert(b"doc-42");
        for (id, level, bytes) in [
            (1u128, 0u8, info("linux", 0.9)),
            (2, 1, info("windows", 0.1)),
            (3, 2, info("linux", 0.4)),
            (4, 0, holder.to_bytes()),
            (5, 3, Bytes::from_static(b"\xff")), // undecodable rot
            (6, 2, Bytes::new()),                // no attachment: fine
        ] {
            l.insert(Pointer::with_info(
                NodeId(id),
                Addr(id as u64),
                Level::new(level),
                bytes,
            ));
        }
        l
    }

    fn publish(list: &PeerList) -> SnapshotReader {
        let mut p = SnapshotPublisher::new();
        p.maybe_publish_list(
            NodeIdentity::new(NodeId(99), Level::new(0)),
            Addr(99),
            list,
            1_000,
        );
        p.reader()
    }

    #[test]
    fn prepared_queries_match_select_on_same_content() {
        let list = seeded_list();
        let ps = PreparedSnapshot::prepare(publish(&list).load());

        let sel: Vec<u128> = select::find_partners(&list, |_, i| i.get_str("os") == Some("linux"))
            .map(|p| p.id.raw())
            .collect();
        let eng: Vec<u128> = ps
            .partners_eq("os", "linux", usize::MAX)
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(sel, eng);
        // Limits page in id order: a prefix of the full result.
        let limited: Vec<u128> = ps
            .partners_eq("os", "linux", 1)
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(limited, sel[..1]);
        let scan: Vec<u128> = ps
            .find_partners(|_, i| i.get_str("os") == Some("linux"))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(sel, scan);

        let sel: Vec<u128> = select::k_smallest_by(&list, "load", 2)
            .iter()
            .map(|p| p.id.raw())
            .collect();
        let eng: Vec<u128> = ps
            .k_smallest_by("load", 2)
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(sel, eng);

        let sel: Vec<u128> = select::strongest_nodes(&list, 3)
            .iter()
            .map(|p| p.id.raw())
            .collect();
        let eng: Vec<u128> = ps.strongest(3).iter().map(|p| p.id.raw()).collect();
        assert_eq!(sel, eng);

        let sel: Vec<u128> = select::probable_holders(&list, b"doc-42")
            .iter()
            .map(|p| p.id.raw())
            .collect();
        let eng: Vec<u128> = ps
            .probable_holders(b"doc-42")
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(sel, eng);
        assert_eq!(sel, vec![4]);
    }

    #[test]
    fn decode_errors_are_counted_not_swallowed() {
        let list = seeded_list();
        // Node 5's garbage info is an error; node 6's empty info and node
        // 4's bloom are not.
        let ps = PreparedSnapshot::prepare(publish(&list).load());
        assert_eq!(ps.decode_errors(), 1);
    }

    #[test]
    fn engine_refresh_tracks_epochs_and_diagnostics() {
        let mut list = seeded_list();
        let mut publisher = SnapshotPublisher::new();
        let me = NodeIdentity::new(NodeId(99), Level::new(0));
        publisher.maybe_publish_list(me, Addr(99), &list, 1_000);
        let engine = QueryEngine::new(publisher.reader());
        assert_eq!(engine.prepared().epoch(), 1);
        assert_eq!(engine.decode_errors_total(), 1);
        assert!(!engine.refresh(), "no new epoch yet");

        list.remove(NodeId(5)); // the rot leaves the network
        publisher.maybe_publish_list(me, Addr(99), &list, 2_000);
        assert!(engine.refresh());
        let ps = engine.prepared();
        assert_eq!(ps.epoch(), 2);
        assert_eq!(ps.decode_errors(), 0);
        assert_eq!(engine.decode_errors_total(), 1);

        let diags = engine.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].kind,
            TraceEventKind::Diag {
                code: DiagCode::InfoDecodeError
            }
        ));
        assert!(engine.take_diagnostics().is_empty(), "drained");
    }

    #[test]
    fn plans_are_reusable_across_epochs() {
        let mut list = seeded_list();
        let mut publisher = SnapshotPublisher::new();
        let me = NodeIdentity::new(NodeId(99), Level::new(0));
        publisher.maybe_publish_list(me, Addr(99), &list, 1_000);
        let engine = QueryEngine::new(publisher.reader());

        let plan = QueryPlan::holders(b"doc-42");
        let ids = |v: Vec<Pointer>| v.iter().map(|p| p.id.raw()).collect::<Vec<_>>();
        assert_eq!(ids(engine.execute(&plan)), vec![4]);

        list.remove(NodeId(4));
        publisher.maybe_publish_list(me, Addr(99), &list, 2_000);
        engine.refresh();
        assert!(engine.execute(&plan).is_empty());

        let strongest = QueryPlan::Strongest { k: 2 };
        assert_eq!(ids(engine.execute(&strongest)), vec![1, 2]);
    }

    fn load_info(load: f64) -> Bytes {
        let mut m = InfoMap::new();
        m.set_f64("load", load);
        m.encode().unwrap()
    }

    #[test]
    fn nan_values_are_skipped_not_sorted() {
        // 60 loads with one NaN among them: rustc >= 1.81's sort_by
        // panics on the non-total order a NaN used to put in the column.
        let mut list = PeerList::new(Prefix::EMPTY);
        for id in 1..=60u128 {
            let load = match id {
                7 => f64::NAN,
                20 => -0.0,
                21 => 0.0,
                _ => ((id * 37) % 61) as f64 + 1.0,
            };
            let p = Pointer::with_info(NodeId(id), Addr(0), Level::new(0), load_info(load));
            list.insert(p);
        }
        let ids = |v: Vec<&Pointer>| v.iter().map(|p| p.id.raw()).collect::<Vec<_>>();
        let mut publisher = SnapshotPublisher::new();
        let me = NodeIdentity::new(NodeId(99), Level::new(0));
        publisher.maybe_publish_list(me, Addr(99), &list, 1);
        let first = PreparedSnapshot::prepare(publisher.reader().load());
        let got = ids(first.k_smallest_by("load", 100));
        assert_eq!(got.len(), 59);
        assert_eq!(got[..2], [20, 21]);
        assert_eq!(got, ids(select::k_smallest_by(&list, "load", 100)));
        assert_eq!(first.info(6).get_f64("load").map(f64::is_nan), Some(true));

        // And when the NaN arrives in a later epoch, as the one fresh
        // entry of a column that is otherwise carried.
        list.update_info(NodeId(33), load_info(f64::NAN), 2);
        list.update_info(NodeId(7), load_info(0.0), 2);
        publisher.maybe_publish_list(me, Addr(99), &list, 2);
        let second = first.advance(publisher.reader().load());
        let got = ids(second.k_smallest_by("load", 100));
        assert_eq!(got[..3], [7, 20, 21]);
        assert_eq!(got, ids(select::k_smallest_by(&list, "load", 100)));
        assert_eq!(
            indexes(&second),
            indexes(&prepare_reference(second.snap.clone()))
        );
    }

    /// One list operation of the differential test, over a small id
    /// universe so that operations collide.
    #[derive(Clone, Debug)]
    enum Op {
        Insert {
            id: u8,
            level: u8,
            att: u8,
        },
        Remove {
            id: u8,
        },
        UpdateLevel {
            id: u8,
            level: u8,
        },
        UpdateInfo {
            id: u8,
            att: u8,
        },
        Touch {
            id: u8,
        },
        /// Publishes the list; the engine refreshes only if `serve`, so
        /// it skips epochs.
        Publish {
            serve: bool,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let insert = || {
            (0u8..12, 0u8..4, any::<u8>()).prop_map(|(id, level, att)| Op::Insert {
                id,
                level,
                att,
            })
        };
        prop_oneof![
            insert(),
            insert(),
            (0u8..12).prop_map(|id| Op::Remove { id }),
            (0u8..12, 0u8..4).prop_map(|(id, level)| Op::UpdateLevel { id, level }),
            (0u8..12, any::<u8>()).prop_map(|(id, att)| Op::UpdateInfo { id, att }),
            (0u8..12).prop_map(|id| Op::Touch { id }),
            any::<bool>().prop_map(|serve| Op::Publish { serve }),
        ]
    }

    fn filter_of(bytes: usize, k: u32, docs: &[&str]) -> Bytes {
        let mut f = Bloom::new(bytes, k);
        for d in docs {
            f.insert(d.as_bytes());
        }
        f.to_bytes()
    }

    /// The attachment catalogue. Every non-empty `InfoMap` encoding also
    /// parses as a filter (`k` = its first key's length), so the typed
    /// maps populate bloom groups of their own beside the three real
    /// filter shapes.
    fn attachment(att: u8, id: u8) -> Bytes {
        let own_name = format!("n{id}");
        let own_doc = format!("doc-{id}");
        let map = |os: Option<&str>, load: Option<f64>, name: Option<&str>| {
            let mut m = InfoMap::new();
            if let Some(os) = os {
                m.set_str("os", os);
            }
            if let Some(load) = load {
                m.set_f64("load", load);
            }
            if let Some(name) = name {
                m.set_str("name", name);
            }
            m.encode().unwrap()
        };
        match att % 20 {
            0 => Bytes::new(),
            1 => map(Some("linux"), Some(0.5), None),
            2 => map(Some("linux"), Some(f64::NAN), None),
            3 => map(Some("bsd"), Some(-0.0), None),
            4 => map(Some("bsd"), Some(0.0), None),
            5 => map(Some("linux"), Some(f64::INFINITY), None),
            6 => map(Some("linux"), Some(f64::NEG_INFINITY), Some(&own_name)),
            7 => map(None, None, Some(&own_name)),
            8 => map(Some("plan9"), Some(id as f64 / 4.0), None),
            9 => map(None, Some(1.0 + (id % 3) as f64), Some("shared")),
            10 => {
                let mut m = InfoMap::new();
                m.set_u64("files", id as u64);
                m.encode().unwrap()
            }
            11 => filter_of(8, 3, &["doc-churn", &own_doc]),
            12 => filter_of(8, 3, &[&own_doc]),
            13 => filter_of(39, 7, &["doc-churn"]),
            14 => filter_of(39, 7, &[]),
            15 => filter_of(1, 1, &["doc-churn"]),
            // Neither schema: a decode error.
            16 => Bytes::from_static(&[0x00, 0xFF, 0xFF]),
            17 => Bytes::from_static(&[0xFF]),
            // A filter, but no `InfoMap`: not an error.
            18 => Bytes::from_static(&[3, 0xFF, 0xFF]),
            _ => map(Some("linux"), Some(0.5), Some("shared")),
        }
    }

    fn node(id: u8) -> NodeId {
        NodeId(1 + id as u128 * 1_000)
    }

    fn plans() -> Vec<QueryPlan> {
        let partners = |key: &str, value: &str, limit| QueryPlan::PartnersEq {
            key: key.to_string(),
            value: value.to_string(),
            limit,
        };
        let lightest = |k| QueryPlan::KSmallest {
            key: "load".to_string(),
            k,
        };
        vec![
            partners("os", "linux", usize::MAX),
            partners("os", "bsd", 2),
            partners("name", "n3", usize::MAX),
            partners("name", "shared", usize::MAX),
            lightest(3),
            lightest(usize::MAX),
            QueryPlan::Strongest { k: 4 },
            QueryPlan::Strongest { k: usize::MAX },
            QueryPlan::holders(b"doc-churn"),
            QueryPlan::holders(b"doc-3"),
        ]
    }

    /// What [`plans`] must answer, by `select` on the live list.
    fn select_answers(list: &PeerList) -> Vec<Vec<NodeId>> {
        let ids = |v: Vec<&Pointer>| v.iter().map(|p| p.id).collect::<Vec<_>>();
        let partners = |key: &'static str, value: &'static str, limit: usize| {
            select::find_partners(list, move |_, m| m.get_str(key) == Some(value))
                .take(limit)
                .map(|p| p.id)
                .collect::<Vec<_>>()
        };
        vec![
            partners("os", "linux", usize::MAX),
            partners("os", "bsd", 2),
            partners("name", "n3", usize::MAX),
            partners("name", "shared", usize::MAX),
            ids(select::k_smallest_by(list, "load", 3)),
            ids(select::k_smallest_by(list, "load", usize::MAX)),
            ids(select::strongest_nodes(list, 4)),
            ids(select::strongest_nodes(list, usize::MAX)),
            ids(select::probable_holders(list, b"doc-churn")),
            ids(select::probable_holders(list, b"doc-3")),
        ]
    }

    fn served_answers(plans: &[QueryPlan], ps: &PreparedSnapshot) -> Vec<Vec<NodeId>> {
        plans
            .iter()
            .map(|plan| plan.execute(ps).iter().map(|p| p.id).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Refresh-by-patch against the from-scratch reference: after
        /// every served epoch of a random operation sequence, every
        /// index equals what `prepare_reference` builds from the same
        /// snapshot, every plan answers what `select` answers on the
        /// live list, and the epoch served before it — still held by a
        /// reader — is untouched.
        #[test]
        fn patched_refresh_equals_from_scratch_prepare(
            ops in proptest::collection::vec(arb_op(), 1..160),
        ) {
            let me = NodeIdentity::new(NodeId(u128::MAX), Level::new(0));
            let mut list = PeerList::new(Prefix::EMPTY);
            let mut publisher = SnapshotPublisher::new();
            let engine = QueryEngine::new(publisher.reader());
            let plans = plans();
            let mut errors = 0;
            let mut previous: Option<(Arc<PreparedSnapshot>, Vec<Vec<NodeId>>)> = None;
            let last = Op::Publish { serve: true };
            for (now, op) in ops.iter().chain([&last]).enumerate() {
                let now = now as u64;
                match *op {
                    Op::Insert { id, level, att } => {
                        let p = Pointer::with_info(
                            node(id),
                            Addr(now),
                            Level::new(level),
                            attachment(att, id),
                        );
                        list.insert(p);
                    }
                    Op::Remove { id } => {
                        list.remove(node(id));
                    }
                    Op::UpdateLevel { id, level } => {
                        list.update_level(node(id), Level::new(level));
                    }
                    Op::UpdateInfo { id, att } => {
                        list.update_info(node(id), attachment(att, id), now);
                    }
                    Op::Touch { id } => {
                        list.touch(node(id), now);
                    }
                    Op::Publish { serve } => {
                        publisher.maybe_publish_list(me, Addr(0), &list, now);
                        if !serve {
                            continue;
                        }
                        let refreshed = engine.refresh();
                        let ps = engine.prepared();
                        prop_assert_eq!(ps.epoch(), publisher.epoch());
                        if refreshed {
                            errors += ps.decode_errors();
                        }
                        prop_assert_eq!(engine.decode_errors_total(), errors);
                        prop_assert_eq!(
                            indexes(&ps),
                            indexes(&prepare_reference(ps.snap.clone()))
                        );
                        let answers = served_answers(&plans, &ps);
                        prop_assert_eq!(&answers, &select_answers(&list));
                        if let Some((held, held_answers)) = &previous {
                            prop_assert_eq!(&served_answers(&plans, held), held_answers);
                            prop_assert_eq!(
                                indexes(held),
                                indexes(&prepare_reference(held.snap.clone()))
                            );
                        }
                        previous = Some((ps, answers));
                    }
                }
            }
        }
    }
}
