//! Lock-free peer-list snapshots — the serving layer's read path.
//!
//! The paper's whole point (§1/§3) is that the collected peer list is a
//! *queryable local database*: "the more pointers a node collects, the
//! more satisfactory partners it may find locally". A query service over
//! that database must keep answering at high QPS while the protocol
//! churns the underlying list, which forbids sharing the mutable
//! [`PeerList`] with readers: a reader that takes the protocol's lock
//! stalls failure detection, and a reader that doesn't risks a torn list.
//!
//! The contract here is *publication*: the protocol side captures an
//! immutable [`PeerSnapshot`] whenever the list changed (detected through
//! [`PeerList::content_generation`]) and publishes it through a [`Published`]
//! cell. Readers [`Published::load`] an `Arc` of the latest snapshot —
//! never the write lock, never a half-updated list — and hold it for as
//! long as the query runs; the protocol keeps mutating and publishing
//! underneath without ever waiting on them.
//!
//! ## The cell
//!
//! `std` has no `arc-swap` and the workspace forbids `unsafe`, so the
//! cell is a small slot ring: [`SLOTS`] inner locks each guarding an
//! `Arc<T>`, plus an atomic version whose low bits select the slot that
//! holds the newest value. A writer prepares `version + 1`'s slot *before*
//! bumping the version, so the slot named by the current version is never
//! being written. Readers therefore succeed with a single `try_read`
//! (uncontended: nothing writes that slot) unless the writer laps the
//! whole ring between the reader's version load and its slot access —
//! `SLOTS - 1` publications inside a window of a few instructions — in
//! which case the reader revalidates and retries. Readers never block
//! writers except in that same pathological lap case, and never wait on a
//! lock held across a mutation.
//!
//! The version check after cloning keeps loads *monotone*: a reader that
//! observed epoch `e` can never subsequently observe an epoch `< e`,
//! which the churn tests assert.
//!
//! ## What a snapshot promises
//!
//! * **Atomicity** — the pointer vector is a fixed-point copy of the list
//!   after some prefix of the protocol's mutation sequence; concurrent
//!   readers may observe different prefixes but never a mix.
//! * **Self-consistency** — `me`, `addr`, `scope`, and `level` were all
//!   read at the same instant as the list.
//! * **Monotone epochs** — `epoch` strictly increases across
//!   publications from one [`SnapshotPublisher`].
//! * **Order** — `pointers` is sorted by [`NodeId`], same as the list's
//!   probing circle, so prefix ranges are contiguous.
//!
//! ## Shared runs
//!
//! A snapshot keeps its pointers as id-ordered runs of at most
//! [`RUN_LEN`], each an `Arc<[Pointer]>`. [`SnapshotPublisher`] captures
//! against the snapshot its cell last published, reading which ids
//! changed since from the list's bounded change log
//! (`PeerList::changed_since`): every run whose id range holds no
//! changed id is reused by `Arc::clone`, and only the other runs are
//! rebuilt: their pointers merged with the list's entry for each changed
//! id (`PeerList::get`), then cut into new runs. The list itself is not
//! walked. When the log no longer reaches back that
//! far, or the list is another instance (`PeerList::instance`: a join
//! swapped in a downloaded list), every run is cut fresh. A capture, and
//! freeing an evicted epoch, then touch one refcount per run plus the
//! pointers of the changed runs, not one per pointer; `apps::query`
//! carries a shared run's prepared state whole.

use crate::id::{NodeId, Prefix};
use crate::level::{Level, NodeIdentity};
use crate::node::NodeMachine;
use crate::peer_list::PeerList;
use crate::pointer::{Addr, Pointer};
use std::collections::BTreeMap;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Ring size of a [`Published`] cell. Readers only retry when a writer
/// completes `SLOTS - 1` publications between two adjacent reader
/// instructions; 4 makes that practically impossible while keeping the
/// cell at half a cache line of lock words.
pub const SLOTS: usize = 4;

/// The longest run a snapshot keeps. Shorter runs leave more of an epoch
/// shared when a few pointers change, longer ones cost fewer refcounts
/// per capture and per freed epoch. On `pwbench query_serve` (50 000
/// pointers, 256 changes per epoch, 2-core host) 32 gave the fastest
/// cycle of 16, 32 and 64 (EXPERIMENTS.md, "Shared runs").
pub const RUN_LEN: usize = 32;

/// A rebuilt run shorter than this merges into a neighbour.
const MIN_RUN: usize = RUN_LEN / 4;

/// An immutable, cheaply-cloneable view of one node's peer list at a
/// publication instant. Shared as `Arc<PeerSnapshot>`; cloning the `Arc`
/// is the unit of snapshot distribution, cloning the struct clones one
/// `Arc` per run.
#[derive(Clone, Debug)]
pub struct PeerSnapshot {
    /// Publication counter, strictly increasing per publisher.
    pub epoch: u64,
    /// Protocol time (µs) at which this snapshot was captured.
    pub at_us: u64,
    /// The publishing node's identity (id + level) at capture time.
    pub me: NodeIdentity,
    /// The publishing node's transport address.
    pub addr: Addr,
    /// The eigenstring scope the list covers.
    pub scope: Prefix,
    /// [`PeerList::generation`] at capture time: the next capture from
    /// the same list reads the list's change log from here, and an
    /// embedder can correlate a snapshot with the mutation counter.
    pub generation: u64,
    /// All pointers, sorted by [`NodeId`], as runs: none empty, none
    /// longer than [`RUN_LEN`], ordered within and across runs.
    runs: Vec<Arc<[Pointer]>>,
    /// `starts[r]`: the position of `runs[r]`'s first pointer.
    starts: Vec<usize>,
    /// Pointers across all runs.
    len: usize,
}

impl PeerSnapshot {
    /// The empty snapshot a fresh [`Published`] cell starts with: epoch
    /// 0, no pointers, an anonymous identity.
    pub fn empty() -> Self {
        PeerSnapshot {
            epoch: 0,
            at_us: 0,
            me: NodeIdentity::new(NodeId(0), Level::MAX),
            addr: Addr(0),
            scope: Prefix::EMPTY,
            generation: 0,
            runs: Vec::new(),
            starts: Vec::new(),
            len: 0,
        }
    }

    fn from_runs(
        epoch: u64,
        at_us: u64,
        me: NodeIdentity,
        addr: Addr,
        list: &PeerList,
        runs: Vec<Arc<[Pointer]>>,
    ) -> Self {
        let mut len = 0;
        let starts = runs
            .iter()
            .map(|run| {
                len += run.len();
                len - run.len()
            })
            .collect();
        PeerSnapshot {
            epoch,
            at_us,
            me,
            addr,
            scope: list.scope(),
            generation: list.generation(),
            runs,
            starts,
            len,
        }
    }

    /// Captures a snapshot from explicit parts (harnesses that drive a
    /// bare [`PeerList`] rather than a whole machine), every run cut
    /// fresh.
    pub fn capture(epoch: u64, at_us: u64, me: NodeIdentity, addr: Addr, list: &PeerList) -> Self {
        let mut runs = Vec::with_capacity(list.len().div_ceil(RUN_LEN));
        // Find every entry before cloning any: a clone's reference-count
        // increment is an atomic that keeps the next id's lookup from
        // overlapping this one's cache misses (a first publish of
        // `query_serve`'s 50 000 pointers: median 17.5 ms in one pass,
        // 12.4 ms in two, on a 2-core host).
        let found: Vec<&Pointer> = list.iter().collect();
        cut(&mut runs, list.len(), found.into_iter().cloned());
        Self::from_runs(epoch, at_us, me, addr, list, runs)
    }

    /// Captures `list` against `self`, a capture of an earlier state of
    /// the same list instance, given the ids `changed` between the two
    /// (`PeerList::changed_since`). A run of `self` whose id range —
    /// from its first id (the first run's: from the lowest id) up to the
    /// next run's first — holds no changed id is shared. Every other run
    /// is rebuilt by merging its pointers with the list's entry for each
    /// changed id in its range (none: removed); an id the log does not
    /// name is as the run holds it. Rebuilds are cut to at most
    /// [`RUN_LEN`], one shorter than a quarter of that merging into a
    /// neighbour.
    fn patch(
        &self,
        epoch: u64,
        at_us: u64,
        me: NodeIdentity,
        addr: Addr,
        list: &PeerList,
        changed: impl Iterator<Item = NodeId>,
    ) -> Self {
        if self.runs.is_empty() {
            return Self::capture(epoch, at_us, me, addr, list);
        }
        let mut changed: Vec<NodeId> = changed.collect();
        changed.sort_unstable();
        changed.dedup();
        let mut changed = changed.into_iter().peekable();
        let mut next = Recut::default();
        next.runs.reserve(self.runs.len() + 1);
        for (r, run) in self.runs.iter().enumerate() {
            let end = self.runs.get(r + 1).map(|next| next[0].id);
            let in_range = |id: &NodeId| end.is_none_or(|end| *id < end);
            if !changed.peek().is_some_and(in_range) {
                next.share(run);
                continue;
            }
            let mut kept = run.iter().peekable();
            while let Some(id) = changed.next_if(in_range) {
                while let Some(p) = kept.next_if(|p| p.id < id) {
                    next.pending.push(p.clone());
                }
                kept.next_if(|p| p.id == id);
                next.pending.extend(list.get(id).cloned());
            }
            next.pending.extend(kept.cloned());
        }
        next.flush();
        Self::from_runs(epoch, at_us, me, addr, list, next.runs)
    }

    /// All pointers, sorted by [`NodeId`]: a borrowed view across the
    /// runs.
    #[inline]
    pub fn pointers(&self) -> Pointers<'_> {
        Pointers { snap: self }
    }

    /// The runs the pointers are kept in, in id order. An epoch shares
    /// with the one captured before it (`Arc::ptr_eq`) every run whose
    /// id range did not change.
    #[inline]
    pub fn runs(&self) -> &[Arc<[Pointer]>] {
        &self.runs
    }

    /// Number of pointers held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot holds no pointers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The run holding position `i` (in id order) and `i`'s offset in
    /// it: a binary search over the run positions.
    pub fn locate(&self, i: usize) -> (usize, usize) {
        assert!(
            i < self.len,
            "pointer {i} of a {}-pointer snapshot",
            self.len
        );
        let r = self.starts.partition_point(|&s| s <= i) - 1;
        (r, i - self.starts[r])
    }

    /// Looks up a pointer by id: a binary search over the runs' first
    /// ids, then one over a run.
    pub fn get(&self, id: NodeId) -> Option<&Pointer> {
        let r = self
            .runs
            .partition_point(|run| run[0].id <= id)
            .checked_sub(1)?;
        let run = &self.runs[r];
        run.binary_search_by_key(&id, |p| p.id)
            .ok()
            .map(|i| &run[i])
    }

    /// The pointers whose ids fall inside `prefix`, in id order.
    pub fn iter_prefix(&self, prefix: Prefix) -> impl Iterator<Item = &Pointer> + '_ {
        let range = prefix.id_range();
        let (lo, hi) = (*range.start(), *range.end());
        let r = self
            .runs
            .partition_point(|run| run[0].id <= lo)
            .saturating_sub(1);
        self.runs[r..]
            .iter()
            .flat_map(|run| run.iter())
            .skip_while(move |p| p.id < lo)
            .take_while(move |p| p.id <= hi)
    }

    /// Up to `k` pointers at the strongest levels (§3's "powerful nodes"
    /// heuristic), strongest level first, ties by smallest id. Core-level
    /// so thin embedders (the transport control port) can serve it
    /// without the application-layer query engine.
    pub fn strongest(&self, k: usize) -> Vec<&Pointer> {
        let key = |p: &&Pointer| (p.level.value(), p.id);
        let mut all: Vec<&Pointer> = self.pointers().iter().collect();
        // Partition out the k smallest in O(n), then sort only those
        // (keys are unique, so the unstable sorts are deterministic).
        if k < all.len() {
            all.select_nth_unstable_by_key(k, key);
            all.truncate(k);
        }
        all.sort_unstable_by_key(key);
        all
    }

    /// Asserts the structural invariants every published snapshot must
    /// hold: ids sorted and deduplicated, no self-entry, every run
    /// non-empty and at most [`RUN_LEN`] long, and the run positions
    /// consistent. Cheap; used by tests and debug assertions in the
    /// publisher.
    pub fn is_well_formed(&self) -> bool {
        let runs_ok = self
            .runs
            .iter()
            .all(|run| !run.is_empty() && run.len() <= RUN_LEN);
        let mut at = 0;
        let starts_ok = self.starts.len() == self.runs.len()
            && self.runs.iter().zip(&self.starts).all(|(run, &start)| {
                at += run.len();
                start == at - run.len()
            })
            && at == self.len;
        let ids = self.pointers().iter().map(|p| p.id);
        let sorted = ids.clone().zip(ids.skip(1)).all(|(a, b)| a < b);
        runs_ok && starts_ok && sorted && self.get(self.me.id).is_none()
    }
}

/// Appends `len` pointers from `items` to `runs`, cut into the fewest
/// runs of at most [`RUN_LEN`], of near-equal length.
fn cut(runs: &mut Vec<Arc<[Pointer]>>, len: usize, mut items: impl Iterator<Item = Pointer>) {
    let pieces = len.div_ceil(RUN_LEN);
    for piece in 0..pieces {
        let size = len * (piece + 1) / pieces - len * piece / pieces;
        runs.push(items.by_ref().take(size).collect());
    }
}

/// The runs of a capture against the previous epoch, in id order: shared
/// runs as they come, and the changed ranges' entries gathered in
/// `pending` until the next shared run.
#[derive(Default)]
struct Recut {
    runs: Vec<Arc<[Pointer]>>,
    pending: Vec<Pointer>,
}

impl Recut {
    fn share(&mut self, run: &Arc<[Pointer]>) {
        if (1..MIN_RUN).contains(&self.pending.len()) && self.runs.is_empty() {
            // Nothing on the left to merge into: the right-hand
            // neighbour joins the rebuild.
            self.pending.extend(run.iter().cloned());
            return;
        }
        self.flush();
        self.runs.push(Arc::clone(run));
    }

    /// Cuts `pending` into runs, first merging a short one into its
    /// left-hand neighbour.
    fn flush(&mut self) {
        if (1..MIN_RUN).contains(&self.pending.len()) {
            if let Some(left) = self.runs.pop() {
                self.pending.splice(0..0, left.iter().cloned());
            }
        }
        cut(&mut self.runs, self.pending.len(), self.pending.drain(..));
    }
}

/// A borrowed view of a snapshot's pointers across its runs, in id
/// order: [`PeerSnapshot::pointers`].
#[derive(Clone, Copy, Debug)]
pub struct Pointers<'a> {
    snap: &'a PeerSnapshot,
}

impl<'a> Pointers<'a> {
    /// Number of pointers.
    #[inline]
    pub fn len(&self) -> usize {
        self.snap.len
    }

    /// Whether there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.snap.len == 0
    }

    /// The pointers in id order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            runs: self.snap.runs.iter(),
            run: [].iter(),
            left: self.snap.len,
        }
    }
}

impl Index<usize> for Pointers<'_> {
    type Output = Pointer;

    /// The pointer at position `i` in id order
    /// ([`PeerSnapshot::locate`]).
    fn index(&self, i: usize) -> &Pointer {
        let (r, off) = self.snap.locate(i);
        &self.snap.runs[r][off]
    }
}

impl<'a> IntoIterator for Pointers<'a> {
    type Item = &'a Pointer;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a snapshot's pointers in id order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    runs: std::slice::Iter<'a, Arc<[Pointer]>>,
    run: std::slice::Iter<'a, Pointer>,
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Pointer;

    #[inline]
    fn next(&mut self) -> Option<&'a Pointer> {
        loop {
            if let Some(p) = self.run.next() {
                self.left -= 1;
                return Some(p);
            }
            self.run = self.runs.next()?.iter();
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    // A poisoned inner lock means a reader panicked while cloning an Arc
    // (which cannot leave the Arc torn) — the value is still intact, so
    // publication and loads keep working rather than cascading the panic.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// An arc-swap-style publication cell: single-writer (serialized by an
/// internal mutex), many readers, readers never take the write lock and
/// never observe a torn value. See the module docs for the slot-ring
/// design.
#[derive(Debug)]
pub struct Published<T> {
    slots: [RwLock<Arc<T>>; SLOTS],
    /// Low bits select the slot holding the newest value; the whole word
    /// is the publication count. audit note: release-store in `publish`
    /// pairs with the acquire-loads in `load`, ordering the slot write
    /// before the version bump.
    version: AtomicU64,
    /// Serializes writers so version increments match slot contents.
    writer: Mutex<()>,
}

impl<T> Published<T> {
    /// A cell currently holding `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        Published {
            slots: std::array::from_fn(|_| RwLock::new(Arc::clone(&initial))),
            version: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Publishes a new value; returns the cell version it landed at.
    /// Writers are serialized; readers are never waited on except when a
    /// reader is `SLOTS - 1` publications stale (see module docs).
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let _w = unpoison(self.writer.lock());
        let v = self.version.load(Ordering::Relaxed);
        let next = v + 1;
        let slot = (next % SLOTS as u64) as usize;
        *unpoison(self.slots[slot].write()) = value;
        self.version.store(next, Ordering::Release);
        next
    }

    /// Loads the latest published value. Wait-free in the absence of a
    /// writer lapping the entire slot ring mid-load; never blocks on the
    /// writer (a `try_read` miss just retries against the newer version).
    pub fn load(&self) -> Arc<T> {
        loop {
            let v = self.version.load(Ordering::Acquire);
            let slot = (v % SLOTS as u64) as usize;
            if let Ok(guard) = self.slots[slot].try_read() {
                let value = Arc::clone(&guard);
                drop(guard);
                // Monotonicity guard: if the writer has advanced far
                // enough to be rewriting this slot since we sampled `v`,
                // the clone might belong to version v + SLOTS — retry so
                // a reader never observes versions out of order.
                if self.version.load(Ordering::Acquire) < v + (SLOTS as u64 - 1) {
                    return value;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// The current cell version (number of publications so far).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// A reader handle onto one node's published snapshots: a cheaply
/// cloneable `Arc` of the [`Published`] cell.
#[derive(Clone, Debug)]
pub struct SnapshotReader {
    cell: Arc<Published<PeerSnapshot>>,
}

impl SnapshotReader {
    /// The latest published snapshot.
    #[inline]
    pub fn load(&self) -> Arc<PeerSnapshot> {
        self.cell.load()
    }

    /// The epoch of the latest published snapshot without loading it
    /// (the cell version equals the snapshot epoch by construction).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.cell.version()
    }
}

/// The write side of one node's snapshot path. Owned by whatever drives
/// the [`NodeMachine`] (a simulator shard, the UDP runtime's node
/// thread); after every handled input it calls [`Self::maybe_publish`],
/// which captures and publishes only when the list actually changed.
#[derive(Debug)]
pub struct SnapshotPublisher {
    cell: Arc<Published<PeerSnapshot>>,
    /// `PeerList::instance` and [`PeerList::content_generation`] of
    /// the last publication; `None` before the first. Gating on the
    /// *content* counter keeps the steady-state hot path free: §4.6
    /// probe acks only touch refresh stamps, which no serving-layer
    /// query observes, so they cost one compare instead of a capture.
    /// (A published pointer's `last_refresh_us` may therefore trail the
    /// live list's by up to one content change.) The instance makes a
    /// replaced list, whose counters restart, publish.
    last: Option<(u64, u64)>,
    epoch: u64,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotPublisher {
    /// A publisher over a fresh cell holding [`PeerSnapshot::empty`].
    pub fn new() -> Self {
        SnapshotPublisher {
            cell: Arc::new(Published::new(Arc::new(PeerSnapshot::empty()))),
            last: None,
            epoch: 0,
        }
    }

    /// A reader handle onto this publisher's cell.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// Epoch of the most recent publication (0 before the first).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Captures and publishes the machine's current list if its content
    /// generation moved since the last publication (membership, level,
    /// info, or scope changes — refresh-stamp touches don't count), or
    /// the list was replaced.
    /// Returns `true` when a snapshot was published. Pure observation:
    /// never mutates the machine, so enabling publication cannot change
    /// a simulation's fingerprint.
    pub fn maybe_publish(&mut self, m: &NodeMachine, now_us: u64) -> bool {
        let me = NodeIdentity::new(m.id(), m.level());
        self.maybe_publish_list(me, m.addr(), m.peers(), now_us)
    }

    /// Captures and publishes from explicit parts (harnesses driving a
    /// bare [`PeerList`]). Gated like [`Self::maybe_publish`]. When the
    /// list is the instance this cell last published and its change log
    /// reaches back to that capture, the capture is against it: every
    /// run whose range holds no changed id is shared, and only the other
    /// ranges are read from the list. Otherwise every run is cut fresh.
    pub fn maybe_publish_list(
        &mut self,
        me: NodeIdentity,
        addr: Addr,
        list: &PeerList,
        now_us: u64,
    ) -> bool {
        let at = (list.instance(), list.content_generation());
        if self.last == Some(at) {
            return false;
        }
        self.epoch += 1;
        let last = self.cell.load();
        let changed = self
            .last
            .filter(|&(instance, _)| instance == at.0)
            .and_then(|_| list.changed_since(last.generation));
        let snap = match changed {
            Some(ids) => last.patch(self.epoch, now_us, me, addr, list, ids),
            None => PeerSnapshot::capture(self.epoch, now_us, me, addr, list),
        };
        self.last = Some(at);
        debug_assert!(snap.is_well_formed());
        self.cell.publish(Arc::new(snap));
        true
    }
}

/// A registry of snapshot readers for multi-node harnesses (the
/// simulators): actor id → reader. Shards register each actor's cell
/// once at publisher creation; readers look up concurrently.
#[derive(Debug, Default)]
pub struct SnapshotDirectory {
    readers: Mutex<BTreeMap<u32, SnapshotReader>>,
}

impl SnapshotDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or re-creates, after a crash-restart reusing the actor
    /// slot) the publisher for `actor`, registering its reader.
    pub fn register(&self, actor: u32) -> SnapshotPublisher {
        let publisher = SnapshotPublisher::new();
        unpoison(self.readers.lock()).insert(actor, publisher.reader());
        publisher
    }

    /// The reader for `actor`, if it ever registered.
    pub fn reader(&self, actor: u32) -> Option<SnapshotReader> {
        unpoison(self.readers.lock()).get(&actor).cloned()
    }

    /// Actors with a registered reader, ascending.
    pub fn actors(&self) -> Vec<u32> {
        unpoison(self.readers.lock()).keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;

    fn ptr(id: u128, level: u8) -> Pointer {
        Pointer::new(NodeId(id), Addr(id as u64), Level::new(level))
    }

    #[test]
    fn published_cell_swaps_values() {
        let cell = Published::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.publish(Arc::new(2)), 1);
        assert_eq!(*cell.load(), 2);
        for i in 3..20u32 {
            cell.publish(Arc::new(i));
            assert_eq!(*cell.load(), i);
        }
        assert_eq!(cell.version(), 18);
    }

    #[test]
    fn loads_are_monotone_under_concurrent_publication() {
        let cell = Arc::new(Published::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                let mut observed = 0u64;
                // Load before checking `stop`: on a single-core host the
                // writer can finish before this thread first runs, and
                // every reader must still observe at least one value.
                loop {
                    let v = *cell.load();
                    assert!(v >= last, "load went backwards: {v} < {last}");
                    last = v;
                    observed += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observed
            }));
        }
        for i in 1..=50_000u64 {
            cell.publish(Arc::new(i));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(*cell.load(), 50_000);
    }

    #[test]
    fn publisher_is_generation_gated() {
        let mut list = PeerList::new(Prefix::EMPTY);
        let me = NodeIdentity::new(NodeId(7), Level::new(0));
        let mut publisher = SnapshotPublisher::new();
        let reader = publisher.reader();

        // First publish happens even on an empty list (epoch 1).
        assert!(publisher.maybe_publish_list(me, Addr(7), &list, 10));
        assert!(!publisher.maybe_publish_list(me, Addr(7), &list, 20));
        assert_eq!(reader.load().epoch, 1);

        list.insert(ptr(1, 0));
        assert!(publisher.maybe_publish_list(me, Addr(7), &list, 30));
        let snap = reader.load();
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.at_us, 30);
        assert_eq!(snap.len(), 1);
        assert!(snap.get(NodeId(1)).is_some());
        assert!(snap.get(NodeId(2)).is_none());

        // No mutation → no publication, reader keeps the old snapshot.
        assert!(!publisher.maybe_publish_list(me, Addr(7), &list, 40));
        assert_eq!(reader.load().epoch, 2);

        // touch() is NOT a content mutation: refresh stamps are invisible
        // to serving-layer queries, and gating them out keeps the §4.6
        // probe-ack hot path at one integer compare.
        list.touch(NodeId(1), 50);
        assert!(!publisher.maybe_publish_list(me, Addr(7), &list, 50));
        assert_eq!(reader.load().epoch, 2);

        // A level change is content: it publishes.
        assert!(list.update_level(NodeId(1), Level::new(3)));
        assert!(publisher.maybe_publish_list(me, Addr(7), &list, 60));
        assert_eq!(reader.load().epoch, 3);
    }

    #[test]
    fn a_replaced_list_publishes_at_an_equal_generation() {
        // A join swaps in a downloaded list whose counters restart: its
        // content generation can equal the one last published.
        let me = NodeIdentity::new(NodeId(7), Level::new(0));
        let mut a = PeerList::new(Prefix::EMPTY);
        a.insert(ptr(1, 0));
        let mut b = PeerList::new(Prefix::EMPTY);
        b.insert(ptr(2, 0));
        assert_eq!(a.content_generation(), b.content_generation());
        let mut publisher = SnapshotPublisher::new();
        let reader = publisher.reader();
        assert!(publisher.maybe_publish_list(me, Addr(7), &a, 1));
        assert!(publisher.maybe_publish_list(me, Addr(7), &b, 2));
        let snap = reader.load();
        assert_eq!(snap.epoch, 2);
        assert!(snap.pointers().iter().eq(b.iter()));
        // The gate still holds for the new list.
        assert!(!publisher.maybe_publish_list(me, Addr(7), &b, 3));
        assert_eq!(reader.load().epoch, 2);
    }

    #[test]
    fn snapshot_prefix_slice_matches_list_ranges() {
        let mut list = PeerList::new(Prefix::EMPTY);
        for i in 1..256u128 {
            list.insert(ptr(i << 120, (i % 4) as u8));
        }
        let snap = PeerSnapshot::capture(
            1,
            0,
            NodeIdentity::new(NodeId(0), Level::new(0)),
            Addr(0),
            &list,
        );
        assert!(snap.is_well_formed());
        assert!(snap.runs().len() > 1);
        for bits in [
            "0", "1", "01", "101", "0000", "00000000", "0110011", "11111111",
        ] {
            let prefix = Prefix::from_bits_str(bits).unwrap();
            let from_list: Vec<NodeId> = list.iter_prefix(prefix).map(|p| p.id).collect();
            let from_snap: Vec<NodeId> = snap.iter_prefix(prefix).map(|p| p.id).collect();
            assert_eq!(from_list, from_snap, "prefix {bits}");
        }
    }

    #[test]
    fn strongest_matches_level_then_id_order() {
        let mut list = PeerList::new(Prefix::EMPTY);
        list.insert(ptr(10, 3));
        list.insert(ptr(20, 0));
        list.insert(ptr(30, 1));
        list.insert(ptr(40, 0));
        let snap = PeerSnapshot::capture(
            1,
            0,
            NodeIdentity::new(NodeId(0), Level::new(0)),
            Addr(0),
            &list,
        );
        let ids: Vec<u128> = snap.strongest(3).iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![20, 40, 30]);
    }

    #[test]
    fn strongest_handles_every_budget() {
        let mut list = PeerList::new(Prefix::EMPTY);
        for i in 0..200u128 {
            list.insert(ptr(i * 7 + 1, ((i * 13) % 6) as u8));
        }
        let snap = PeerSnapshot::capture(
            1,
            0,
            NodeIdentity::new(NodeId(0), Level::new(0)),
            Addr(0),
            &list,
        );
        let mut want: Vec<&Pointer> = snap.pointers().iter().collect();
        want.sort_by_key(|p| (p.level.value(), p.id));
        assert!(snap.strongest(0).is_empty());
        for k in [1, 2, 17, 199, 200, 201, usize::MAX] {
            assert_eq!(snap.strongest(k), want[..k.min(200)], "k = {k}");
        }
        assert!(PeerSnapshot::empty().strongest(3).is_empty());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn a_small_epoch_shares_most_runs() {
        let mut rng = 29u64;
        let mut list = PeerList::new(Prefix::EMPTY);
        let mut members = Vec::new();
        let info = |rng: &mut u64| Bytes::from(splitmix(rng).to_le_bytes().to_vec());
        while members.len() < 50_000 {
            let id = NodeId((splitmix(&mut rng) as u128) << 64 | splitmix(&mut rng) as u128);
            let p = Pointer::with_info(id, Addr(7), Level::new(0), info(&mut rng));
            if list.insert(p).is_none() {
                members.push(id);
            }
        }
        let me = NodeIdentity::new(NodeId(1), Level::TOP);
        let mut publisher = SnapshotPublisher::new();
        let reader = publisher.reader();
        assert!(publisher.maybe_publish_list(me, Addr(1), &list, 1));
        let before = reader.load();
        // `query_serve`'s mix: 20 % joins, 20 % departures, 60 % info
        // updates.
        for _ in 0..256 {
            let pick = (splitmix(&mut rng) % members.len() as u64) as usize;
            match splitmix(&mut rng) % 10 {
                0..=1 => {
                    let id = NodeId(splitmix(&mut rng) as u128);
                    list.insert(Pointer::new(id, Addr(7), Level::new(1)));
                    members.push(id);
                }
                2..=3 => {
                    list.remove(members.swap_remove(pick));
                }
                _ => {
                    list.update_info(members[pick], info(&mut rng), 2);
                }
            }
        }
        assert!(publisher.maybe_publish_list(me, Addr(1), &list, 2));
        let after = reader.load();
        assert!(after.is_well_formed());
        assert!(after.pointers().iter().eq(list.iter()));
        let shared = after
            .runs()
            .iter()
            .filter(|run| before.runs().iter().any(|was| Arc::ptr_eq(was, run)))
            .count();
        // Reads 1 381 of 1 565 (88 %) at `RUN_LEN` 32.
        assert!(
            3 * shared >= 2 * after.runs().len(),
            "{shared} of {} runs shared",
            after.runs().len()
        );
    }

    #[test]
    fn directory_registers_and_resolves() {
        let dir = SnapshotDirectory::new();
        assert!(dir.reader(3).is_none());
        let mut p = dir.register(3);
        let list = PeerList::new(Prefix::EMPTY);
        p.maybe_publish_list(
            NodeIdentity::new(NodeId(3), Level::new(0)),
            Addr(3),
            &list,
            5,
        );
        let r = dir.reader(3).expect("registered");
        assert_eq!(r.load().epoch, 1);
        assert_eq!(dir.actors(), vec![3]);
    }

    /// One list operation of the runs proptest, over a universe of
    /// [`UNIVERSE`] ids spread across the id space. The span operations
    /// insert or remove up to 80 neighbours at once, so rebuilt runs
    /// split, and shrink until they merge, and the changes between two
    /// publishes often outrun the list's change log (at most 64 ids for
    /// this universe). `TouchAll` refreshes every member: more bumps than
    /// the log keeps, none of them content, so the publish after it is
    /// skipped and the next one cuts fresh runs. `Replace` swaps in a
    /// clone: another instance, at the same content generation.
    #[derive(Clone, Debug)]
    enum Op {
        Insert { id: u16, level: u8, info: u8 },
        InsertSpan { from: u16, count: u8 },
        Remove { id: u16 },
        RemoveSpan { from: u16, count: u8 },
        Level { id: u16, level: u8 },
        Info { id: u16, info: u8 },
        Touch { id: u16 },
        TouchAll,
        Replace,
        Publish,
    }

    const UNIVERSE: u16 = 1_024;

    fn arb_op() -> impl Strategy<Value = Op> {
        let id = || 0..UNIVERSE;
        prop_oneof![
            (id(), 0u8..6, any::<u8>()).prop_map(|(id, level, info)| Op::Insert {
                id,
                level,
                info
            }),
            (id(), 0u8..80).prop_map(|(from, count)| Op::InsertSpan { from, count }),
            id().prop_map(|id| Op::Remove { id }),
            (id(), 0u8..80).prop_map(|(from, count)| Op::RemoveSpan { from, count }),
            (id(), 0u8..6).prop_map(|(id, level)| Op::Level { id, level }),
            (id(), any::<u8>()).prop_map(|(id, info)| Op::Info { id, info }),
            id().prop_map(|id| Op::Touch { id }),
            id().prop_map(|id| Op::Touch { id }),
            Just(Op::TouchAll),
            Just(Op::Replace),
            Just(Op::Publish),
            Just(Op::Publish),
            Just(Op::Publish),
        ]
    }

    fn member(id: u16) -> NodeId {
        NodeId((id as u128 + 1) << 110)
    }

    /// Attachments that are empty, one shared static buffer, or owned
    /// buffers whose bytes repeat across pointers.
    fn attachment(info: u8) -> Bytes {
        match info % 4 {
            0 => Bytes::new(),
            1 => Bytes::from_static(b"shared"),
            _ => Bytes::from(vec![info; 1 + info as usize % 3]),
        }
    }

    fn pointer_at(id: u16, level: u8, info: u8, now: u64) -> Pointer {
        let mut p = Pointer::with_info(
            member(id),
            Addr(id as u64),
            Level::new(level),
            attachment(info),
        );
        p.last_refresh_us = now;
        p.first_seen_us = now / 2;
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Capture against the previous epoch publishes exactly the
        /// list, whether the change log reaches back to it or not: after
        /// each publish the flattened snapshot equals `list.iter()` field
        /// for field (refresh stamps included), the runs keep their
        /// invariants, every shared run holds what it held in the epoch
        /// it came from, and that epoch, still held, is intact.
        #[test]
        fn runs_publish_exactly_the_list(ops in proptest::collection::vec(arb_op(), 1..240)) {
            let me = NodeIdentity::new(NodeId(1), Level::new(0));
            let mut list = PeerList::new(Prefix::EMPTY);
            let mut publisher = SnapshotPublisher::new();
            let reader = publisher.reader();
            let mut previous: Option<(Arc<PeerSnapshot>, Vec<Vec<Pointer>>)> = None;
            let span = |from: u16, count: u8| (0..count as u16).map(move |i| (from + i) % UNIVERSE);
            for (now, op) in ops.iter().chain([&Op::Publish]).enumerate() {
                let now = now as u64;
                match *op {
                    Op::Insert { id, level, info } => {
                        list.insert(pointer_at(id, level, info, now));
                    }
                    Op::InsertSpan { from, count } => {
                        for id in span(from, count) {
                            list.insert(pointer_at(id, (id % 6) as u8, id as u8, now));
                        }
                    }
                    Op::Remove { id } => {
                        list.remove(member(id));
                    }
                    Op::RemoveSpan { from, count } => {
                        for id in span(from, count) {
                            list.remove(member(id));
                        }
                    }
                    Op::Level { id, level } => {
                        list.update_level(member(id), Level::new(level));
                    }
                    Op::Info { id, info } => {
                        list.update_info(member(id), attachment(info), now);
                    }
                    Op::Touch { id } => {
                        list.touch(member(id), now);
                    }
                    Op::TouchAll => {
                        for id in 0..UNIVERSE {
                            list.touch(member(id), now);
                        }
                    }
                    Op::Replace => {
                        list = list.clone();
                    }
                    Op::Publish => {
                        if !publisher.maybe_publish_list(me, Addr(1), &list, now) {
                            prop_assert_eq!(reader.load().epoch, publisher.epoch());
                            continue;
                        }
                        let snap = reader.load();
                        prop_assert!(snap.is_well_formed());
                        prop_assert_eq!(snap.len(), list.len());
                        prop_assert!(snap.pointers().iter().eq(list.iter()));
                        for (i, p) in list.iter().enumerate().step_by(7) {
                            prop_assert_eq!(&snap.pointers()[i], p);
                            prop_assert_eq!(snap.get(p.id), Some(p));
                        }
                        if let Some((was, was_runs)) = &previous {
                            for run in snap.runs() {
                                if let Some(k) = was.runs().iter().position(|r| Arc::ptr_eq(r, run)) {
                                    prop_assert_eq!(&run[..], &was_runs[k][..]);
                                }
                            }
                            prop_assert!(was.pointers().iter().eq(was_runs.iter().flatten()));
                        }
                        let runs = snap.runs().iter().map(|run| run.to_vec()).collect();
                        previous = Some((snap, runs));
                    }
                }
            }
        }
    }
}
