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
//! [`PeerList::generation`]) and publishes it through a [`Published`]
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
//!   probing circle, so prefix slices are contiguous ranges.

use crate::id::{NodeId, Prefix};
use crate::level::{Level, NodeIdentity};
use crate::node::NodeMachine;
use crate::peer_list::PeerList;
use crate::pointer::{Addr, Pointer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Ring size of a [`Published`] cell. Readers only retry when a writer
/// completes `SLOTS - 1` publications between two adjacent reader
/// instructions; 4 makes that practically impossible while keeping the
/// cell at half a cache line of lock words.
pub const SLOTS: usize = 4;

/// An immutable, cheaply-cloneable view of one node's peer list at a
/// publication instant. Shared as `Arc<PeerSnapshot>`; cloning the `Arc`
/// is the unit of snapshot distribution, cloning the struct copies the
/// pointer vector.
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
    /// [`PeerList::generation`] at capture time (diagnostic: lets an
    /// embedder correlate a snapshot with the mutation counter).
    pub generation: u64,
    /// All pointers, sorted by [`NodeId`].
    pointers: Vec<Pointer>,
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
            pointers: Vec::new(),
        }
    }

    /// Captures a snapshot from explicit parts (harnesses that drive a
    /// bare [`PeerList`] rather than a whole machine).
    pub fn capture(epoch: u64, at_us: u64, me: NodeIdentity, addr: Addr, list: &PeerList) -> Self {
        PeerSnapshot {
            epoch,
            at_us,
            me,
            addr,
            scope: list.scope(),
            generation: list.generation(),
            pointers: list.iter().cloned().collect(),
        }
    }

    /// Captures a snapshot of a machine's current list and identity.
    pub fn capture_machine(epoch: u64, at_us: u64, m: &NodeMachine) -> Self {
        Self::capture(
            epoch,
            at_us,
            NodeIdentity::new(m.id(), m.level()),
            m.addr(),
            m.peers(),
        )
    }

    /// All pointers, sorted by [`NodeId`].
    #[inline]
    pub fn pointers(&self) -> &[Pointer] {
        &self.pointers
    }

    /// Number of pointers held.
    #[inline]
    pub fn len(&self) -> usize {
        self.pointers.len()
    }

    /// Whether the snapshot holds no pointers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pointers.is_empty()
    }

    /// Looks up a pointer by id (binary search over the sorted vector).
    pub fn get(&self, id: NodeId) -> Option<&Pointer> {
        self.pointers
            .binary_search_by_key(&id, |p| p.id)
            .ok()
            .map(|i| &self.pointers[i])
    }

    /// The contiguous slice of pointers whose ids fall inside `prefix`.
    pub fn prefix_slice(&self, prefix: Prefix) -> &[Pointer] {
        let range = prefix.id_range();
        let lo = self.pointers.partition_point(|p| p.id < *range.start());
        let hi = self.pointers.partition_point(|p| p.id <= *range.end());
        &self.pointers[lo..hi]
    }

    /// Up to `k` pointers at the strongest levels (§3's "powerful nodes"
    /// heuristic), strongest level first, ties by smallest id. Core-level
    /// so thin embedders (the transport control port) can serve it
    /// without the application-layer query engine.
    pub fn strongest(&self, k: usize) -> Vec<&Pointer> {
        let key = |p: &&Pointer| (p.level.value(), p.id);
        let mut all: Vec<&Pointer> = self.pointers.iter().collect();
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
    /// hold (sorted, deduplicated ids). Cheap; used by tests and debug
    /// assertions in the publisher.
    pub fn is_well_formed(&self) -> bool {
        self.pointers.windows(2).all(|w| w[0].id < w[1].id)
    }
}

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
    /// [`PeerList::content_generation`] at the last publication;
    /// `u64::MAX` forces the first `maybe_publish` to publish. Gating on
    /// the *content* counter keeps the steady-state hot path free: §4.6
    /// probe acks only touch refresh stamps, which no serving-layer
    /// query observes, so they cost one integer compare instead of an
    /// O(n) capture. (A published pointer's `last_refresh_us` may
    /// therefore trail the live list's by up to one content change.)
    last_generation: u64,
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
            last_generation: u64::MAX,
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
    /// info, or scope changes — refresh-stamp touches don't count).
    /// Returns `true` when a snapshot was published. Pure observation:
    /// never mutates the machine, so enabling publication cannot change
    /// a simulation's fingerprint.
    pub fn maybe_publish(&mut self, m: &NodeMachine, now_us: u64) -> bool {
        let content = m.peers().content_generation();
        if content == self.last_generation {
            return false;
        }
        self.epoch += 1;
        let snap = PeerSnapshot::capture_machine(self.epoch, now_us, m);
        self.last_generation = content;
        debug_assert!(snap.is_well_formed());
        self.cell.publish(Arc::new(snap));
        true
    }

    /// Captures and publishes from explicit parts (harnesses driving a
    /// bare [`PeerList`]). Generation-gated like [`Self::maybe_publish`].
    pub fn maybe_publish_list(
        &mut self,
        me: NodeIdentity,
        addr: Addr,
        list: &PeerList,
        now_us: u64,
    ) -> bool {
        let content = list.content_generation();
        if content == self.last_generation {
            return false;
        }
        self.epoch += 1;
        let snap = PeerSnapshot::capture(self.epoch, now_us, me, addr, list);
        self.last_generation = content;
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
    fn snapshot_prefix_slice_matches_list_ranges() {
        let mut list = PeerList::new(Prefix::EMPTY);
        for i in 0..64u128 {
            list.insert(ptr(i << 121, (i % 4) as u8));
        }
        let snap = PeerSnapshot::capture(
            1,
            0,
            NodeIdentity::new(NodeId(0), Level::new(0)),
            Addr(0),
            &list,
        );
        assert!(snap.is_well_formed());
        for bits in ["0", "1", "01", "101", "0000"] {
            let prefix = Prefix::from_bits_str(bits).unwrap();
            let from_list: Vec<NodeId> = list.iter_prefix(prefix).map(|p| p.id).collect();
            let from_snap: Vec<NodeId> = snap.prefix_slice(prefix).iter().map(|p| p.id).collect();
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
}
