//! Conservative parallel discrete-event engine (the ONSP substitute).
//!
//! The paper ran its experiments on ONSP, a parallel discrete-event
//! platform using MPI across a 16-server cluster. This module provides the
//! shared-memory analogue: actors are partitioned into shards, each shard
//! owns a private event queue (the [`crate::sched`] binary heap), and
//! execution proceeds in synchronised *windows* of length equal to the
//! *lookahead* — the minimum cross-shard message latency, i.e. the
//! minimum of the latency matrix for PeerWindow topologies. Within a
//! window every shard processes its local events independently; messages
//! to other shards are buffered, handed off in per-destination batches,
//! and merged in a canonical order, so a run is **bit-deterministic for
//! any shard and worker count**, and the *set* of deliveries is identical
//! across shard counts (asserted by tests).
//!
//! ## Window protocol
//!
//! Earlier revisions spawned a fresh set of scoped threads for every
//! window and merged all cross-shard traffic on the coordinating thread —
//! a full OS-level barrier (two thread lifecycles plus a join) per
//! lookahead window, which made throughput *drop* as shards were added.
//! The engine now runs a fixed worker pool for the whole of
//! [`ParallelEngine::run_until`], with windows sequenced by a
//! sense-reversing **spin barrier** (a pair of `std` atomics; a window
//! transition costs a fetch-add and a few cache-line bounces instead of
//! thread spawns) and cross-shard handoff through a **mailbox matrix**:
//! one padded slot per (source, destination) shard pair. A source flushes
//! each non-empty per-destination bucket into its mailbox slot once per
//! window (a `Vec` swap — the batch moves, not the messages), and after
//! the phase barrier each destination drains its mailbox column, sorts the
//! batch by the canonical `(at, src_shard, src_seq)` key, and schedules it
//! into its own queue. Every slot is written only by its source's worker
//! during phase 1 and read only by its destination's worker during phase
//! 2, with a barrier between — the slot mutexes are therefore *never
//! contended* (each `lock` is a single uncontended atomic exchange; the
//! mutex exists to satisfy the compiler, the barrier is what excludes
//! concurrent access).
//!
//! Worker panics (e.g. a lookahead violation) poison the barrier: peers
//! drain out cleanly instead of spinning forever, and the original panic
//! payload is re-thrown by the coordinating thread.
//!
//! With a single worker (or a single shard) the engine takes a dedicated
//! sequential path with no atomics, no mutexes, and no threads at all —
//! the path a 1-core host measures — which is bit-identical to the
//! threaded path because window boundaries and merge order are pure
//! functions of simulated time, never of scheduling.
//!
//! Actor placement is pluggable through [`ShardMap`]; the default
//! [`ModuloShardMap`] reproduces the historical `actor % shards`
//! partition, while topology-aware maps (e.g. grouping overlay addresses
//! by transit-stub domain) can cut cross-shard traffic dramatically.
//!
//! Correctness rests on the classic conservative-synchronisation argument:
//! a message sent during window `[w, w+δ)` to another shard carries a
//! timestamp `≥ w+δ` (enforced by assertion), so no shard can receive a
//! message that should have pre-empted work it already did.

use crate::emetrics::EngineMetrics;
use crate::sched::EventQueue;
use crate::time::SimTime;
use peerwindow_metrics::runtime::{
    Counter, MetricsSink, RunReport, SampleKind, ShardReport, TimeCat,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shard-local simulation logic: the state of all actors owned by one
/// shard, plus the message handler.
pub trait ShardLogic: Send {
    /// Inter-actor message type.
    type Msg: Send;

    /// Delivers `msg` to `actor` at time `now`; follow-up sends go into
    /// `out`.
    fn handle(&mut self, now: SimTime, actor: u32, msg: Self::Msg, out: &mut Outbox<Self::Msg>);

    /// An order-insensitive digest of the shard's state, for cross-run and
    /// cross-shard-count validation.
    fn fingerprint(&self) -> u64 {
        0
    }
}

/// Maps actors to shards. Implementations must be pure functions of
/// `(actor, shards)` — the partition is consulted on every send, from
/// worker threads, and must never change during a run.
pub trait ShardMap: Sync {
    /// The shard owning `actor` when `shards` shards exist. Must return a
    /// value in `0..shards`.
    fn shard_of(&self, actor: u32, shards: usize) -> usize;
}

/// The default static partition: `actor % shards`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuloShardMap;

impl ShardMap for ModuloShardMap {
    #[inline]
    fn shard_of(&self, actor: u32, shards: usize) -> usize {
        actor as usize % shards
    }
}

/// Collects the sends emitted by a handler.
pub struct Outbox<M> {
    now: SimTime,
    sends: Vec<(SimTime, u32, M)>,
}

impl<M> Outbox<M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `actor` after `delay_us`. Cross-shard sends must
    /// respect the engine's lookahead (checked at the window boundary).
    #[inline]
    pub fn send(&mut self, delay_us: u64, actor: u32, msg: M) {
        self.sends.push((self.now + delay_us, actor, msg));
    }
}

/// A cross-shard message in flight, keyed for the canonical
/// `(at, src_shard, src_seq)` merge ordering.
struct Inbound<M> {
    at: SimTime,
    src_shard: u32,
    src_seq: u64,
    actor: u32,
    msg: M,
}

/// Pads a mailbox slot to its own cache line so two sources flushing
/// adjacent slots never false-share.
#[repr(align(64))]
struct MailSlot<M>(Mutex<Vec<Inbound<M>>>);

/// The sense-reversing spin barrier sequencing window phases. `wait`
/// returns `true` for exactly one caller per generation (the "leader", the
/// last to arrive), which is where the per-window coordination — picking
/// the next window bound — runs.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    parties: usize,
    /// Set by a panicking worker's drop guard; spinners drain out cleanly
    /// instead of waiting for a generation that will never come.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parties,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all parties arrive. Returns `Some(true)` for the
    /// leader, `Some(false)` for everyone else, and `None` when the
    /// barrier was poisoned (the caller must abandon the run).
    fn wait(&self) -> Option<bool> {
        // audit: ordering — Acquire pairs with the leader's AcqRel bump:
        // the generation observed here is the round this arrival joins.
        let gen = self.generation.load(Ordering::Acquire);
        // audit: ordering — AcqRel: the Release half publishes this
        // worker's pre-barrier writes; the leader's final Acquire on the
        // same RMW chain observes all of them before planning the window.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Reset before releasing the generation so early risers can't
            // race the counter of the next round.
            // audit: ordering — Relaxed is enough: the store is ordered
            // before the generation bump below, which is what spinners
            // synchronize on; nobody reads `arrived` outside a round.
            self.arrived.store(0, Ordering::Relaxed);
            // audit: ordering — the Release half publishes the reset (and
            // the leader's window plan, stored before the second wait)
            // to every spinner's Acquire load below.
            self.generation.fetch_add(1, Ordering::AcqRel);
            return Some(true);
        }
        let mut spins = 0u32;
        // audit: ordering — Acquire pairs with the leader's bump so the
        // leader's writes are visible the moment the spin exits.
        while self.generation.load(Ordering::Acquire) == gen {
            // audit: ordering — pairs with the PoisonGuard Release store;
            // the unwinding worker's writes are visible before we drain.
            if self.poisoned.load(Ordering::Acquire) {
                return None;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                // Oversubscribed hosts (workers > cores) must still make
                // progress; yielding keeps the barrier correct there at
                // the cost of a syscall per slice.
                std::thread::yield_now();
            }
        }
        Some(false)
    }
}

/// Marks the barrier poisoned if its worker unwinds, so sibling workers
/// stop spinning and drain out.
struct PoisonGuard<'a>(&'a SpinBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // audit: ordering — Release pairs with the spinners' Acquire
            // poison check so they observe the flag (and everything the
            // panicking worker wrote) before abandoning the run.
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

struct Shard<L: ShardLogic> {
    logic: L,
    queue: EventQueue<(u32, L::Msg)>,
    /// Orders this shard's cross-shard sends within a window.
    send_seq: u64,
    processed: u64,
    /// Persistent outbox reused across every handled event.
    outbox: Outbox<L::Msg>,
    /// Persistent per-destination buckets for cross-shard sends
    /// (`remote[dest]`), filled during phase 1, batch-flushed at the
    /// window boundary.
    remote: Vec<Vec<Inbound<L::Msg>>>,
    /// Destinations whose bucket went non-empty this window, so the flush
    /// and the sequential merge touch only live buckets instead of
    /// scanning all `shards²` pairs.
    dirty: Vec<u32>,
    /// Phase-2 merge scratch (the threaded path needs one per shard, the
    /// sequential path reuses shard 0's).
    merge: Vec<Inbound<L::Msg>>,
    /// Per-shard runtime-metrics slot (cache-line padded; a ZST unless
    /// the `runtime-metrics` feature is on). Only ever touched by the
    /// worker that owns this shard, so recording is lock-free.
    stats: EngineMetrics,
}

/// Runs one shard's share of a window: drain local events below
/// `window_end`, keeping local follow-ups and bucketing cross-shard sends
/// by destination.
fn run_window_shard<L: ShardLogic, M: ShardMap>(
    shard_idx: usize,
    shard: &mut Shard<L>,
    map: &M,
    shards: usize,
    window_end: SimTime,
    lookahead_us: u64,
) {
    // `window_end` is exclusive; `pop_until` is inclusive.
    let limit = SimTime(window_end.as_micros() - 1);
    let processed_before = shard.processed;
    while let Some((now, (actor, msg))) = shard.queue.pop_until(limit) {
        shard.processed += 1;
        shard.outbox.now = now;
        shard.logic.handle(now, actor, msg, &mut shard.outbox);
        for (at, dst_actor, m) in shard.outbox.sends.drain(..) {
            let dest = map.shard_of(dst_actor, shards);
            if dest == shard_idx {
                shard.queue.schedule(at, (dst_actor, m));
            } else {
                assert!(
                    at >= window_end || at.as_micros() >= now.as_micros() + lookahead_us,
                    "cross-shard send violates lookahead: at {at:?}, window ends {window_end:?}"
                );
                shard.send_seq += 1;
                let bucket = &mut shard.remote[dest];
                if bucket.is_empty() {
                    shard.dirty.push(dest as u32);
                }
                bucket.push(Inbound {
                    at,
                    src_shard: shard_idx as u32,
                    src_seq: shard.send_seq,
                    actor: dst_actor,
                    msg: m,
                });
            }
        }
    }
    shard.send_seq = 0;
    // Per-window (not per-event) metrics cadence: one counter add and two
    // histogram observes per non-idle window keeps the enabled overhead
    // inside the release gate.
    if EngineMetrics::ACTIVE && shard.stats.enabled() {
        let delta = shard.processed - processed_before;
        if delta > 0 {
            shard.stats.add(Counter::Events, delta);
            shard
                .stats
                .observe(SampleKind::EventsPerWindow, delta as f64);
            shard
                .stats
                .observe(SampleKind::QueueDepth, shard.queue.len() as f64);
        }
    }
}

/// Sorts a destination's merged batch canonically and schedules it. The
/// `(at, src_shard, src_seq)` key is unique, so the resulting insertion
/// order — and with it the destination queue's FIFO tie-break — is a pure
/// function of the traffic, independent of which worker merged it or in
/// which order the batches were gathered.
fn commit_merge<L: ShardLogic>(shard: &mut Shard<L>) {
    shard
        .merge
        .sort_unstable_by_key(|r| (r.at, r.src_shard, r.src_seq));
    for r in shard.merge.drain(..) {
        shard.queue.schedule(r.at, (r.actor, r.msg));
    }
}

/// Shared per-run coordination state for the threaded path.
struct WindowCtrl {
    barrier: SpinBarrier,
    /// `fetch_min` target for the earliest pending event across shards;
    /// `u64::MAX` means "no pending events".
    next_min: AtomicU64,
    /// End of the window being executed (valid between the plan and
    /// commit barriers).
    window_end: AtomicU64,
    /// Committed simulated time (the leader advances it window by window).
    now_us: AtomicU64,
    /// Set by the leader when no window remains before `until`.
    done: AtomicBool,
}

/// The parallel engine: `S` shards advancing in lockstep windows, with an
/// actor partition given by `M`.
pub struct ParallelEngine<L: ShardLogic, M: ShardMap = ModuloShardMap> {
    shards: Vec<Shard<L>>,
    map: M,
    lookahead_us: u64,
    now: SimTime,
    workers: usize,
    /// Mailbox matrix, `mail[src * n + dest]`; see the module docs for the
    /// phase-disjoint access discipline that keeps every lock uncontended.
    mail: Vec<MailSlot<L::Msg>>,
    /// Engine-level runtime-metrics timeline: the sequential path records
    /// into it directly; the threaded path absorbs each worker's private
    /// timeline into it when the pool drains.
    metrics: EngineMetrics,
}

impl<L: ShardLogic> ParallelEngine<L, ModuloShardMap> {
    /// Builds an engine over the given shard logics with the default
    /// modulo partition. `lookahead_us` must be a lower bound on every
    /// cross-shard message delay (for PeerWindow topologies: the minimum
    /// link latency, 1 ms).
    ///
    /// # Panics
    /// Panics if `shards` is empty or `lookahead_us == 0`.
    pub fn new(shards: Vec<L>, lookahead_us: u64) -> Self {
        Self::with_map(shards, lookahead_us, ModuloShardMap)
    }
}

impl<L: ShardLogic, M: ShardMap> ParallelEngine<L, M> {
    /// Builds an engine with an explicit actor-to-shard partition.
    ///
    /// # Panics
    /// Panics if `shards` is empty or `lookahead_us == 0`.
    pub fn with_map(shards: Vec<L>, lookahead_us: u64, map: M) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(lookahead_us > 0, "lookahead must be positive");
        let n = shards.len();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        ParallelEngine {
            shards: shards
                .into_iter()
                .map(|logic| Shard {
                    logic,
                    queue: EventQueue::new(),
                    send_seq: 0,
                    processed: 0,
                    outbox: Outbox {
                        now: SimTime::ZERO,
                        sends: Vec::new(),
                    },
                    remote: (0..n).map(|_| Vec::new()).collect(),
                    dirty: Vec::new(),
                    merge: Vec::new(),
                    // Without the runtime-metrics feature this is the
                    // Noop ZST; `default()` is the one spelling that
                    // compiles under both cfgs.
                    #[allow(clippy::default_constructed_unit_structs)]
                    stats: EngineMetrics::default(),
                })
                .collect(),
            map,
            lookahead_us,
            now: SimTime::ZERO,
            workers,
            mail: (0..n * n)
                .map(|_| MailSlot(Mutex::new(Vec::new())))
                .collect(),
            #[allow(clippy::default_constructed_unit_structs)]
            metrics: EngineMetrics::default(),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of worker threads `run_until` will use (1 means the
    /// sequential path). Defaults to `min(available cores, shards)`.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Overrides the worker count (clamped to `1..=shards`). The result
    /// of a run is bit-identical for every worker count — this exists so
    /// tests can exercise the threaded window protocol on small hosts and
    /// benchmarks can measure scaling honestly.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.clamp(1, self.shards.len());
    }

    /// The shard owning `actor` under the engine's partition.
    #[inline]
    pub fn shard_of(&self, actor: u32) -> usize {
        self.map.shard_of(actor, self.shards.len())
    }

    /// Current window start time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Read access to a shard's logic.
    pub fn logic(&self, shard: usize) -> &L {
        &self.shards[shard].logic
    }

    /// Every shard's logic, in shard order.
    pub fn logics(&self) -> impl Iterator<Item = &L> {
        self.shards.iter().map(|s| &s.logic)
    }

    /// Mutable access to every shard's logic (harness configuration
    /// between windows — e.g. toggling tracing — never during a window).
    pub fn logics_mut(&mut self) -> impl Iterator<Item = &mut L> {
        self.shards.iter_mut().map(|s| &mut s.logic)
    }

    /// Samples engine-level counters into a trace registry.
    #[cfg(feature = "trace")]
    pub fn sample_into(&self, reg: &mut peerwindow_trace::CounterRegistry) {
        reg.set("engine.processed", self.processed());
        reg.set_gauge("engine.shards", self.shards.len() as f64);
        reg.set_gauge("engine.workers", self.workers as f64);
        reg.set_gauge(
            "engine.pending",
            self.shards.iter().map(|s| s.queue.len()).sum::<usize>() as f64,
        );
    }

    /// Combined order-insensitive fingerprint of all shards.
    pub fn fingerprint(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.logic.fingerprint()))
    }

    /// Turns runtime-metrics recording on or off. A no-op (and never any
    /// overhead) unless the `runtime-metrics` feature is compiled in;
    /// wall-clock reads are write-only observation either way, so the
    /// run's fingerprint is byte-identical with metrics on or off.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
        for shard in &mut self.shards {
            shard.stats.set_enabled(on);
        }
    }

    /// Whether runtime metrics are currently recording (always `false`
    /// when compiled out).
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.enabled()
    }

    /// Builds the merged wall-clock run report: per-phase time, counters,
    /// distributions, and per-shard event counts. Empty (all zeros, no
    /// shard rows) when the `runtime-metrics` feature is compiled out.
    pub fn metrics_report(&self, name: &str) -> RunReport {
        let mut r = RunReport::new(name, self.shards.len() as u64, self.workers as u64);
        self.metrics.fold_into(&mut r);
        for (i, shard) in self.shards.iter().enumerate() {
            shard.stats.fold_into(&mut r);
            if EngineMetrics::ACTIVE && shard.stats.enabled() {
                r.per_shard.push(ShardReport {
                    shard: i as u64,
                    events: shard.processed,
                    handoff_msgs: shard.stats.get(Counter::HandoffMsgs),
                    pending: shard.queue.len() as u64,
                });
            }
        }
        r
    }

    /// Schedules an initial message (setup).
    ///
    /// `at` is clamped to the engine's current time: scheduling into the
    /// past would violate the windows already committed, so a past `at`
    /// is delivered at `now()` instead. Schedule setup events before
    /// calling [`Self::run_until`] to avoid the clamp.
    pub fn schedule(&mut self, at: SimTime, actor: u32, msg: L::Msg) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past (at {at:?} < now {:?}); the event will be clamped to now()",
            self.now
        );
        let shard = self.map.shard_of(actor, self.shards.len());
        self.shards[shard]
            .queue
            .schedule(at.max(self.now), (actor, msg));
    }

    /// Runs windows until simulated time reaches `until` or all queues
    /// drain.
    pub fn run_until(&mut self, until: SimTime) {
        if self.workers <= 1 || self.shards.len() == 1 {
            self.run_until_sequential(until);
        } else {
            self.run_until_threaded(until);
        }
        self.now = self.now.max(until);
    }

    /// The no-thread path: all shards on the calling thread, no atomics,
    /// no locks. Bit-identical to the threaded path.
    fn run_until_sequential(&mut self, until: SimTime) {
        let n = self.shards.len();
        let metrics_on = EngineMetrics::ACTIVE && self.metrics.enabled();
        if metrics_on {
            self.metrics.mark();
        }
        while self.now < until {
            let earliest = self
                .shards
                .iter()
                .filter_map(|s| s.queue.peek_min_at())
                .min();
            let Some(earliest) = earliest else {
                break; // all queues empty
            };
            if earliest >= until {
                break;
            }
            // Skip idle gaps: jump the window to the earliest pending event.
            let window_start = self.now.max(earliest);
            let window_end = (window_start + self.lookahead_us).min(until);
            if metrics_on {
                self.metrics.lap(TimeCat::Coord);
            }

            // Phase 1: local processing per shard.
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                run_window_shard(idx, shard, &self.map, n, window_end, self.lookahead_us);
            }
            if metrics_on {
                self.metrics.lap(TimeCat::Execute);
                self.metrics.add(Counter::Windows, 1);
                self.metrics.observe(
                    SampleKind::WindowWidthUs,
                    (window_end.as_micros() - window_start.as_micros()) as f64,
                );
            }

            // Phase 2: gather each source's dirty buckets into the
            // destinations' merge buffers, then commit each destination
            // canonically. Append order across sources is irrelevant —
            // the sort key is unique — so draining by source is fine.
            for src in 0..n {
                for k in 0..self.shards[src].dirty.len() {
                    let dest = self.shards[src].dirty[k] as usize;
                    let mut bucket = std::mem::take(&mut self.shards[src].remote[dest]);
                    if metrics_on {
                        let stats = &mut self.shards[src].stats;
                        stats.add(Counter::HandoffMsgs, bucket.len() as u64);
                        stats.add(Counter::HandoffBatches, 1);
                        stats.observe(SampleKind::HandoffBatch, bucket.len() as f64);
                    }
                    self.shards[dest].merge.append(&mut bucket);
                    self.shards[src].remote[dest] = bucket; // keep capacity
                }
                self.shards[src].dirty.clear();
            }
            for shard in &mut self.shards {
                if !shard.merge.is_empty() {
                    commit_merge(shard);
                }
            }
            if metrics_on {
                self.metrics.lap(TimeCat::Merge);
            }
            self.now = window_end;
        }
    }

    /// The worker-pool path: one thread per worker for the whole run,
    /// windows sequenced by the spin barrier, handoff via the mailbox
    /// matrix.
    fn run_until_threaded(&mut self, until: SimTime) {
        let n = self.shards.len();
        let workers = self.workers.min(n);
        let chunk = n.div_ceil(workers);
        // chunks_mut(chunk) yields ceil(n/chunk) slices, which can be fewer
        // than `workers` (e.g. 5 shards / 4 workers -> chunk 2 -> 3 threads).
        // The barrier must be sized to the threads that actually arrive or
        // every wait spins forever.
        let spawned = n.div_ceil(chunk);
        let ctrl = WindowCtrl {
            barrier: SpinBarrier::new(spawned),
            next_min: AtomicU64::new(u64::MAX),
            window_end: AtomicU64::new(0),
            now_us: AtomicU64::new(self.now.as_micros()),
            done: AtomicBool::new(false),
        };
        let map = &self.map;
        let mail = &self.mail[..];
        let lookahead = self.lookahead_us;
        let until_us = until.as_micros();
        let metrics_on = EngineMetrics::ACTIVE && self.metrics.enabled();

        let timelines = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(spawned);
            for (c, shards) in self.shards.chunks_mut(chunk).enumerate() {
                let ctrl = &ctrl;
                handles.push(scope.spawn(move || {
                    let _guard = PoisonGuard(&ctrl.barrier);
                    let base = c * chunk;
                    // Each worker keeps a private lap-based timeline and
                    // returns it; the pool owner absorbs them after the
                    // join. Laps partition the worker's wall-clock time
                    // exactly, so attribution fractions sum to 1.
                    #[allow(clippy::default_constructed_unit_structs)]
                    let mut tl = EngineMetrics::default();
                    if metrics_on {
                        tl.set_enabled(true);
                    }
                    loop {
                        // Post the earliest pending time of the owned
                        // shards, then elect a leader to plan the window.
                        for shard in shards.iter() {
                            if let Some(t) = shard.queue.peek_min_at() {
                                // audit: ordering — AcqRel: concurrent
                                // posts chain through the RMW, and the
                                // barrier that follows publishes the min
                                // to the leader.
                                ctrl.next_min.fetch_min(t.as_micros(), Ordering::AcqRel);
                            }
                        }
                        if metrics_on {
                            tl.lap(TimeCat::Coord);
                        }
                        let Some(leader) = ctrl.barrier.wait() else {
                            return tl;
                        };
                        if metrics_on {
                            tl.lap(TimeCat::WaitPlan);
                        }
                        if leader {
                            // audit: ordering — AcqRel: the Acquire half
                            // sees every post from before the barrier;
                            // the Release half resets the slate for the
                            // posts of the next round.
                            let earliest = ctrl.next_min.swap(u64::MAX, Ordering::AcqRel);
                            if earliest >= until_us {
                                // audit: ordering — Release; readers take
                                // the barrier's Acquire edge before their
                                // `done` check, Release keeps the pair
                                // self-contained even without it.
                                ctrl.done.store(true, Ordering::Release);
                            } else {
                                // audit: ordering — only the leader ever
                                // stores `now_us`, and its own last store
                                // is visible to itself; Acquire also
                                // covers the first round's constructor
                                // store.
                                let start = ctrl.now_us.load(Ordering::Acquire).max(earliest);
                                let end = start.saturating_add(lookahead).min(until_us);
                                // audit: ordering — Release pairs with
                                // the workers' Acquire loads after the
                                // second barrier wait.
                                ctrl.window_end.store(end, Ordering::Release);
                                // audit: ordering — Release: published to
                                // the scope parent's Acquire load at the
                                // end of the run.
                                ctrl.now_us.store(end, Ordering::Release);
                                // Exactly one worker (the leader) records
                                // the committed window, so window counts
                                // and widths are not multiplied by the
                                // worker count.
                                if metrics_on {
                                    tl.add(Counter::Windows, 1);
                                    tl.observe(SampleKind::WindowWidthUs, (end - start) as f64);
                                }
                            }
                        }
                        if ctrl.barrier.wait().is_none() {
                            return tl;
                        }
                        if metrics_on {
                            tl.lap(TimeCat::WaitPublish);
                        }
                        // audit: ordering — Acquire pairs with the
                        // leader's Release store; the barrier generation
                        // bump already ordered it, this keeps the flag
                        // readable on its own.
                        if ctrl.done.load(Ordering::Acquire) {
                            return tl;
                        }
                        // audit: ordering — Acquire pairs with the
                        // leader's Release store of this round's bound.
                        let window_end = SimTime(ctrl.window_end.load(Ordering::Acquire));

                        // Phase 1: local events, then batch-flush each
                        // dirty bucket into its mailbox slot (a Vec swap;
                        // the slot's previous — empty — vector comes back
                        // so capacity is recycled).
                        for (j, shard) in shards.iter_mut().enumerate() {
                            let idx = base + j;
                            run_window_shard(idx, shard, map, n, window_end, lookahead);
                            if metrics_on {
                                tl.lap(TimeCat::Execute);
                            }
                            for dest in shard.dirty.drain(..) {
                                if metrics_on {
                                    let len = shard.remote[dest as usize].len() as u64;
                                    shard.stats.add(Counter::HandoffMsgs, len);
                                    shard.stats.add(Counter::HandoffBatches, 1);
                                    shard.stats.observe(SampleKind::HandoffBatch, len as f64);
                                }
                                let slot = &mail[idx * n + dest as usize];
                                let mut cell =
                                    slot.0.lock().expect("mailbox poisoned by sibling panic");
                                debug_assert!(cell.is_empty());
                                std::mem::swap(&mut *cell, &mut shard.remote[dest as usize]);
                            }
                            if metrics_on {
                                tl.lap(TimeCat::Flush);
                            }
                        }
                        if ctrl.barrier.wait().is_none() {
                            return tl;
                        }
                        if metrics_on {
                            tl.lap(TimeCat::WaitCommit);
                        }

                        // Phase 2: each destination drains its mailbox
                        // column and commits the canonical merge into its
                        // own queue.
                        for (j, shard) in shards.iter_mut().enumerate() {
                            let idx = base + j;
                            for src in 0..n {
                                let slot = &mail[src * n + idx];
                                let mut cell =
                                    slot.0.lock().expect("mailbox poisoned by sibling panic");
                                shard.merge.append(&mut cell);
                            }
                            if !shard.merge.is_empty() {
                                commit_merge(shard);
                            }
                        }
                        if metrics_on {
                            tl.lap(TimeCat::Merge);
                        }
                        // No barrier needed before the next plan phase: a
                        // worker only posts minima for shards it owns, and
                        // those were last touched by this same worker.
                    }
                }));
            }
            // Join explicitly so a panicking shard (e.g. a lookahead
            // violation) propagates its own payload instead of the
            // scope's generic message. Workers that drained out due to a
            // sibling's poison return cleanly, so the only Err payload is
            // the original panic.
            let mut panic = None;
            let mut timelines = Vec::with_capacity(spawned);
            for h in handles {
                match h.join() {
                    Ok(tl) => timelines.push(tl),
                    Err(p) => {
                        panic.get_or_insert(p);
                    }
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            timelines
        });
        for tl in timelines {
            self.metrics.absorb(tl);
        }
        // audit: ordering — Acquire pairs with the leader's Release
        // stores; `scope` joining every worker already provides the
        // happens-before edge, the explicit ordering documents it.
        self.now = SimTime(ctrl.now_us.load(Ordering::Acquire)).max(self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy gossip: each delivery increments a counter and, while `hops`
    /// remain, forwards to two pseudo-random actors with ≥ lookahead delay.
    struct Gossip {
        actors: u32,
        digest: u64,
        deliveries: u64,
    }

    #[derive(Clone)]
    struct G {
        hops: u32,
        token: u64,
    }

    impl ShardLogic for Gossip {
        type Msg = G;
        fn handle(&mut self, now: SimTime, actor: u32, msg: G, out: &mut Outbox<G>) {
            self.deliveries += 1;
            // Order-insensitive digest: commutative sum of delivery hashes.
            let h = (now.as_micros() ^ (actor as u64) << 32 ^ msg.token)
                .wrapping_mul(0x9E3779B97F4A7C15);
            self.digest = self.digest.wrapping_add(h);
            if msg.hops > 0 {
                for k in 0..2u64 {
                    let t = msg.token.wrapping_mul(6364136223846793005).wrapping_add(k);
                    let dst = (t % self.actors as u64) as u32;
                    let delay = 1_000 + (t % 5_000);
                    out.send(
                        delay,
                        dst,
                        G {
                            hops: msg.hops - 1,
                            token: t,
                        },
                    );
                }
            }
        }
        fn fingerprint(&self) -> u64 {
            self.digest.wrapping_add(self.deliveries)
        }
    }

    /// Groups actors into contiguous blocks, round-robin over shards — a
    /// stand-in for locality-aware partitions.
    struct BlockMap {
        block: u32,
    }

    impl ShardMap for BlockMap {
        fn shard_of(&self, actor: u32, shards: usize) -> usize {
            (actor / self.block) as usize % shards
        }
    }

    fn run_full<M: ShardMap>(shards: usize, actors: u32, map: M, workers: usize) -> (u64, u64) {
        let logics: Vec<Gossip> = (0..shards)
            .map(|_| Gossip {
                actors,
                digest: 0,
                deliveries: 0,
            })
            .collect();
        let mut e = ParallelEngine::with_map(logics, 1_000, map);
        e.set_workers(workers);
        for i in 0..4 {
            e.schedule(
                SimTime(i as u64 * 13),
                i,
                G {
                    hops: 8,
                    token: i as u64 + 1,
                },
            );
        }
        e.run_until(SimTime::from_secs(10));
        let deliveries: u64 = (0..shards).map(|s| e.logic(s).deliveries).sum();
        (e.fingerprint(), deliveries)
    }

    fn run_with_map<M: ShardMap>(shards: usize, actors: u32, map: M) -> (u64, u64) {
        run_full(shards, actors, map, 1)
    }

    fn run(shards: usize, actors: u32) -> (u64, u64) {
        run_with_map(shards, actors, ModuloShardMap)
    }

    #[test]
    fn fixed_shard_count_is_deterministic() {
        assert_eq!(run(4, 64), run(4, 64));
        assert_eq!(run(7, 64), run(7, 64));
    }

    #[test]
    fn delivery_set_is_invariant_across_shard_counts() {
        let (f1, d1) = run(1, 64);
        let (f4, d4) = run(4, 64);
        let (f8, d8) = run(8, 64);
        assert_eq!(d1, d4);
        assert_eq!(d1, d8);
        assert_eq!(f1, f4, "digest differs between 1 and 4 shards");
        assert_eq!(f1, f8, "digest differs between 1 and 8 shards");
        // The cascade actually ran: 4 roots × (2^9 - 1) deliveries each.
        assert_eq!(d1, 4 * 511);
    }

    /// The threaded window protocol (spin barrier + mailbox matrix) is
    /// bit-identical to the sequential path for every worker count, even
    /// oversubscribed on a small host.
    #[test]
    fn worker_count_never_changes_the_run() {
        let sequential = run_full(8, 64, ModuloShardMap, 1);
        for workers in [2usize, 3, 8] {
            assert_eq!(
                sequential,
                run_full(8, 64, ModuloShardMap, workers),
                "digest differs between 1 and {workers} workers"
            );
        }
    }

    /// Shard/worker combinations where chunking spawns fewer threads than
    /// `workers` (5 shards / 4 workers -> chunk 2 -> 3 threads; 8 shards /
    /// 6 workers -> chunk 2 -> 4 threads). The barrier must be sized to
    /// the spawned count or the run hangs forever.
    #[test]
    fn uneven_chunking_spawns_fewer_threads_than_workers() {
        let sequential = run_full(5, 64, ModuloShardMap, 1);
        for workers in [3usize, 4] {
            assert_eq!(
                sequential,
                run_full(5, 64, ModuloShardMap, workers),
                "digest differs between 1 and {workers} workers at 5 shards"
            );
        }
        let sequential = run_full(8, 64, ModuloShardMap, 1);
        for workers in [5usize, 6, 7] {
            assert_eq!(
                sequential,
                run_full(8, 64, ModuloShardMap, workers),
                "digest differs between 1 and {workers} workers at 8 shards"
            );
        }
    }

    #[test]
    fn delivery_set_is_invariant_across_shard_maps() {
        let (f_mod, d_mod) = run(4, 64);
        let (f_blk, d_blk) = run_with_map(4, 64, BlockMap { block: 16 });
        let (f_blk3, d_blk3) = run_with_map(3, 64, BlockMap { block: 8 });
        assert_eq!(d_mod, d_blk);
        assert_eq!(d_mod, d_blk3);
        assert_eq!(f_mod, f_blk, "digest differs between modulo and block maps");
        assert_eq!(f_mod, f_blk3, "digest differs for block map at 3 shards");
    }

    #[test]
    fn windows_skip_idle_gaps() {
        // One event far in the future must not require millions of windows.
        struct Noop;
        impl ShardLogic for Noop {
            type Msg = ();
            fn handle(&mut self, _: SimTime, _: u32, _: (), _: &mut Outbox<()>) {}
        }
        let mut e = ParallelEngine::new(vec![Noop, Noop], 1_000);
        e.schedule(SimTime::from_secs(3600), 0, ());
        e.run_until(SimTime::from_secs(7200));
        assert_eq!(e.processed(), 1);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn cross_shard_send_below_lookahead_panics() {
        struct Bad;
        impl ShardLogic for Bad {
            type Msg = u32;
            fn handle(&mut self, _: SimTime, actor: u32, hops: u32, out: &mut Outbox<u32>) {
                if hops > 0 {
                    out.send(1, actor + 1, hops - 1); // 1 µs < lookahead
                }
            }
        }
        let mut e = ParallelEngine::new(vec![Bad, Bad], 1_000);
        e.schedule(SimTime::ZERO, 0, 1);
        e.run_until(SimTime::from_secs(1));
    }

    /// A lookahead violation inside a worker thread must surface as the
    /// original panic — not hang the barrier, not a generic scope panic.
    #[test]
    #[should_panic(expected = "lookahead")]
    fn threaded_panic_propagates_and_never_deadlocks() {
        struct Bad;
        impl ShardLogic for Bad {
            type Msg = u32;
            fn handle(&mut self, _: SimTime, actor: u32, hops: u32, out: &mut Outbox<u32>) {
                if hops > 0 {
                    out.send(1, actor + 1, hops - 1);
                }
            }
        }
        let mut e = ParallelEngine::new(vec![Bad, Bad, Bad, Bad], 1_000);
        e.set_workers(4);
        e.schedule(SimTime::ZERO, 0, 1);
        e.run_until(SimTime::from_secs(1));
    }
}
