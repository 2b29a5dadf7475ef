//! Conservative parallel discrete-event engine (the ONSP substitute).
//!
//! The paper ran its experiments on ONSP, a parallel discrete-event
//! platform using MPI across a 16-server cluster. This module provides the
//! shared-memory analogue: actors are partitioned into shards (actor `a`
//! lives on shard `a % shards`), each shard owns a private event queue
//! (the [`crate::sched`] binary heap), and execution proceeds in
//! synchronised *windows* of length equal to the *lookahead* — the
//! minimum cross-shard message latency, i.e. the minimum of the latency
//! matrix for PeerWindow topologies. Within a window every shard processes
//! its local events independently; messages to other shards are buffered,
//! handed off in per-destination batches, and merged in a canonical order,
//! so a run is **bit-deterministic for any shard and worker count**, and
//! the *set* of deliveries is identical across shard counts (asserted by
//! tests).
//!
//! ## Window protocol
//!
//! One loop runs the protocol (plan → execute → merge) for every worker
//! count. [`ParallelEngine::run_until`] splits the shards into contiguous
//! chunks, one per worker. When one worker owns every shard (one shard,
//! `set_workers(1)`, a one-core host) it runs the loop on the calling
//! thread; otherwise each worker is a scoped thread for the whole call.
//! Windows are sequenced by a sense-reversing **spin barrier** (a pair of
//! `std` atomics; a window transition costs a fetch-add and a few
//! cache-line bounces instead of thread spawns, and a lone worker's waits
//! return at once).
//!
//! A cross-shard send lands in its source shard's bucket for the
//! destination. After the source's share of the window each non-empty
//! bucket is handed off whole: straight into the destination's merge
//! buffer when the same worker owns it, otherwise into the **mailbox
//! matrix** — one padded slot per (source, destination) shard pair, filled
//! by a `Vec` swap (the batch moves, not the messages). After the phase
//! barrier each destination drains the slots of sources other workers
//! own, sorts its merge buffer by the canonical `(at, src_shard, src_seq)`
//! key, and schedules it into its own queue. Every slot is written only by
//! its source's worker during phase 1 and read only by its destination's
//! worker during phase 2, with a barrier between — the slot mutexes are
//! therefore *never contended* (the mutex exists to satisfy the compiler,
//! the barrier is what excludes concurrent access), and a lone worker
//! takes none. Window boundaries and merge order are pure functions of
//! simulated time, never of scheduling, so the worker count cannot change
//! a run.
//!
//! Worker panics (e.g. a lookahead violation) poison the barrier: peers
//! drain out cleanly instead of spinning forever, and the original panic
//! payload is re-thrown by the coordinating thread.
//!
//! Correctness rests on the classic conservative-synchronisation argument:
//! a message sent during window `[w, w+δ)` to another shard carries a
//! timestamp `≥ w+δ` (enforced by assertion), so no shard can receive a
//! message that should have pre-empted work it already did.

use crate::sched::EventQueue;
use crate::time::SimTime;
use peerwindow_metrics::runtime::{
    Counter, RunReport, SampleKind, ShardReport, ShardSlot, TimeCat,
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

/// The engine's one partition, `actor % shards`, as the argument of
/// [`ParallelEngine::with_map`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuloShardMap;

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
    /// touches only live buckets instead of scanning all `shards²` pairs.
    dirty: Vec<u32>,
    /// This shard's cross-shard arrivals for the window: filled by its
    /// own worker's flushes and mailbox drains, committed in phase 2.
    merge: Vec<Inbound<L::Msg>>,
    /// Per-shard runtime-metrics slot (cache-line padded, off until
    /// enabled). Only ever touched by the worker that owns this shard, so
    /// recording is lock-free.
    stats: ShardSlot,
}

/// Runs one shard's share of a window: drain local events below
/// `window_end`, keeping local follow-ups and bucketing cross-shard sends
/// by destination.
fn run_window_shard<L: ShardLogic>(
    shard_idx: usize,
    shard: &mut Shard<L>,
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
            let dest = dst_actor as usize % shards;
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
    if shard.stats.enabled() {
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

/// Per-run coordination state the workers share.
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

/// What every worker of one [`ParallelEngine::run_until`] call shares.
struct Run<'a, M> {
    ctrl: WindowCtrl,
    /// The mailbox matrix, `mail[src * shards + dest]`.
    mail: &'a [MailSlot<M>],
    shards: usize,
    lookahead_us: u64,
    until_us: u64,
    metrics_on: bool,
}

/// One worker's run: owns the engine's shards `base..base + shards.len()`
/// and steps them window by window, in lockstep with its siblings, until
/// the leader finds no event before `until`. Returns the worker's private
/// lap-based timeline; laps partition its wall-clock time exactly, so
/// attribution fractions sum to 1.
fn run_worker<L: ShardLogic>(
    run: &Run<'_, L::Msg>,
    base: usize,
    shards: &mut [Shard<L>],
) -> ShardSlot {
    let ctrl = &run.ctrl;
    let n = run.shards;
    let owned = base..base + shards.len();
    let _guard = PoisonGuard(&ctrl.barrier);
    let mut tl = ShardSlot::default();
    tl.set_enabled(run.metrics_on);
    loop {
        // Post the earliest pending time of the owned shards, then elect a
        // leader to plan the window.
        for shard in shards.iter() {
            if let Some(t) = shard.queue.peek_min_at() {
                // audit: ordering — AcqRel: concurrent posts chain through
                // the RMW, and the barrier that follows publishes the min
                // to the leader.
                ctrl.next_min.fetch_min(t.as_micros(), Ordering::AcqRel);
            }
        }
        tl.lap(TimeCat::Coord);
        let Some(leader) = ctrl.barrier.wait() else {
            return tl;
        };
        tl.lap(TimeCat::WaitPlan);
        if leader {
            // audit: ordering — AcqRel: the Acquire half sees every post
            // from before the barrier; the Release half resets the slate
            // for the posts of the next round.
            let earliest = ctrl.next_min.swap(u64::MAX, Ordering::AcqRel);
            if earliest >= run.until_us {
                // audit: ordering — Release; readers take the barrier's
                // Acquire edge before their `done` check, Release keeps
                // the pair self-contained even without it.
                ctrl.done.store(true, Ordering::Release);
            } else {
                // Skip idle gaps: the window starts at the earliest
                // pending event.
                // audit: ordering — only the leader ever stores `now_us`,
                // and its own last store is visible to itself; Acquire
                // also covers the first round's constructor store.
                let start = ctrl.now_us.load(Ordering::Acquire).max(earliest);
                let end = start.saturating_add(run.lookahead_us).min(run.until_us);
                // audit: ordering — Release pairs with the workers'
                // Acquire loads after the second barrier wait.
                ctrl.window_end.store(end, Ordering::Release);
                // audit: ordering — Release: the next round's leader may
                // be another worker; the barrier orders it, Release keeps
                // the pair self-contained.
                ctrl.now_us.store(end, Ordering::Release);
                // Exactly one worker (the leader) records the committed
                // window, so window counts and widths are not multiplied
                // by the worker count.
                tl.add(Counter::Windows, 1);
                tl.observe(SampleKind::WindowWidthUs, (end - start) as f64);
            }
        }
        if ctrl.barrier.wait().is_none() {
            return tl;
        }
        tl.lap(TimeCat::WaitPublish);
        // audit: ordering — Acquire pairs with the leader's Release store;
        // the barrier generation bump already ordered it, this keeps the
        // flag readable on its own.
        if ctrl.done.load(Ordering::Acquire) {
            return tl;
        }
        // audit: ordering — Acquire pairs with the leader's Release store
        // of this round's bound.
        let window_end = SimTime(ctrl.window_end.load(Ordering::Acquire));

        // Phase 1: local events, then hand each dirty bucket off whole —
        // into the merge buffer of a destination this worker owns, else
        // into the mailbox slot (a Vec swap: the slot's previous, empty,
        // vector comes back, so capacity is recycled either way).
        for j in 0..shards.len() {
            let idx = base + j;
            run_window_shard(idx, &mut shards[j], n, window_end, run.lookahead_us);
            tl.lap(TimeCat::Execute);
            let mut dirty = std::mem::take(&mut shards[j].dirty);
            for dest in dirty.drain(..) {
                let dest = dest as usize;
                let mut bucket = std::mem::take(&mut shards[j].remote[dest]);
                let stats = &mut shards[j].stats;
                stats.add(Counter::HandoffMsgs, bucket.len() as u64);
                stats.add(Counter::HandoffBatches, 1);
                stats.observe(SampleKind::HandoffBatch, bucket.len() as f64);
                if owned.contains(&dest) {
                    shards[dest - base].merge.append(&mut bucket);
                } else {
                    let slot = &run.mail[idx * n + dest];
                    let mut cell = slot.0.lock().expect("mailbox poisoned by sibling panic");
                    debug_assert!(cell.is_empty());
                    std::mem::swap(&mut *cell, &mut bucket);
                }
                shards[j].remote[dest] = bucket;
            }
            shards[j].dirty = dirty;
            tl.lap(TimeCat::Flush);
        }
        if ctrl.barrier.wait().is_none() {
            return tl;
        }
        tl.lap(TimeCat::WaitCommit);

        // Phase 2: each destination drains the mailbox slots of sources
        // other workers own and commits the canonical merge into its own
        // queue.
        for (j, shard) in shards.iter_mut().enumerate() {
            let idx = base + j;
            for src in (0..base).chain(owned.end..n) {
                let slot = &run.mail[src * n + idx];
                let mut cell = slot.0.lock().expect("mailbox poisoned by sibling panic");
                shard.merge.append(&mut cell);
            }
            if !shard.merge.is_empty() {
                commit_merge(shard);
            }
        }
        tl.lap(TimeCat::Merge);
        // No barrier needed before the next plan phase: a worker only
        // posts minima for shards it owns, and those were last touched by
        // this same worker.
    }
}

/// The parallel engine: shards advancing in lockstep windows, actor `a`
/// on shard `a % shards`.
pub struct ParallelEngine<L: ShardLogic> {
    shards: Vec<Shard<L>>,
    lookahead_us: u64,
    now: SimTime,
    workers: usize,
    /// Mailbox matrix, `mail[src * n + dest]`; see the module docs for the
    /// phase-disjoint access discipline that keeps every lock uncontended.
    mail: Vec<MailSlot<L::Msg>>,
    /// Engine-level runtime-metrics timeline: absorbs each worker's
    /// private timeline when a run ends.
    metrics: ShardSlot,
}

impl<L: ShardLogic> ParallelEngine<L> {
    /// Builds an engine over the given shard logics. `lookahead_us` must
    /// be a lower bound on every cross-shard message delay (for PeerWindow
    /// topologies: the minimum link latency, 1 ms).
    ///
    /// # Panics
    /// Panics if `shards` is empty or `lookahead_us == 0`.
    pub fn new(shards: Vec<L>, lookahead_us: u64) -> Self {
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
                    stats: ShardSlot::default(),
                })
                .collect(),
            lookahead_us,
            now: SimTime::ZERO,
            workers,
            mail: (0..n * n)
                .map(|_| MailSlot(Mutex::new(Vec::new())))
                .collect(),
            metrics: ShardSlot::default(),
        }
    }

    /// [`Self::new`], under the name the benchmark harness builds with.
    pub fn with_map(shards: Vec<L>, lookahead_us: u64, _map: ModuloShardMap) -> Self {
        Self::new(shards, lookahead_us)
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of workers `run_until` will use (1 runs the window loop on
    /// the calling thread). Defaults to `min(available cores, shards)`.
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

    /// The shard owning `actor`.
    #[inline]
    pub fn shard_of(&self, actor: u32) -> usize {
        actor as usize % self.shards.len()
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

    /// Number of pending events across shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
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

    /// Combined order-insensitive fingerprint of all shards.
    pub fn fingerprint(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.logic.fingerprint()))
    }

    /// Turns runtime-metrics recording on or off. Wall-clock reads are
    /// write-only observation, so the run's fingerprint is byte-identical
    /// with metrics on or off.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
        for shard in &mut self.shards {
            shard.stats.set_enabled(on);
        }
    }

    /// Builds the merged wall-clock run report: per-phase time, counters,
    /// distributions, and per-shard event counts. Empty (all zeros, no
    /// shard rows) when metrics were never enabled.
    pub fn metrics_report(&self, name: &str) -> RunReport {
        let mut r = RunReport::new(name, self.shards.len() as u64, self.workers as u64);
        self.metrics.fold_into(&mut r);
        for (i, shard) in self.shards.iter().enumerate() {
            shard.stats.fold_into(&mut r);
            if shard.stats.enabled() {
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
        let shard = self.shard_of(actor);
        self.shards[shard]
            .queue
            .schedule(at.max(self.now), (actor, msg));
    }

    /// Runs windows until simulated time reaches `until` or all queues
    /// drain.
    pub fn run_until(&mut self, until: SimTime) {
        let n = self.shards.len();
        let chunk = n.div_ceil(self.workers);
        // chunks_mut(chunk) yields ceil(n/chunk) slices, which can be fewer
        // than `workers` (e.g. 5 shards / 4 workers -> chunk 2 -> 3
        // workers). The barrier must be sized to the workers that actually
        // arrive or every wait spins forever.
        let workers = n.div_ceil(chunk);
        let run = Run {
            ctrl: WindowCtrl {
                barrier: SpinBarrier::new(workers),
                next_min: AtomicU64::new(u64::MAX),
                window_end: AtomicU64::new(0),
                now_us: AtomicU64::new(self.now.as_micros()),
                done: AtomicBool::new(false),
            },
            mail: &self.mail,
            shards: n,
            lookahead_us: self.lookahead_us,
            until_us: until.as_micros(),
            metrics_on: self.metrics.enabled(),
        };
        let metrics = &mut self.metrics;
        if workers == 1 {
            metrics.absorb(run_worker(&run, 0, &mut self.shards));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(c, shards)| {
                        let run = &run;
                        scope.spawn(move || run_worker(run, c * chunk, shards))
                    })
                    .collect();
                // Join explicitly so a panicking shard (e.g. a lookahead
                // violation) propagates its own payload instead of the
                // scope's generic message. Workers that drained out due to
                // a sibling's poison return cleanly, so the only Err
                // payload is the original panic.
                let mut panic = None;
                for h in handles {
                    match h.join() {
                        Ok(tl) => metrics.absorb(tl),
                        Err(p) => {
                            panic.get_or_insert(p);
                        }
                    }
                }
                if let Some(p) = panic {
                    std::panic::resume_unwind(p);
                }
            });
        }
        // The leader's committed time never passes `until`, so the run
        // ends there whether or not the queues drained first.
        self.now = self.now.max(until);
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

    fn run_full(shards: usize, actors: u32, workers: usize) -> (u64, u64) {
        let logics: Vec<Gossip> = (0..shards)
            .map(|_| Gossip {
                actors,
                digest: 0,
                deliveries: 0,
            })
            .collect();
        let mut e = ParallelEngine::new(logics, 1_000);
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

    fn run(shards: usize, actors: u32) -> (u64, u64) {
        run_full(shards, actors, 1)
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

    /// Threaded workers (spin barrier + mailbox matrix) give the run a
    /// lone worker gives, for every worker count, even oversubscribed on a
    /// small host.
    #[test]
    fn worker_count_never_changes_the_run() {
        let one_worker = run_full(8, 64, 1);
        for workers in [2usize, 3, 8] {
            assert_eq!(
                one_worker,
                run_full(8, 64, workers),
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
        let one_worker = run_full(5, 64, 1);
        for workers in [3usize, 4] {
            assert_eq!(
                one_worker,
                run_full(5, 64, workers),
                "digest differs between 1 and {workers} workers at 5 shards"
            );
        }
        let one_worker = run_full(8, 64, 1);
        for workers in [5usize, 6, 7] {
            assert_eq!(
                one_worker,
                run_full(8, 64, workers),
                "digest differs between 1 and {workers} workers at 8 shards"
            );
        }
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
