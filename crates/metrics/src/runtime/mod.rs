//! Runtime (wall-clock) observability for the simulation engines.
//!
//! Everything else in `peerwindow-metrics` measures *simulated* quantities
//! — protocol counters, sim-time latencies, per-level tables. This module
//! is the complementary layer: where does every wall-clock microsecond of
//! an engine run go? Barrier waits, cross-shard handoff, event execution
//! — the attribution a scaling investigation needs before it can blame
//! anything.
//!
//! The design is a compiled-out sink (`peerwindow-core`'s trace hooks get
//! the same effect from `cfg(feature = "trace")` instead):
//!
//! * [`MetricsSink`] is the static-dispatch recording interface. Engines
//!   are written against it generically and guard every instrumentation
//!   site with `if M::ACTIVE && sink.enabled() { … }`.
//! * [`NoopMetrics`] is the zero-sized compiled-out implementation: every
//!   method an empty `#[inline(always)]` body, `ACTIVE = false`, so the
//!   guard const-folds and monomorphisation deletes the site outright. A
//!   default build carries no metrics code at all (a bench test pins the
//!   overhead at noise level).
//! * [`ShardSlot`] is the real recorder: one per shard (and one per
//!   worker thread for the time-line), cache-line padded so two workers'
//!   slots never false-share, all plain `u64`s and [`LogHistogram`]s —
//!   **lock-free on the hot path by construction**, because a slot is
//!   only ever touched by the one thread that owns it. Aggregation
//!   happens at report time by folding slots into a [`RunReport`].
//!
//! Wall-clock reads (`std::time::Instant`) are confined to the [`clock`]
//! submodule — the audit lint's `wall-clock` rule allows them *only*
//! under `crates/metrics/src/runtime`, so a stray `Instant` in an engine
//! hot path still fails the lint. Timing is write-only observation: no
//! measured duration ever feeds back into scheduling, which is why
//! determinism fingerprints are byte-identical with metrics on or off
//! (pinned by the workspace determinism tests).

pub mod clock;
pub mod prom;
pub mod report;

pub use clock::Stopwatch;
pub use prom::{escape_label, render_counters};
pub use report::{parse_jsonl, prometheus, RunReport, ShardReport};

use crate::histogram::LogHistogram;

/// Monotonic counters an engine increments on its hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Events executed (per shard).
    Events,
    /// Lookahead windows committed (engine-wide; recorded once per
    /// window by the leader/sequential loop).
    Windows,
    /// Cross-shard messages handed off through the mailbox matrix.
    HandoffMsgs,
    /// Non-empty per-destination batches flushed (one mailbox swap each).
    HandoffBatches,
}

impl Counter {
    /// Every counter, in canonical report order.
    pub const ALL: [Counter; 4] = [
        Counter::Events,
        Counter::Windows,
        Counter::HandoffMsgs,
        Counter::HandoffBatches,
    ];

    /// Stable snake-case name (JSONL field / Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Events => "events",
            Counter::Windows => "windows",
            Counter::HandoffMsgs => "handoff_msgs",
            Counter::HandoffBatches => "handoff_batches",
        }
    }
}

/// Wall-clock time categories, the phases of the engines' window loop.
///
/// The recorder is lap-based ([`MetricsSink::lap`] attributes everything
/// since the previous lap to one category and restamps), so a worker's
/// whole run partitions exactly into these buckets — the attribution
/// fractions sum to 1 by construction, nothing is double-counted and
/// nothing leaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeCat {
    /// Window coordination: posting shard minima, leader planning.
    Coord,
    /// Spinning in the pre-plan barrier (waiting for slow siblings).
    WaitPlan,
    /// Spinning in the post-plan barrier (waiting for the leader).
    WaitPublish,
    /// Executing local events (`run_window_shard`).
    Execute,
    /// Flushing per-destination buckets into mailbox slots.
    Flush,
    /// Spinning in the pre-merge barrier.
    WaitCommit,
    /// Draining the mailbox column and committing the canonical merge.
    Merge,
}

impl TimeCat {
    /// Every category, in canonical report order.
    pub const ALL: [TimeCat; 7] = [
        TimeCat::Coord,
        TimeCat::WaitPlan,
        TimeCat::WaitPublish,
        TimeCat::Execute,
        TimeCat::Flush,
        TimeCat::WaitCommit,
        TimeCat::Merge,
    ];

    /// Stable snake-case name (JSONL field / Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            TimeCat::Coord => "coord",
            TimeCat::WaitPlan => "wait_plan",
            TimeCat::WaitPublish => "wait_publish",
            TimeCat::Execute => "execute",
            TimeCat::Flush => "flush",
            TimeCat::WaitCommit => "wait_commit",
            TimeCat::Merge => "merge",
        }
    }

    /// The coarse attribution group this category rolls up into
    /// (`barrier_wait` / `execute` / `handoff` / `other`).
    pub fn group(self) -> &'static str {
        match self {
            TimeCat::WaitPlan | TimeCat::WaitPublish | TimeCat::WaitCommit => "barrier_wait",
            TimeCat::Execute => "execute",
            TimeCat::Flush | TimeCat::Merge => "handoff",
            TimeCat::Coord => "other",
        }
    }
}

/// The coarse attribution groups, in reporting order.
pub const GROUPS: [&str; 4] = ["barrier_wait", "execute", "handoff", "other"];

/// Distribution samples an engine observes per window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleKind {
    /// Committed window width in µs.
    WindowWidthUs,
    /// Events a shard executed in one window (only non-idle windows).
    EventsPerWindow,
    /// Pending-queue depth at the end of a shard's window.
    QueueDepth,
    /// Messages in one flushed mailbox batch.
    HandoffBatch,
}

impl SampleKind {
    /// Every sample kind, in canonical report order.
    pub const ALL: [SampleKind; 4] = [
        SampleKind::WindowWidthUs,
        SampleKind::EventsPerWindow,
        SampleKind::QueueDepth,
        SampleKind::HandoffBatch,
    ];

    /// Stable snake-case name (JSONL field / Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            SampleKind::WindowWidthUs => "window_width_us",
            SampleKind::EventsPerWindow => "events_per_window",
            SampleKind::QueueDepth => "queue_depth",
            SampleKind::HandoffBatch => "handoff_batch",
        }
    }
}

/// Bucket geometry shared by every runtime histogram: powers of two from
/// 1, so per-shard histograms merge exactly (same `min`, same `base`).
fn runtime_hist() -> LogHistogram {
    LogHistogram::new(1.0, 2.0)
}

/// A statically-dispatched runtime-metrics sink, so engine hot loops can
/// be generic over "metered" vs "unmetered" and have the unmetered
/// instantiation *compiled out* rather than branching per site.
///
/// [`ShardSlot`] is the real recorder; [`NoopMetrics`] is the zero-sized
/// compiled-out one. Embedders guard every site with
/// `if M::ACTIVE && sink.enabled() { … }` — const-false for the no-op,
/// one predictable branch for a runtime-disabled real slot.
pub trait MetricsSink: Default + Send {
    /// `false` for sinks that discard everything; lets embedders skip
    /// whole instrumentation blocks at compile time.
    const ACTIVE: bool;

    /// Turns recording on or off at runtime.
    fn set_enabled(&mut self, on: bool);

    /// Whether the sink currently records (always `false` for no-ops).
    fn enabled(&self) -> bool;

    /// Stamps the lap origin without attributing anything (call once
    /// before the first [`Self::lap`] of a timing sequence).
    fn mark(&mut self);

    /// Attributes all wall-clock time since the previous `mark`/`lap`
    /// to `cat`, then restamps. The one wall-clock read per call lives
    /// in [`clock::Stopwatch`].
    fn lap(&mut self, cat: TimeCat);

    /// Adds `n` to counter `c`.
    fn add(&mut self, c: Counter, n: u64);

    /// Records a distribution sample.
    fn observe(&mut self, s: SampleKind, v: f64);

    /// Current value of counter `c` (0 for no-ops).
    fn get(&self, c: Counter) -> u64;

    /// Folds another slot of the same shape into this one (per-worker →
    /// engine aggregation at the end of a threaded run).
    fn absorb(&mut self, other: Self);

    /// Adds this slot's totals into a run report (no-ops add nothing).
    fn fold_into(&self, report: &mut RunReport);
}

/// The compiled-out metrics sink: zero-sized, every method an empty
/// inline body. An engine monomorphised over `NoopMetrics` contains no
/// metrics state, no branch, and no wall-clock reads at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn set_enabled(&mut self, _on: bool) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn mark(&mut self) {}

    #[inline(always)]
    fn lap(&mut self, _cat: TimeCat) {}

    #[inline(always)]
    fn add(&mut self, _c: Counter, _n: u64) {}

    #[inline(always)]
    fn observe(&mut self, _s: SampleKind, _v: f64) {}

    #[inline(always)]
    fn get(&self, _c: Counter) -> u64 {
        0
    }

    #[inline(always)]
    fn absorb(&mut self, _other: Self) {}

    #[inline(always)]
    fn fold_into(&self, _report: &mut RunReport) {}
}

/// The real per-shard (and per-worker) recorder.
///
/// Aligned to 128 bytes — two cache lines, covering adjacent-line
/// prefetchers — so a `Vec<ShardSlot>` or slot-in-shard layout never
/// false-shares between the threads that own neighbouring slots. All
/// fields are plain (no atomics): a slot has exactly one writer.
#[derive(Clone, Debug)]
#[repr(align(128))]
pub struct ShardSlot {
    enabled: bool,
    watch: Stopwatch,
    counters: [u64; Counter::ALL.len()],
    time_ns: [u64; TimeCat::ALL.len()],
    hists: [LogHistogram; SampleKind::ALL.len()],
}

impl Default for ShardSlot {
    fn default() -> Self {
        ShardSlot {
            enabled: false,
            watch: Stopwatch::default(),
            counters: [0; Counter::ALL.len()],
            time_ns: [0; TimeCat::ALL.len()],
            hists: std::array::from_fn(|_| runtime_hist()),
        }
    }
}

impl ShardSlot {
    /// A fresh slot with recording already enabled.
    pub fn enabled_slot() -> Self {
        ShardSlot {
            enabled: true,
            ..Default::default()
        }
    }

    /// Total wall-clock nanoseconds attributed so far, across categories.
    pub fn total_ns(&self) -> u64 {
        self.time_ns.iter().sum()
    }

    /// Nanoseconds attributed to one category.
    pub fn time_ns(&self, cat: TimeCat) -> u64 {
        self.time_ns[cat as usize]
    }

    /// Read access to one sample distribution.
    pub fn hist(&self, s: SampleKind) -> &LogHistogram {
        &self.hists[s as usize]
    }
}

impl MetricsSink for ShardSlot {
    const ACTIVE: bool = true;

    #[inline]
    fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if on {
            self.watch.mark();
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn mark(&mut self) {
        if self.enabled {
            self.watch.mark();
        }
    }

    #[inline]
    fn lap(&mut self, cat: TimeCat) {
        if self.enabled {
            self.time_ns[cat as usize] += self.watch.lap_ns();
        }
    }

    #[inline]
    fn add(&mut self, c: Counter, n: u64) {
        if self.enabled {
            self.counters[c as usize] += n;
        }
    }

    #[inline]
    fn observe(&mut self, s: SampleKind, v: f64) {
        if self.enabled {
            self.hists[s as usize].add(v);
        }
    }

    #[inline]
    fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    fn absorb(&mut self, other: Self) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.time_ns.iter_mut().zip(other.time_ns) {
            *mine += theirs;
        }
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    fn fold_into(&self, report: &mut RunReport) {
        for cat in TimeCat::ALL {
            report.add_time_ns(cat.name(), self.time_ns[cat as usize]);
        }
        for c in Counter::ALL {
            report.add_counter(c.name(), self.counters[c as usize]);
        }
        for s in SampleKind::ALL {
            report.merge_hist(s.name(), &self.hists[s as usize]);
        }
    }
}

/// A hub of per-shard slots for embedders that don't weave slots into
/// their own structures (the transport runtime, harness-level callers):
/// index a slot mutably from its owning thread, fold them all at report
/// time. The hub itself holds no locks — slot disjointness is the
/// caller's (structural) responsibility, exactly as with the engines'
/// slot-per-shard layout.
#[derive(Debug, Default)]
pub struct MetricsHub {
    slots: Vec<ShardSlot>,
}

impl MetricsHub {
    /// A hub with `n` slots, recording from the start.
    pub fn with_slots(n: usize) -> Self {
        MetricsHub {
            slots: (0..n).map(|_| ShardSlot::enabled_slot()).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the hub has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutable access to one slot (call only from its owning thread).
    pub fn slot(&mut self, i: usize) -> &mut ShardSlot {
        &mut self.slots[i]
    }

    /// Folds every slot into `report`.
    pub fn fold_into(&self, report: &mut RunReport) {
        for s in &self.slots {
            s.fold_into(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<NoopMetrics>(), 0);
        const { assert!(!NoopMetrics::ACTIVE) };
        let mut n = NoopMetrics;
        n.set_enabled(true);
        assert!(!n.enabled());
        n.add(Counter::Events, 5);
        assert_eq!(n.get(Counter::Events), 0);
        let mut r = RunReport::new("x", 1, 1);
        n.fold_into(&mut r);
        assert_eq!(r.counter("events"), 0);
    }

    #[test]
    fn slot_records_only_when_enabled() {
        let mut s = ShardSlot::default();
        s.add(Counter::Events, 3);
        s.observe(SampleKind::EventsPerWindow, 3.0);
        assert_eq!(s.get(Counter::Events), 0);
        s.set_enabled(true);
        s.add(Counter::Events, 3);
        s.observe(SampleKind::EventsPerWindow, 3.0);
        assert_eq!(s.get(Counter::Events), 3);
        assert_eq!(s.hist(SampleKind::EventsPerWindow).total(), 1);
    }

    #[test]
    fn laps_partition_time_across_categories() {
        let mut s = ShardSlot::enabled_slot();
        s.mark();
        std::hint::black_box((0..2000).sum::<u64>());
        s.lap(TimeCat::Execute);
        std::hint::black_box((0..2000).sum::<u64>());
        s.lap(TimeCat::Merge);
        let total = s.total_ns();
        assert_eq!(
            total,
            s.time_ns(TimeCat::Execute) + s.time_ns(TimeCat::Merge),
            "laps must not double-count"
        );
    }

    #[test]
    fn absorb_sums_counters_and_merges_hists() {
        let mut a = ShardSlot::enabled_slot();
        let mut b = ShardSlot::enabled_slot();
        a.add(Counter::HandoffMsgs, 2);
        b.add(Counter::HandoffMsgs, 5);
        a.observe(SampleKind::HandoffBatch, 4.0);
        b.observe(SampleKind::HandoffBatch, 16.0);
        a.absorb(b);
        assert_eq!(a.get(Counter::HandoffMsgs), 7);
        assert_eq!(a.hist(SampleKind::HandoffBatch).total(), 2);
    }

    #[test]
    fn slots_are_cache_line_padded() {
        assert!(std::mem::align_of::<ShardSlot>() >= 128);
        assert_eq!(std::mem::size_of::<ShardSlot>() % 128, 0);
    }

    #[test]
    fn hub_slots_fold_into_one_report() {
        let mut hub = MetricsHub::with_slots(3);
        for i in 0..3 {
            hub.slot(i).add(Counter::Events, (i as u64 + 1) * 10);
        }
        let mut r = RunReport::new("hub", 3, 3);
        hub.fold_into(&mut r);
        assert_eq!(r.counter("events"), 60);
    }

    #[test]
    fn every_time_cat_rolls_up_into_a_known_group() {
        for cat in TimeCat::ALL {
            assert!(GROUPS.contains(&cat.group()), "{cat:?}");
        }
    }
}
