//! Asserts the runtime-metrics layer's cost on the resident-timer
//! workload, at a size that finishes quickly under the debug profile.
//!
//! Two distinct configurations, with separate gates:
//!
//! * **Compiled out** — the simulation is generic over
//!   [`MetricsSink`] and instantiated with [`NoopMetrics`];
//!   monomorphisation deletes the metrics code entirely. This is what a
//!   default build runs, and the ISSUE 8 acceptance bar (<1% + noise)
//!   applies to it.
//! * **Enabled** — the same simulation instantiated with a live
//!   [`ShardSlot`] recording at the engine's cadence: a counter add per
//!   event, plus a histogram observe and a wall-clock lap every
//!   `WINDOW`-ish events (the parallel engine records per *window*, not
//!   per event — that cadence is exactly why the enabled layer can hold
//!   a 3% gate).
//!
//! Timing on a shared host is noisy (individual runs swing ±20% when a
//! neighbour steals the core), so the gate interleaves plain/metered
//! runs in pairs and compares best-of-N — the best over enough tries
//! converges on the unloaded speed of each configuration — and adds the
//! observed plain-side spread to the allowance.

use peerwindow_des::{Engine, Scheduler, SimTime, Simulation};
use peerwindow_metrics::runtime::{
    Counter, MetricsSink, NoopMetrics, SampleKind, ShardSlot, TimeCat,
};
use std::time::Instant;

const RESIDENT: u32 = 5_000;
const EVENTS: u64 = 300_000;
const TRIES: usize = 8;
/// Events per simulated "window": the cadence at which the engine does
/// histogram observes and wall-clock laps (counters are per event).
const WINDOW: u64 = 256;

fn period_us(actor: u32) -> u64 {
    500 + (actor as u64).wrapping_mul(7919) % 10_000
}

/// The unmetered reference: no metrics state, no metrics code.
struct Plain {
    left: u64,
}

impl Simulation for Plain {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, actor: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(period_us(actor), actor);
        }
    }
}

/// The metered workload, generic over the sink so each configuration is
/// a separate monomorphisation (mirrors the engine's `EngineMetrics`
/// alias).
struct Metered<M: MetricsSink> {
    left: u64,
    sink: M,
}

impl<M: MetricsSink> Simulation for Metered<M> {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, actor: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(period_us(actor), actor);
        }
        // Same guard shape as the engine: const-false for NoopMetrics
        // (the block is deleted), one predictable branch when live.
        if M::ACTIVE && self.sink.enabled() {
            self.sink.add(Counter::Events, 1);
            if self.left.is_multiple_of(WINDOW) {
                self.sink.add(Counter::Windows, 1);
                self.sink
                    .observe(SampleKind::EventsPerWindow, WINDOW as f64);
                self.sink.lap(TimeCat::Execute);
            }
        }
    }
}

fn run_plain() -> f64 {
    let mut e = Engine::new(Plain { left: EVENTS });
    for a in 0..RESIDENT {
        e.schedule(period_us(a), a);
    }
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(e.stats().processed, EVENTS + RESIDENT as u64);
    e.stats().processed as f64 / secs
}

fn run_metered<M: MetricsSink>(sink: M) -> f64 {
    let mut e = Engine::new(Metered { left: EVENTS, sink });
    for a in 0..RESIDENT {
        e.schedule(period_us(a), a);
    }
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(e.stats().processed, EVENTS + RESIDENT as u64);
    e.stats().processed as f64 / secs
}

/// Interleaves plain and metered runs in pairs and asserts the best
/// metered run stays within `base_allowance + observed plain spread` of
/// the best plain run. A round can still lose to a noisy neighbour on a
/// shared host, so the gate re-measures up to three rounds and passes on
/// the first clean one — a genuine regression fails every round.
fn gate_metered_path(mut metered_run: impl FnMut() -> f64, base_allowance: f64, what: &str) {
    const ROUNDS: usize = 3;
    run_plain(); // warm up caches and the allocator
    let mut last = String::new();
    for _ in 0..ROUNDS {
        let mut plains = [0.0f64; TRIES];
        let mut meters = [0.0f64; TRIES];
        for i in 0..TRIES {
            plains[i] = run_plain();
            meters[i] = metered_run();
        }
        let plain = plains.iter().cloned().fold(0.0, f64::max);
        let metered = meters.iter().cloned().fold(0.0, f64::max);
        // Noise estimate: how far apart the best of the two halves of
        // the plain samples landed — the same statistic the overhead
        // comparison uses, measured on identical code.
        let half_a = plains[..TRIES / 2].iter().cloned().fold(0.0, f64::max);
        let half_b = plains[TRIES / 2..].iter().cloned().fold(0.0, f64::max);
        let noise = (half_a - half_b).abs() / plain;
        let overhead = plain / metered - 1.0;
        let allowed = base_allowance + noise;
        if overhead <= allowed {
            return;
        }
        last = format!(
            "{what} overhead {:.2}% exceeds allowance {:.2}% \
             (plain best {:.0} ev/s, metered best {:.0} ev/s, noise {:.2}%)",
            overhead * 100.0,
            allowed * 100.0,
            plain,
            metered,
            noise * 100.0,
        );
    }
    panic!("{last} — in all {ROUNDS} measurement rounds");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing assertion needs the release profile; \
              run with cargo test --release"
)]
fn compiled_out_metrics_cost_under_one_percent_plus_noise() {
    // The ISSUE 8 acceptance bar: the NoopMetrics instantiation is the
    // same machine code as the plain workload, so anything beyond noise
    // means the abstraction stopped being zero-cost.
    gate_metered_path(|| run_metered(NoopMetrics), 0.01, "compiled-out metrics");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing assertion needs the release profile; \
              run with cargo test --release"
)]
fn enabled_metrics_cost_under_three_percent_plus_noise() {
    // The enabled layer pays a branch + counter add per event and a
    // histogram observe + `Instant::now` lap per window — the cadence
    // the parallel engine actually records at. That window batching is
    // the design point: per-event observes would blow this gate.
    gate_metered_path(
        || {
            let mut slot = ShardSlot::default();
            slot.set_enabled(true);
            run_metered(slot)
        },
        0.03,
        "enabled metrics",
    );
}

#[test]
fn metered_run_records_at_engine_cadence() {
    // Functional sanity for the workload above: the live slot sees every
    // event and one observe per window.
    let mut slot = ShardSlot::default();
    slot.set_enabled(true);
    let mut e = Engine::new(Metered {
        left: 1_000,
        sink: slot,
    });
    for a in 0..16 {
        e.schedule(period_us(a), a);
    }
    e.run_to_completion();
    let sink = &e.sim().sink;
    assert_eq!(sink.get(Counter::Events), 1_000 + 16);
    assert!(sink.get(Counter::Windows) > 0);
    assert!(sink.hist(SampleKind::EventsPerWindow).total() > 0);
}
