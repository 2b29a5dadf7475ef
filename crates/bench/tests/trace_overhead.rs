//! Asserts the tracing layer's off-path cost on the resident-timer
//! workload is noise-level, at a size that finishes quickly under the
//! debug profile.
//!
//! "Off" here is what a `trace`-enabled `NodeMachine` pays while
//! recording is disabled: a [`NodeTrace`] whose enabled flag is off,
//! guarded by one [`NodeTrace::is_enabled`] branch per event before the
//! payload is built — the shape of `NodeMachine::tr`. An untraced build
//! compiles the sink out with `cfg(feature = "trace")` and pays nothing.
//!
//! Timing on a shared host is noisy (individual runs swing ±20% when a
//! neighbour steals the core), so the gate interleaves plain/off runs in
//! pairs and compares best-of-N — the best over enough tries converges
//! on the unloaded speed of each configuration — and adds the observed
//! plain-side spread to the allowance.

use peerwindow_des::{Engine, Scheduler, SimTime, Simulation};
use peerwindow_trace::{CauseId, NodeTrace, TraceEventKind, TraceRecord};
use std::time::Instant;

const RESIDENT: u32 = 5_000;
const EVENTS: u64 = 300_000;
const TRIES: usize = 8;

fn period_us(actor: u32) -> u64 {
    500 + (actor as u64).wrapping_mul(7919) % 10_000
}

/// The untraced reference: no trace state, no trace code.
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

/// The traced workload: a resident timer set that emits one record per
/// event when its sink is enabled.
struct Resident {
    left: u64,
    trace: NodeTrace,
    drained: Vec<TraceRecord>,
}

impl Simulation for Resident {
    type Event = u32;
    fn handle(&mut self, now: SimTime, actor: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(period_us(actor), actor);
        }
        // One guard for the whole trace block, the same shape as
        // NodeMachine::tr: one predictable branch while disabled.
        if self.trace.is_enabled() {
            self.trace.set_now(now.as_micros());
            self.trace.emit(
                0,
                TraceEventKind::ProbeSent {
                    target: actor as u128,
                },
                CauseId::NONE,
            );
            self.trace.drain_into(&mut self.drained);
            if self.drained.len() >= 65_536 {
                self.drained.clear();
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

fn run_traced(trace: NodeTrace) -> f64 {
    let mut e = Engine::new(Resident {
        left: EVENTS,
        trace,
        drained: Vec::new(),
    });
    for a in 0..RESIDENT {
        e.schedule(period_us(a), a);
    }
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(e.stats().processed, EVENTS + RESIDENT as u64);
    e.stats().processed as f64 / secs
}

/// Interleaves plain and off runs in pairs and asserts the best off run
/// stays within `base_allowance + observed plain spread` of the best
/// plain run. A round can still lose to a noisy neighbour on a shared
/// host, so the gate re-measures up to three rounds and passes on the
/// first clean one — a genuine regression fails every round.
fn gate_off_path(mut off_run: impl FnMut() -> f64, base_allowance: f64, what: &str) {
    const ROUNDS: usize = 3;
    run_plain(); // warm up caches and the allocator
    let mut last = String::new();
    for _ in 0..ROUNDS {
        let mut plains = [0.0f64; TRIES];
        let mut offs = [0.0f64; TRIES];
        for i in 0..TRIES {
            plains[i] = run_plain();
            offs[i] = off_run();
        }
        let plain = plains.iter().cloned().fold(0.0, f64::max);
        let off = offs.iter().cloned().fold(0.0, f64::max);
        // Noise estimate: how far apart the best of the two halves of the
        // plain samples landed — the same statistic the overhead
        // comparison uses, measured on identical code.
        let half_a = plains[..TRIES / 2].iter().cloned().fold(0.0, f64::max);
        let half_b = plains[TRIES / 2..].iter().cloned().fold(0.0, f64::max);
        let noise = (half_a - half_b).abs() / plain;
        let overhead = plain / off - 1.0;
        let allowed = base_allowance + noise;
        if overhead <= allowed {
            return;
        }
        last = format!(
            "{what} overhead {:.2}% exceeds allowance {:.2}% \
             (plain best {:.0} ev/s, off best {:.0} ev/s, noise {:.2}%)",
            overhead * 100.0,
            allowed * 100.0,
            plain,
            off,
            noise * 100.0,
        );
    }
    panic!("{last} — in all {ROUNDS} measurement rounds");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing assertion needs the release profile: without inlining \
              the is_enabled guard costs ~5% here; run with cargo test --release"
)]
fn disabled_tracing_costs_under_five_percent_plus_noise() {
    // The runtime-disabled path genuinely pays a load + branch per event
    // and drags the NodeTrace fields into the working set — measured
    // 2-4% on this tight loop. This gate is the regression guard against
    // the old pathology where the disabled path cost 19%.
    gate_off_path(
        || run_traced(NodeTrace::new(1)),
        0.05,
        "runtime-disabled trace",
    );
}

#[test]
fn enabled_tracing_still_drains_every_event() {
    let mut trace = NodeTrace::new(1);
    trace.set_enabled(true);
    let mut e = Engine::new(Resident {
        left: 1_000,
        trace,
        drained: Vec::new(),
    });
    for a in 0..16 {
        e.schedule(period_us(a), a);
    }
    e.run_to_completion();
    let sim = e.sim();
    assert_eq!(sim.drained.len() as u64, 1_000 + 16);
    assert!(sim.trace.is_empty());
}
