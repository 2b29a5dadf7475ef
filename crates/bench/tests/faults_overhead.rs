//! Asserts the fault-injection layer's zero-fault cost on a full
//! protocol run is noise-level, on a scenario small enough to finish
//! quickly.
//!
//! Two configurations on identical seeded scenarios: no fault model
//! installed (faults `None`, one branch per send), and an installed
//! `FaultPlan::reliable` — rules are empty, so every judged datagram
//! takes the conditioner's fast path: no RNG draw, no link-state
//! allocation. We measure the plain run twice to estimate run-to-run
//! noise, take best-of-N per configuration, and require the
//! reliable-plan run to stay within `1% + observed noise` of the plain
//! one.

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::SimTime;
use peerwindow_faults::FaultPlan;
use peerwindow_sim::FullSim;
use peerwindow_topology::UniformNetwork;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NODES: u32 = 32;
const HORIZON_S: u64 = 180;
const TRIES: usize = 3;

fn run(reliable_plan: bool) -> f64 {
    let protocol = ProtocolConfig {
        probe_interval_us: 2_000_000,
        rpc_timeout_us: 400_000,
        processing_delay_us: 10_000,
        bandwidth_window_us: 8_000_000,
        ..ProtocolConfig::default()
    };
    let mut sim = FullSim::new(
        protocol,
        Box::new(UniformNetwork { latency_us: 20_000 }),
        13,
    );
    if reliable_plan {
        sim.set_fault_plan(FaultPlan::reliable(13));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    sim.spawn_seed(NodeId(rng.gen()), 1e9, Bytes::new());
    for _ in 1..NODES {
        sim.run_for(300_000);
        let _ = sim.spawn_joiner(NodeId(rng.gen()), 1e9, Bytes::new());
    }
    let t = Instant::now();
    sim.run_until(SimTime::from_secs(HORIZON_S));
    let secs = t.elapsed().as_secs_f64();
    let judged = sim.fault_counters().judged;
    if reliable_plan {
        assert!(judged > 0, "reliable plan was not consulted");
        assert_eq!(sim.fault_counters().dropped, 0);
    } else {
        assert_eq!(judged, 0, "no model installed, yet datagrams judged");
    }
    sim.processed() as f64 / secs
}

fn best_of(n: usize, reliable_plan: bool) -> f64 {
    (0..n).map(|_| run(reliable_plan)).fold(0.0, f64::max)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing assertion needs the release profile: without inlining \
              the fast-path guard is not representative; run with cargo \
              test --release"
)]
fn zero_fault_overhead_is_under_one_percent_plus_noise() {
    // Warm up caches and the allocator before any measured run.
    run(false);

    let plain_a = best_of(TRIES, false);
    let plain_b = best_of(TRIES, false);
    let with_plan = best_of(TRIES, true);

    let plain = plain_a.max(plain_b);
    let noise = (plain_a - plain_b).abs() / plain;
    let overhead = plain / with_plan - 1.0;
    let allowed = 0.01 + noise;
    assert!(
        overhead <= allowed,
        "zero-fault overhead {:.2}% exceeds allowance {:.2}% \
         (plain {:.0} / {:.0} ev/s, with plan {:.0} ev/s, noise {:.2}%)",
        overhead * 100.0,
        allowed * 100.0,
        plain_a,
        plain_b,
        with_plan,
        noise * 100.0,
    );
}

/// The two configurations must also be behaviourally identical: a
/// ruleless plan may never change the simulation outcome, only count
/// judgements.
#[test]
fn reliable_plan_preserves_the_fingerprint() {
    let fp = |reliable_plan: bool| {
        let protocol = ProtocolConfig {
            probe_interval_us: 2_000_000,
            rpc_timeout_us: 400_000,
            processing_delay_us: 10_000,
            bandwidth_window_us: 8_000_000,
            ..ProtocolConfig::default()
        };
        let mut sim = FullSim::new(
            protocol,
            Box::new(UniformNetwork { latency_us: 20_000 }),
            13,
        );
        if reliable_plan {
            sim.set_fault_plan(FaultPlan::reliable(13));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        sim.spawn_seed(NodeId(rng.gen()), 1e9, Bytes::new());
        for _ in 1..12 {
            sim.run_for(300_000);
            let _ = sim.spawn_joiner(NodeId(rng.gen()), 1e9, Bytes::new());
        }
        sim.run_until(SimTime::from_secs(30));
        // Compare machine state only: the full fingerprint deliberately
        // mixes the judged counter, which differs by construction.
        (
            sim.accuracy(),
            sim.live_count(),
            sim.fault_counters().dropped,
        )
    };
    assert_eq!(fp(false), fp(true));
}
