//! Determinism regression: identically-seeded simulations must produce
//! byte-identical state fingerprints — run-to-run, and (for the parallel
//! engine) across shard counts. This is the workspace's "no HashMap
//! iteration, no wall clock" contract made executable; the lint side of
//! the same contract lives in `peerwindow-audit`.

use bytes::Bytes;
use peerwindow::des::{DetRng, SimTime};
use peerwindow::prelude::*;
use peerwindow::sim::{FullSim, ParallelFullSim};
use peerwindow::topology::UniformNetwork;

fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 3_000_000,
        rpc_timeout_us: 500_000,
        processing_delay_us: 20_000,
        bandwidth_window_us: 12_000_000,
        ..ProtocolConfig::default()
    }
}

/// A busy little system: joins, a level pin, silent crashes, graceful
/// departures, and (optionally) datagram loss — every nondeterminism
/// hazard the protocol stack has, in one scenario.
fn full_sim_fingerprint(engine_seed: u64, loss: f64) -> u64 {
    let mut sim = FullSim::new(
        protocol(),
        Box::new(UniformNetwork { latency_us: 25_000 }),
        engine_seed,
    );
    sim.set_loss(loss);
    let mut rng = DetRng::new(77);
    sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
    let mut slots = Vec::new();
    for _ in 0..24 {
        sim.run_for(700_000);
        if let Some(s) = sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new()) {
            slots.push(s);
        }
    }
    sim.run_for(20_000_000);
    sim.set_level_after(slots[3], 100_000, Level::new(1));
    sim.crash_after(slots[7], 2_000_000);
    sim.crash_after(slots[8], 2_100_000);
    sim.leave_after(slots[11], 5_000_000);
    sim.run_for(60_000_000);
    sim.fingerprint()
}

#[test]
fn same_seed_same_fingerprint() {
    assert_eq!(
        full_sim_fingerprint(42, 0.0),
        full_sim_fingerprint(42, 0.0),
        "identically-seeded runs diverged on a reliable network"
    );
}

#[test]
fn same_seed_same_fingerprint_under_loss() {
    // Datagram loss is drawn from the seeded engine RNG, so it must not
    // break reproducibility either.
    assert_eq!(
        full_sim_fingerprint(42, 0.05),
        full_sim_fingerprint(42, 0.05),
        "identically-seeded runs diverged under 5 % loss"
    );
}

#[test]
fn fingerprint_is_seed_sensitive() {
    // Canary for a degenerate digest: different engine seeds must not
    // collapse to one value.
    assert_ne!(full_sim_fingerprint(42, 0.0), full_sim_fingerprint(43, 0.0));
}

/// The parallel engine's pitch (and ONSP's): shard count is a pure
/// speedup, never a different simulation. `faulty` additionally installs
/// a lossy/jittery `FaultPlan`, and `workers` overrides the engine's
/// thread count — none of which may perturb the fingerprint.
fn parallel_fingerprint_cfg(shards: usize, faulty: bool, workers: usize) -> (u64, u64) {
    let n = 24u32;
    let mut sim = ParallelFullSim::new(shards, n as usize, protocol(), 20_000, 1_000, 7);
    sim.set_workers(workers);
    if faulty {
        sim.set_fault_plan(&peerwindow::faults::FaultPlan::uniform_loss(99, 0.03));
    }
    let seed_id = NodeId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
    sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
    let boot = Target {
        id: seed_id,
        addr: Addr(0),
        level: Level::TOP,
    };
    for k in 1..n {
        let id = NodeId((k as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_0C4A_2B8E_D1A3) | 1);
        sim.start_node(
            SimTime::from_millis(500 * k as u64),
            k,
            id,
            1e9,
            Bytes::new(),
            Some(boot),
        );
    }
    sim.crash(SimTime::from_secs(25), 5);
    sim.command(SimTime::from_secs(30), 2, Command::Shutdown);
    sim.run_until(SimTime::from_secs(60));
    (sim.fingerprint(), sim.processed())
}

fn parallel_fingerprint(shards: usize) -> (u64, u64) {
    parallel_fingerprint_cfg(shards, false, 1)
}

/// Same scenario as [`parallel_fingerprint_cfg`], but with the runtime
/// metrics layer switched on. Also returns the report so tests can check
/// the observation side without re-running.
fn parallel_fingerprint_metered(
    shards: usize,
    workers: usize,
) -> (u64, u64, peerwindow::metrics::runtime::RunReport) {
    let n = 24u32;
    let mut sim = ParallelFullSim::new(shards, n as usize, protocol(), 20_000, 1_000, 7);
    sim.set_workers(workers);
    sim.enable_runtime_metrics(true);
    let seed_id = NodeId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
    sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
    let boot = Target {
        id: seed_id,
        addr: Addr(0),
        level: Level::TOP,
    };
    for k in 1..n {
        let id = NodeId((k as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_0C4A_2B8E_D1A3) | 1);
        sim.start_node(
            SimTime::from_millis(500 * k as u64),
            k,
            id,
            1e9,
            Bytes::new(),
            Some(boot),
        );
    }
    sim.crash(SimTime::from_secs(25), 5);
    sim.command(SimTime::from_secs(30), 2, Command::Shutdown);
    sim.run_until(SimTime::from_secs(60));
    let report = sim.runtime_metrics_report("determinism");
    (sim.fingerprint(), sim.processed(), report)
}

#[test]
fn runtime_metrics_do_not_perturb_the_fingerprint() {
    // Metrics are write-only observation: recording wall-clock laps and
    // handoff counters must leave the simulated world byte-identical.
    let (plain_f, plain_p) = parallel_fingerprint(4);
    let (metered_f, metered_p, _) = parallel_fingerprint_metered(4, 1);
    assert_eq!(plain_p, metered_p, "metrics changed the processed count");
    assert_eq!(plain_f, metered_f, "metrics changed the world digest");
}

#[test]
fn shard_invariance_holds_with_runtime_metrics_enabled() {
    // The PR 8 contract: 1-vs-4-shard fingerprints stay byte-identical
    // with `runtime-metrics` compiled in *and* enabled, sequential and
    // threaded paths alike.
    let (f1, p1, _) = parallel_fingerprint_metered(1, 1);
    let (f4, p4, _) = parallel_fingerprint_metered(4, 1);
    let (f4t, p4t, _) = parallel_fingerprint_metered(4, 4);
    assert_eq!(p1, p4, "processed counts differ with metrics (1 vs 4)");
    assert_eq!(f1, f4, "world digest differs with metrics (1 vs 4)");
    assert_eq!(p1, p4t, "processed counts differ with metrics (threaded)");
    assert_eq!(f1, f4t, "world digest differs with metrics (threaded)");
}

#[test]
fn runtime_metrics_report_is_coherent() {
    // When the feature is compiled in, the attribution must account for
    // the run: fractions over named groups sum to ~1 and the event
    // counter matches the engine's processed count.
    let (_, processed, report) = parallel_fingerprint_metered(4, 2);
    if !peerwindow::sim::runtime_metrics_active() {
        assert_eq!(report.total_time_ns(), 0);
        return;
    }
    assert_eq!(report.counter("events"), processed);
    assert!(report.counter("windows") > 0, "no windows recorded");
    assert!(report.total_time_ns() > 0, "no wall-clock time attributed");
    let sum: f64 = report.attribution().iter().map(|(_, f)| f).sum();
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "attribution fractions sum to {sum}, expected 1.0"
    );
    assert_eq!(report.per_shard.len(), 4, "expected one row per shard");

    // The export pair on a real run's report, not a synthetic one.
    use peerwindow::metrics::runtime::{parse_jsonl, prometheus};
    let text = report.to_jsonl();
    let parsed = parse_jsonl(&text).expect("a real run's export parses");
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0].to_jsonl(), text, "re-export is not byte-equal");
    let page = prometheus(&parsed);
    let families = ["time_ns", "shard_events"]
        .into_iter()
        .chain(report.counters.iter().map(|(name, _)| name.as_str()));
    for family in families {
        let line = format!("# TYPE peerwindow_engine_{family}_total counter");
        assert!(page.contains(&line), "missing {line:?} in:\n{page}");
    }
}

#[test]
fn one_and_four_shards_agree() {
    let (f1, p1) = parallel_fingerprint(1);
    let (f4, p4) = parallel_fingerprint(4);
    assert_eq!(p1, p4, "processed-event counts differ (1 vs 4 shards)");
    assert_eq!(f1, f4, "world digest differs (1 vs 4 shards)");
}

#[test]
fn one_four_and_eight_shards_agree() {
    let (f1, p1) = parallel_fingerprint(1);
    let (f8, p8) = parallel_fingerprint(8);
    assert_eq!(p1, p8, "processed-event counts differ (1 vs 8 shards)");
    assert_eq!(f1, f8, "world digest differs (1 vs 8 shards)");
}

#[test]
fn shard_invariance_holds_under_fault_plan() {
    // A lossy, jittery network exercises the per-link conditioner streams;
    // the digest must still be a pure function of the scenario.
    let (f1, p1) = parallel_fingerprint_cfg(1, true, 1);
    let (f4, p4) = parallel_fingerprint_cfg(4, true, 1);
    let (f8, p8) = parallel_fingerprint_cfg(8, true, 1);
    assert_eq!(p1, p4, "processed counts differ under faults (1 vs 4)");
    assert_eq!(p1, p8, "processed counts differ under faults (1 vs 8)");
    assert_eq!(f1, f4, "digest differs under faults (1 vs 4 shards)");
    assert_eq!(f1, f8, "digest differs under faults (1 vs 8 shards)");
    // The plan actually dropped traffic (different digest from clean run).
    assert_ne!(
        f1,
        parallel_fingerprint(1).0,
        "fault plan had no observable effect — the faulty pin is vacuous"
    );
}

#[test]
fn worker_count_never_changes_the_world() {
    // The threaded window protocol (persistent workers, spin barrier,
    // mailbox matrix) must be bit-identical to the sequential path, even
    // oversubscribed on a 1-core host.
    let (f1, p1) = parallel_fingerprint_cfg(8, true, 1);
    let (f4, p4) = parallel_fingerprint_cfg(8, true, 4);
    let (f8, p8) = parallel_fingerprint_cfg(8, true, 8);
    assert_eq!(p1, p4, "processed counts differ (1 vs 4 workers)");
    assert_eq!(p1, p8, "processed counts differ (1 vs 8 workers)");
    assert_eq!(f1, f4, "world digest differs (1 vs 4 workers)");
    assert_eq!(f1, f8, "world digest differs (1 vs 8 workers)");
}
