//! Golden digests of the full-fidelity harness and its synchronous front.
//!
//! `tests/determinism.rs` compares runs with each other, so a change that
//! shifts both sides equally goes unseen. This suite pins *absolute*
//! values: one ≈ 24-node script — staggered joins, an info change, a
//! level pin, a silent crash, a `Shutdown` whose drain finishes, a joiner whose links
//! are blackholed so it ends `Fatal` — under a `FaultPlan` with a `Loss`
//! rule, a `Duplicate` rule with a positive gap and a `Blackhole` window
//! that opens mid-run, through `FullSim` and through `ParallelFullSim` at
//! 1 and 3 shards. A refactor of the harness must leave every constant
//! below untouched; a protocol change that moves them re-records them on
//! purpose, in the same commit.

use bytes::Bytes;
use peerwindow::des::{DetRng, SimTime};
use peerwindow::faults::{Condition, FaultCounters, FaultPlan, FaultRule, LinkSel, NodeSel};
use peerwindow::prelude::*;
use peerwindow::sim::{FullSim, ParallelFullSim};
use peerwindow::topology::UniformNetwork;
use peerwindow_trace::jsonl;

/// Slot/actor of the joiner that can never reach anyone.
const DOOMED: u32 = 23;
/// Slot/actor that announces its departure and drains it.
const LEAVER: u32 = 9;

fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 3_000_000,
        rpc_timeout_us: 500_000,
        processing_delay_us: 20_000,
        bandwidth_window_us: 12_000_000,
        ..ProtocolConfig::default()
    }
}

fn rule(from_us: u64, until_us: u64, links: LinkSel, condition: Condition) -> FaultRule {
    FaultRule {
        from_us,
        until_us,
        links,
        condition,
    }
}

/// 2 % loss and 4 % duplication (copy 7 ms behind the original) on every
/// link for the whole run; node 2 cut off from everyone during
/// [30 s, 36 s); every link of `DOOMED` dead forever.
fn plan() -> FaultPlan {
    FaultPlan::reliable(0x601D)
        .with_rule(rule(
            0,
            u64::MAX,
            LinkSel::all(),
            Condition::Loss { p: 0.02 },
        ))
        .with_rule(rule(
            0,
            u64::MAX,
            LinkSel::all(),
            Condition::Duplicate {
                p: 0.04,
                gap_us: 7_000,
            },
        ))
        .with_rule(rule(
            30_000_000,
            36_000_000,
            LinkSel::between(NodeSel::One(2), NodeSel::All),
            Condition::Blackhole,
        ))
        .with_rule(rule(
            0,
            u64::MAX,
            LinkSel::between(NodeSel::One(DOOMED), NodeSel::All),
            Condition::Blackhole,
        ))
}

/// FNV-1a over the canonical JSONL export.
fn trace_hash(records: &[peerwindow_trace::TraceRecord]) -> (usize, u64) {
    let doc = jsonl::to_string(records);
    let h = doc.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    (records.len(), h)
}

fn counters(judged: u64, dropped: u64, duplicated: u64, jittered: u64) -> FaultCounters {
    FaultCounters {
        judged,
        dropped,
        duplicated,
        jittered,
    }
}

/// Everything both harnesses expose about the finished run. Both reap a
/// machine that has left, so the leaver, the doomed joiner and the
/// crashed node are gone from their slots.
#[derive(Debug, PartialEq)]
struct Golden {
    fingerprint: u64,
    processed: u64,
    accuracy: (usize, usize, usize),
    live_count: usize,
    faults: FaultCounters,
    leaver_reaped: bool,
    doomed_reaped: bool,
    crashed_reaped: bool,
    trace: (usize, u64),
}

/// Reads a finished run; `fingerprint` is the harness's own digest.
fn golden(sim: &mut ParallelFullSim, fingerprint: u64) -> Golden {
    Golden {
        fingerprint,
        processed: sim.processed(),
        accuracy: sim.accuracy(),
        live_count: sim.live_count(),
        faults: sim.fault_counters(),
        leaver_reaped: sim.machine(LEAVER).is_none(),
        doomed_reaped: sim.machine(DOOMED).is_none(),
        crashed_reaped: sim.machine(6).is_none(),
        trace: trace_hash(&sim.take_trace()),
    }
}

/// The sequential harness's run, and its log's lengths: joined,
/// failures, fatals, shifts, invariant violations.
fn full_sim_run() -> (Golden, [usize; 5]) {
    let mut sim = FullSim::new(
        protocol(),
        Box::new(UniformNetwork { latency_us: 25_000 }),
        15,
    );
    sim.set_fault_plan(plan());
    sim.enable_tracing(true);
    let mut rng = DetRng::new(0xA11CE);
    assert_eq!(
        sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new()),
        0
    );
    for k in 1..DOOMED {
        sim.run_for(500_000);
        let slot = sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new());
        assert_eq!(slot, Some(k));
    }
    sim.run_until(SimTime::from_secs(20));
    sim.set_info_after(4, 0, Bytes::from_static(b"v2"));
    sim.set_level_after(3, 1_000_000, Level::new(1));
    sim.crash_after(6, 2_000_000);
    sim.leave_after(LEAVER, 4_000_000);
    sim.run_until(SimTime::from_secs(26));
    let doomed = sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new());
    assert_eq!(doomed, Some(DOOMED));
    sim.run_until(SimTime::from_secs(70));
    let log = sim.log();
    let lengths = [
        log.joined.len(),
        log.failures.len(),
        log.fatals.len(),
        log.shifts.len(),
        log.invariant_violations.len(),
    ];
    let fingerprint = sim.fingerprint();
    (golden(&mut sim, fingerprint), lengths)
}

#[test]
fn full_sim_matches_its_recorded_digests() {
    let want = Golden {
        fingerprint: 761545754145094060,
        processed: 5759,
        accuracy: (410, 2, 0),
        live_count: 21,
        faults: counters(3306, 87, 117, 0),
        leaver_reaped: true,
        doomed_reaped: true,
        crashed_reaped: true,
        trace: (8429, 6993667187438358033),
    };
    assert_eq!(full_sim_run(), (want, [22, 3, 1, 1, 0]));
}

fn parallel_run(shards: usize) -> Golden {
    let n = DOOMED + 1;
    let mut sim = ParallelFullSim::new(shards, n as usize, protocol(), 20_000, 1_000, 15);
    sim.set_fault_plan(&plan());
    sim.enable_tracing(true);
    let mut rng = DetRng::new(0xA11CE);
    let seed_id = NodeId(rng.next_u128());
    sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
    let boot = Target {
        id: seed_id,
        addr: Addr(0),
        level: Level::TOP,
    };
    for k in 1..DOOMED {
        sim.start_node(
            SimTime::from_millis(500 * k as u64),
            k,
            NodeId(rng.next_u128()),
            1e9,
            Bytes::new(),
            Some(boot),
        );
    }
    sim.command(
        SimTime::from_secs(20),
        4,
        Command::ChangeInfo(Bytes::from_static(b"v2")),
    );
    sim.command(SimTime::from_secs(21), 3, Command::SetLevel(Level::new(1)));
    sim.crash(SimTime::from_secs(22), 6);
    sim.command(SimTime::from_secs(24), LEAVER, Command::Shutdown);
    sim.start_node(
        SimTime::from_secs(26),
        DOOMED,
        NodeId(rng.next_u128()),
        1e9,
        Bytes::new(),
        Some(boot),
    );
    sim.run_until(SimTime::from_secs(70));
    let fingerprint = sim.fingerprint();
    golden(&mut sim, fingerprint)
}

fn parallel_want() -> Golden {
    Golden {
        fingerprint: 2962812572013458917,
        processed: 6096,
        accuracy: (410, 6, 0),
        live_count: 21,
        faults: counters(3512, 98, 125, 0),
        leaver_reaped: true,
        doomed_reaped: true,
        crashed_reaped: true,
        trace: (8948, 9445207231844667596),
    }
}

#[test]
fn parallel_sim_matches_its_recorded_digests_at_one_shard() {
    assert_eq!(parallel_run(1), parallel_want());
}

#[test]
fn parallel_sim_matches_its_recorded_digests_at_three_shards() {
    assert_eq!(parallel_run(3), parallel_want());
}
