//! Chaos regression: the fault-injection layer composed at full strength
//! over the parallel engine. Three contracts are pinned here:
//!
//! 1. **Shard invariance under faults.** Verdicts are judged at
//!    departure in the sender's shard from per-link random streams, so an
//!    identical `FaultPlan` + seed must yield byte-identical state
//!    fingerprints at 1 and 4 shards — even with burst loss, jitter
//!    reordering, duplication, and a partition all active at once.
//! 2. **Partition + heal convergence.** With probe backoff outlasting
//!    the outage (§4.1 hardening), a 25-second total partition leaves no
//!    permanent damage: the settle audit reports one part, no missing /
//!    stale / cross-part pointers.
//! 3. **Traced runs agree too.** With tracing on, the canonically
//!    sorted record streams (protocol events + `net_fault` records) are
//!    byte-identical across shard counts.

use bytes::Bytes;
use peerwindow::des::SimTime;
use peerwindow::faults::{Condition, FaultPlan, FaultRule, LinkSel};
use peerwindow::prelude::*;
use peerwindow::sim::ParallelFullSim;
use peerwindow_trace::TraceEventKind;

const N: u32 = 32;
const STORM_FROM_US: u64 = 25_000_000;
const STORM_UNTIL_US: u64 = 50_000_000;

fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 2_000_000,
        rpc_timeout_us: 400_000,
        processing_delay_us: 10_000,
        bandwidth_window_us: 8_000_000,
        // Backed-off retries (0.4 s doubling) span ~80 s — longer than
        // the partition below, so nobody is falsely expunged (§4.1).
        max_attempts: 9,
        ..ProtocolConfig::default()
    }
}

/// Everything at once: bursty loss and jitter on all links, duplication,
/// and a domain partition that heals mid-run.
fn stormy_plan() -> FaultPlan {
    FaultPlan::reliable(0xC_4A05)
        .with_rule(FaultRule {
            from_us: STORM_FROM_US,
            until_us: STORM_UNTIL_US,
            links: LinkSel::all(),
            condition: Condition::GilbertElliott {
                p_enter_bad: 0.02,
                p_exit_bad: 0.10,
                loss_good: 0.005,
                loss_bad: 0.40,
            },
        })
        .with_rule(FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: LinkSel::all(),
            condition: Condition::Jitter {
                max_extra_us: 30_000,
            },
        })
        .with_rule(FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: LinkSel::all(),
            condition: Condition::Duplicate {
                p: 0.05,
                gap_us: 4_000,
            },
        })
        .with_partition(STORM_FROM_US, STORM_UNTIL_US, 4, &[1, 3])
}

fn build(shards: usize, trace: bool) -> ParallelFullSim {
    build_with(shards, trace, protocol())
}

fn build_with(shards: usize, trace: bool, protocol: ProtocolConfig) -> ParallelFullSim {
    let mut sim = ParallelFullSim::new(shards, N as usize, protocol, 20_000, 1_000, 11);
    sim.set_fault_plan(&stormy_plan());
    if trace {
        sim.enable_tracing(true);
    }
    let seed_id = NodeId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
    sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
    let boot = Target {
        id: seed_id,
        addr: Addr(0),
        level: Level::TOP,
    };
    for k in 1..N {
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
    sim
}

#[test]
fn stormy_fingerprint_is_shard_invariant() {
    let mut one = build(1, false);
    let mut four = build(4, false);
    one.run_until(SimTime::from_secs(120));
    four.run_until(SimTime::from_secs(120));
    let (c1, c4) = (one.fault_counters(), four.fault_counters());
    assert!(c1.dropped > 0, "storm produced no drops: {c1:?}");
    assert!(c1.duplicated > 0, "no duplicates injected: {c1:?}");
    assert!(c1.jittered > 0, "no jitter applied: {c1:?}");
    assert_eq!(c1, c4, "fault verdicts diverged across shard counts");
    assert_eq!(
        one.fingerprint(),
        four.fingerprint(),
        "state diverged across shard counts under faults"
    );
}

/// The §4.1 hardening claim, made executable as a counterfactual pair:
/// at the default three probe attempts the partition purges the lists
/// (the settle audit sees the damage mid-outage); with nine backed-off
/// attempts the retry schedule outlasts the outage, nobody is expunged,
/// and the system settles on its own after the heal.
#[test]
fn partition_heals_and_settles() {
    // Counterfactual: un-hardened failure detection. ~3 s to a false
    // obituary, so 20 s into the partition the halves have purged each
    // other and the audit reports the missing pointers.
    let mut soft = build_with(
        4,
        false,
        ProtocolConfig {
            max_attempts: 3,
            ..protocol()
        },
    );
    soft.run_until(SimTime::from_micros(STORM_UNTIL_US - 5_000_000));
    let during = soft.part_audit();
    assert!(
        !during.is_settled(),
        "default config rode through a 25 s partition: {during:?}"
    );
    assert!(during.missing > 0, "expected purged pointers: {during:?}");

    // Hardened config: backoff outlasts the outage.
    let mut sim = build(4, false);
    sim.run_until(SimTime::from_micros(STORM_UNTIL_US - 5_000_000));
    let riding = sim.part_audit();
    assert_eq!(
        riding.missing, 0,
        "backoff failed to ride through the partition: {riding:?}"
    );
    sim.run_until(SimTime::from_secs(180));
    assert_eq!(sim.live_count(), N as usize);
    let (_, missing, stale) = sim.accuracy();
    assert_eq!((missing, stale), (0, 0), "lists did not repair after heal");
    let after = sim.part_audit();
    assert!(after.is_settled(), "not settled after heal: {after:?}");
    assert_eq!(after.parts, 1, "system still split: {after:?}");
}

#[test]
fn traced_stormy_runs_are_identical_across_shards() {
    let mut one = build(1, true);
    let mut four = build(4, true);
    one.run_until(SimTime::from_secs(90));
    four.run_until(SimTime::from_secs(90));
    assert_eq!(one.fingerprint(), four.fingerprint());
    let (t1, t4) = (one.take_trace(), four.take_trace());
    assert!(!t1.is_empty());
    assert!(
        t1.iter()
            .any(|r| matches!(r.kind, TraceEventKind::NetFault { .. })),
        "no net_fault records in the traced storm"
    );
    assert_eq!(t1.len(), t4.len(), "trace lengths diverged");
    assert_eq!(t1, t4, "trace contents diverged across shard counts");
}
