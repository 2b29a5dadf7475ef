//! Two contracts of the full-fidelity harness that its digests do not
//! name on their own.
//!
//! * **One judging time.** A datagram is judged by the fault layer at
//!   departure (`now + delay_us`), not when its sender handled the event
//!   that sent it — in `FullSim`, in `ParallelFullSim` at any shard
//!   count, and in the model checker's `McNet`, which steps the same
//!   `World` through its own queue. A `Blackhole` that opens inside a
//!   sender's processing delay drops the datagram.
//! * **The live set.** A node that is draining its graceful leave has
//!   announced departure: `FullSim::spawn_joiner` never bootstraps off
//!   it and `live_count()` does not count it.

use bytes::Bytes;
use peerwindow::des::{DetRng, SimTime};
use peerwindow::faults::{Condition, FaultPlan, FaultRule, LinkSel, NodeSel};
use peerwindow::prelude::*;
use peerwindow::sim::{FullSim, ParallelFullSim};
use peerwindow::topology::UniformNetwork;
use peerwindow_mc::{McNet, SweepOp};

/// Local processing before a multicast forward departs.
const PROCESSING_US: u64 = 20_000;
/// When the sender in slot 0 handles the event that makes it forward.
const SEND_US: u64 = 6_000_000;

fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 3_000_000,
        rpc_timeout_us: 500_000,
        processing_delay_us: PROCESSING_US,
        bandwidth_window_us: 12_000_000,
        ..ProtocolConfig::default()
    }
}

/// Every link out of slot 0 is dead from 1 ms after `SEND_US` until just
/// after its forwards depart: only a judge that looks at the departure
/// time sees the window.
fn blackhole_after_send() -> FaultPlan {
    FaultPlan::reliable(0x7E57).with_rule(FaultRule {
        from_us: SEND_US + 1_000,
        until_us: SEND_US + PROCESSING_US + 1_000,
        links: LinkSel {
            src: NodeSel::One(0),
            dst: NodeSel::All,
            symmetric: false,
        },
        condition: Condition::Blackhole,
    })
}

/// How many of `machines` hold slot 0's `info`.
fn holders<'a>(subject: NodeId, machines: impl Iterator<Item = &'a NodeMachine>) -> usize {
    machines
        .filter(|m| m.peers().get(subject).is_some_and(|p| &p.info[..] == b"v2"))
        .count()
}

/// Runs slot 0's info change at `SEND_US` through a three-node
/// `ParallelFullSim` (or a `FullSim` front when `shards` is `None`) and
/// returns how many peers hold the new info shortly after the forwards
/// would land, how many datagrams were dropped by then, and how many
/// peers hold it once the retries have gone through.
fn info_change(shards: Option<usize>) -> (usize, u64, usize) {
    let ids = [0x1111u128 << 100, 0x2222u128 << 100, 0x3333u128 << 100].map(NodeId);
    let (mut full, mut sharded);
    let sim: &mut ParallelFullSim = match shards {
        None => {
            let net = Box::new(UniformNetwork { latency_us: 20_000 });
            full = FullSim::new(protocol(), net, 3);
            full.set_fault_plan(blackhole_after_send());
            full.spawn_seed(ids[0], 1e9, Bytes::new());
            for &id in &ids[1..] {
                full.run_for(500_000);
                full.spawn_joiner(id, 1e9, Bytes::new()).unwrap();
            }
            &mut full
        }
        Some(shards) => {
            sharded = ParallelFullSim::new(shards, 3, protocol(), 20_000, 1_000, 3);
            sharded.set_fault_plan(&blackhole_after_send());
            sharded.start_node(SimTime::ZERO, 0, ids[0], 1e9, Bytes::new(), None);
            let boot = Target {
                id: ids[0],
                addr: Addr(0),
                level: Level::TOP,
            };
            for (k, &id) in ids.iter().enumerate().skip(1) {
                let at = SimTime::from_millis(500 * k as u64);
                sharded.start_node(at, k as u32, id, 1e9, Bytes::new(), Some(boot));
            }
            &mut sharded
        }
    };
    sim.run_until(SimTime(SEND_US));
    assert_eq!(sim.accuracy(), (6, 0, 0), "three converged nodes");
    sim.command(
        SimTime(SEND_US),
        0,
        Command::ChangeInfo(Bytes::from_static(b"v2")),
    );
    sim.run_until(SimTime(SEND_US + 100_000));
    let early = holders(ids[0], sim.machines().map(|(_, m)| m));
    let dropped = sim.dropped();
    sim.run_until(SimTime(SEND_US + 4_000_000));
    (
        early,
        dropped,
        holders(ids[0], sim.machines().map(|(_, m)| m)),
    )
}

#[test]
fn full_sim_judges_a_datagram_at_departure() {
    let (early, dropped, late) = info_change(None);
    assert_eq!(early, 0, "a forward departing inside the blackhole arrived");
    assert!(dropped >= 1);
    assert_eq!(late, 2, "the retried forwards reach both peers");
}

#[test]
fn parallel_sim_judges_a_datagram_at_departure_at_one_and_three_shards() {
    for shards in [1, 3] {
        let (early, dropped, late) = info_change(Some(shards));
        assert_eq!(
            early, 0,
            "{shards} shards: a forward inside the blackhole arrived"
        );
        assert!(dropped >= 1, "{shards} shards");
        assert_eq!(late, 2, "{shards} shards: the retries reach both peers");
    }
}

#[test]
fn model_checker_net_judges_a_datagram_at_departure() {
    let table = [0x1111u128 << 100, 0x2222u128 << 100, 0x3333u128 << 100];
    let mut net = McNet::new(&table, &protocol(), Some(&blackhole_after_send()), false);
    net.apply_op(SweepOp::Join(1), 3_000_000).unwrap();
    net.apply_op(SweepOp::Join(2), 3_000_000).unwrap();
    assert_eq!(net.now(), SEND_US);
    let knows_0 = |net: &McNet| {
        (1..3)
            .filter(|&k| net.machine(k).unwrap().peers().contains(NodeId(table[0])))
            .count()
    };
    assert_eq!(knows_0(&net), 2);
    // Slot 0's leave multicast forwards depart inside the blackhole.
    net.apply_op(SweepOp::Leave(0), 100_000).unwrap();
    assert_eq!(knows_0(&net), 2, "a forward inside the blackhole arrived");
    net.run_until(SEND_US + 4_000_000).unwrap();
    assert_eq!(knows_0(&net), 0, "the retried forwards announce the leave");
}

#[test]
fn joiners_never_bootstrap_off_a_draining_leaver() {
    // A third of the population drains its leave when the joiner picks:
    // a pick over all occupied slots would hit a leaver in about one seed
    // of three, and a joiner whose bootstrap refuses it dies `Fatal`.
    for seed in 0..24u64 {
        let mut sim = FullSim::new(
            protocol(),
            Box::new(UniformNetwork { latency_us: 20_000 }),
            seed,
        );
        let mut rng = DetRng::new(seed);
        sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
        for _ in 1..12 {
            sim.run_for(400_000);
            sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
                .unwrap();
        }
        sim.run_for(10_000_000);
        let leavers = [2, 5, 7, 10];
        for slot in leavers {
            sim.leave_after(slot, 0);
        }
        sim.run_for(1);
        for slot in leavers {
            assert!(sim.machine(slot).unwrap().is_leaving(), "seed {seed}");
        }
        assert_eq!(sim.live_count(), 8, "seed {seed}: leavers are not live");
        let joiner = sim
            .spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
            .unwrap();
        sim.run_for(15_000_000);
        assert!(
            sim.log().fatals.is_empty(),
            "seed {seed}: {:?}",
            sim.log().fatals
        );
        assert!(sim.log().joined.contains(&joiner), "seed {seed}");
        assert_eq!(sim.live_count(), 9, "seed {seed}");
    }
}
