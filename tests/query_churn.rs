//! PR 10 churn soak: the serving layer under sustained membership churn
//! and datagram loss. A [`QueryEngine`] serves from one node's published
//! snapshots while the simulation joins, crashes, and gracefully leaves
//! nodes under a seeded [`FaultPlan`] — and must hold four guarantees:
//!
//! * zero query panics: every plan executes against every refreshed
//!   epoch without error, whatever the churn did to the list;
//! * right answers: joiners attach typed maps, bloom filters holding
//!   `doc-churn` and one undecodable attachment, so every plan has hits;
//!   each round every plan answers what `apps::select` answers on a
//!   `PeerList` rebuilt from the served snapshot, and the engine's
//!   decode-error total is the rot actually served;
//! * monotone epochs: the engine's served epoch never moves backwards
//!   across refreshes;
//! * bounded staleness: once churn stops and one settle window passes,
//!   the served view is byte-identical (modulo refresh stamps) to the
//!   observed node's live peer list — the serving layer never trails by
//!   more than the window.

use bytes::Bytes;
use peerwindow::apps::query::{PreparedSnapshot, QueryEngine, QueryPlan};
use peerwindow::apps::{select, Bloom, InfoMap};
use peerwindow::des::DetRng;
use peerwindow::faults::FaultPlan;
use peerwindow::prelude::*;
use peerwindow::sim::FullSim;
use peerwindow::topology::UniformNetwork;

fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 4_000_000,
        rpc_timeout_us: 500_000,
        processing_delay_us: 20_000,
        bandwidth_window_us: 15_000_000,
        ..ProtocolConfig::default()
    }
}

/// Bytes that are neither an `InfoMap` (tag 0xFF) nor a filter (k = 0).
const ROT: &[u8] = &[0x00, 0xFF, 0xFF];

/// What the `n`-th joiner attaches: typed maps, filters holding
/// `doc-churn`, and — once — rot.
fn joiner_info(n: u64) -> Bytes {
    if n == 5 {
        return Bytes::from_static(ROT);
    }
    if n % 3 == 2 {
        let mut f = Bloom::for_items(8, 0.01);
        f.insert(b"doc-churn");
        f.insert(format!("doc-{n}").as_bytes());
        return f.to_bytes();
    }
    let mut m = InfoMap::new();
    m.set_str("os", ["linux", "bsd"][(n % 2) as usize])
        .set_f64("load", (n * 37 % 11) as f64 / 10.0);
    m.encode().expect("two small fields fit")
}

fn ids(ps: Vec<&Pointer>) -> Vec<NodeId> {
    ps.iter().map(|p| p.id).collect()
}

fn served_rot(ps: &PreparedSnapshot) -> u64 {
    let rot = |p: &&Pointer| p.info[..] == *ROT;
    ps.snapshot().pointers().iter().filter(rot).count() as u64
}

#[test]
fn query_engine_survives_seeded_churn() {
    let mut sim = FullSim::new(
        protocol(),
        Box::new(UniformNetwork { latency_us: 25_000 }),
        23,
    );
    // Seeded datagram loss on top of the churn: refreshes and failure
    // reports get dropped, retried, and reordered like on a real WAN.
    sim.set_fault_plan(FaultPlan::uniform_loss(23, 0.02));
    let _dir = sim.enable_snapshots();

    let mut rng = DetRng::new(4242);
    let seed_slot = sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
    let mut slots = Vec::new();
    for n in 0..30u64 {
        sim.run_for(2_000_000);
        slots.push(
            sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, joiner_info(n))
                .expect("bootstrap available"),
        );
    }
    sim.run_for(20_000_000);

    // The engine observes the seed node's published snapshots.
    let reader = sim
        .snapshot_reader(seed_slot)
        .expect("seed published at least once");
    let engine = QueryEngine::new(reader);
    let plans = [
        QueryPlan::Strongest { k: 5 },
        QueryPlan::holders(b"doc-churn"),
        QueryPlan::PartnersEq {
            key: "os".into(),
            value: "linux".into(),
            limit: 8,
        },
        QueryPlan::KSmallest {
            key: "load".into(),
            k: 3,
        },
    ];

    // Churn: every ~6 s one join plus one departure (mostly graceful,
    // every fourth round a silent crash), with the engine refreshing and
    // querying between rounds.
    let mut last_epoch = engine.prepared().epoch();
    let mut rot_served = served_rot(&engine.prepared());
    let mut executed = 0u64;
    let mut hits_by_plan = [0usize; 4];
    for round in 0..25u64 {
        sim.run_for(6_000_000);
        slots.push(
            sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, joiner_info(30 + round))
                .expect("bootstrap available"),
        );
        for _ in 0..8 {
            let victim = slots[(rng.next_u64() as usize) % slots.len()];
            if victim != seed_slot && sim.machine(victim).is_some() && sim.live_count() > 20 {
                if round % 4 == 3 {
                    sim.crash_after(victim, 1_000_000);
                } else {
                    sim.leave_after(victim, 1_000_000);
                }
                break;
            }
        }
        let refreshed = engine.refresh();
        let ps = engine.prepared();
        if refreshed {
            rot_served += served_rot(&ps);
        }
        assert_eq!(engine.decode_errors_total(), rot_served, "round {round}");
        assert!(
            ps.epoch() >= last_epoch,
            "served epoch went backwards: {} < {last_epoch}",
            ps.epoch()
        );
        last_epoch = ps.epoch();
        assert!(ps.snapshot().is_well_formed(), "round {round}: torn view");
        // What `select` answers on the served content, plan by plan.
        let mut served = PeerList::new(Prefix::EMPTY);
        for p in ps.snapshot().pointers() {
            served.insert(p.clone());
        }
        let linux = select::find_partners(&served, |_, m| m.get_str("os") == Some("linux"));
        let want = [
            ids(select::strongest_nodes(&served, 5)),
            ids(select::probable_holders(&served, b"doc-churn")),
            linux.take(8).map(|p| p.id).collect(),
            ids(select::k_smallest_by(&served, "load", 3)),
        ];
        for ((plan, want), hits) in plans.iter().zip(want).zip(&mut hits_by_plan) {
            let got = ids(plan.execute(&ps));
            executed += 1;
            *hits += got.len();
            assert_eq!(got, want, "round {round}: {plan:?}");
        }
    }
    assert_eq!(executed, 100);
    assert!(sim.snapshots_published() > 0);
    assert!(
        hits_by_plan.iter().all(|&h| h > 0),
        "a plan never had a hit: {hits_by_plan:?}"
    );
    assert!(rot_served > 0, "the rot was never served");

    // Settle: one failure-detection window with no further churn, then
    // the served view must equal the seed's live list exactly.
    sim.run_for(90_000_000);
    engine.refresh();
    let ps = engine.prepared();
    assert!(ps.epoch() >= last_epoch);
    let live: Vec<(u128, u8)> = sim
        .machine(seed_slot)
        .expect("seed survives the whole soak")
        .peers()
        .iter()
        .map(|p| (p.id.raw(), p.level.value()))
        .collect();
    let served: Vec<(u128, u8)> = ps
        .snapshot()
        .pointers()
        .iter()
        .map(|p| (p.id.raw(), p.level.value()))
        .collect();
    assert_eq!(
        served, live,
        "served view still trails the live list after a settle window"
    );
}
