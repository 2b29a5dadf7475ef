//! Cross-validation of the two simulation fidelities.
//!
//! Oracle mode replaces per-node peer lists with one ground-truth
//! directory (the paper's own memory trick). These tests pin down the
//! equivalences that justify it: identical multicast trees on identical
//! membership, matching per-level list sizes, and matching steady-state
//! behaviour of a small system run both ways.

use peerwindow::prelude::*;
use peerwindow::sim::directory::{AudienceEntry, Charge, Directory};
use peerwindow::sim::plan::{plan_event, Rmq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_membership(n: usize, seed: u64) -> Vec<(NodeId, Level)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (NodeId(rng.gen()), Level::new(rng.gen_range(0..5))))
        .collect()
}

/// The oracle planner and the reference peer-list planner must produce
/// the same tree on the same membership, for many subjects and seeds.
#[test]
fn oracle_planner_equals_reference_planner() {
    for seed in 0..5u64 {
        let members = random_membership(600, seed);
        // Reference: a consistent peer list.
        let mut list = PeerList::new(Prefix::EMPTY);
        for &(id, l) in &members {
            list.insert(Pointer::new(id, Addr(0), l));
        }
        // Oracle: the directory.
        let mut dir = Directory::new();
        for (i, &(id, l)) in members.iter().enumerate() {
            dir.join(id, i as u32, l, 500.0, 1e6);
        }
        let root = members
            .iter()
            .filter(|(_, l)| l.is_top())
            .map(|&(id, _)| id)
            .min()
            .expect("a top node");
        let mut audience: Vec<AudienceEntry> = Vec::new();
        let mut rmq = Rmq::new();
        for k in 0..20 {
            let subject = members[k * 29].0;
            if subject == root {
                continue;
            }
            let reference: BTreeSet<(u128, u128)> = plan_tree(&list, root, 0, subject)
                .into_iter()
                .map(|e| (e.from.raw(), e.to.id.raw()))
                .collect();
            dir.collect_audience(subject, &mut audience);
            let root_idx = audience
                .binary_search_by_key(&root.raw(), |e| e.id)
                .expect("root in audience");
            let mut got = BTreeSet::new();
            plan_event(
                &audience,
                &mut rmq,
                root_idx,
                0,
                0,
                0,
                |_, _| 0,
                |d| {
                    got.insert((audience[d.parent].id, audience[d.child].id));
                },
            );
            assert_eq!(got, reference, "seed {seed}, subject {subject}");
            // The planner `run_oracle` walks: the directory's kept trie.
            let charge = Charge {
                event_bits: 0,
                ack_bits: 0,
                measuring: false,
            };
            let mut kept = BTreeSet::new();
            dir.plan(
                subject,
                root,
                0,
                0,
                charge,
                |_, _| 0,
                |h| {
                    kept.insert((h.parent.raw(), h.child.raw()));
                },
            );
            assert_eq!(kept, reference, "kept trie, seed {seed}, subject {subject}");
        }
    }
}

/// The directory's prefix counts must equal what the full-fidelity
/// machines end up holding once a quiet system converges.
#[test]
fn converged_full_sim_matches_directory_counts() {
    use bytes::Bytes;
    use peerwindow::des::DetRng;
    use peerwindow::sim::FullSim;
    use peerwindow::topology::UniformNetwork;

    let protocol = ProtocolConfig {
        probe_interval_us: 5_000_000,
        rpc_timeout_us: 500_000,
        processing_delay_us: 20_000,
        ..ProtocolConfig::default()
    };
    let mut sim = FullSim::new(protocol, Box::new(UniformNetwork { latency_us: 20_000 }), 3);
    let mut rng = DetRng::new(77);
    sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
    for _ in 0..40 {
        sim.run_for(700_000);
        sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
            .unwrap();
    }
    sim.run_for(40_000_000);
    // Build the oracle directory from the machines' self-reported state.
    let mut dir = Directory::new();
    for (slot, m) in sim.machines() {
        dir.join(m.id(), slot, m.level(), m.threshold_bps(), 1e6);
    }
    for (_, m) in sim.machines() {
        let correct = dir.count_prefix(m.eigenstring()) - 1; // minus self
        assert_eq!(
            m.peers().len(),
            correct,
            "machine {} list size mismatch",
            m.id()
        );
    }
}

/// Small-system steady state: oracle-mode per-level error rates are of
/// the same magnitude as the paper's analytic model, which the full
/// machines also obey — three-way consistency at the order-of-magnitude
/// level (the figures only claim shapes).
#[test]
fn oracle_error_magnitude_matches_model() {
    use peerwindow::sim::oracle::{run_oracle, OracleConfig};
    let mut cfg = OracleConfig::paper_common_uniform(3_000, 5);
    cfg.warmup_s = 20.0;
    cfg.measure_s = 80.0;
    let rep = run_oracle(cfg);
    let model = ModelParams {
        lifetime_s: 135.0 * 60.0,
        ..ModelParams::default()
    };
    // Mean staleness is bounded by the full multicast delay plus the
    // §4.1 detection overhead; error = m·staleness/L within a small
    // constant of the model's single-delay estimate.
    let delay = model.multicast_delay_s(3_000.0, 0.08, 1.0);
    let model_err = model.error_rate(delay);
    assert!(
        rep.avg_error_rate < 10.0 * model_err && rep.avg_error_rate > 0.1 * model_err,
        "oracle {} vs model {}",
        rep.avg_error_rate,
        model_err
    );
}
