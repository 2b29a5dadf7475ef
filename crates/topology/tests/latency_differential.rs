//! `TransitStubNetwork` against the definition it factors: a full-graph
//! Dijkstra from each stub node, rounded to the nearest millisecond.
//!
//! The network keeps only transit-to-transit distances and derives every
//! stub-to-stub latency from the generator's structure. These tests run
//! the search the table replaces and demand the same number for every
//! pair, on the two stock topologies and on random ones that stress the
//! structural cases (a stub–stub edge longer than the detour over the
//! gateway, one-node and larger stub domains, a single transit node).

use peerwindow_topology::{Topology, TransitStubNetwork, TransitStubParams};
use proptest::prelude::*;

/// Checks rows `0, stride, 2·stride, …` of the latency function against
/// per-stub Dijkstra; returns the first disagreement.
fn check_rows(params: TransitStubParams, seed: u64, stride: usize) -> Result<(), String> {
    let topo = Topology::generate(params, seed);
    let net = TransitStubNetwork::build(&topo);
    let stubs = params.stub_count();
    for a in (0..stubs).step_by(stride) {
        let dist = topo.dijkstra(topo.stub_router(a));
        for b in 0..stubs {
            let us = dist[topo.stub_router(b) as usize];
            let want = ((us + 500) / 1_000) as u64 * 1_000;
            let got = net.stub_latency_us(a, b);
            if got != want {
                return Err(format!(
                    "stub {a} -> {b}: table {got} µs, Dijkstra {want} µs ({params:?}, seed {seed})"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn small_topology_every_pair() {
    check_rows(TransitStubParams::small(), 1, 1).unwrap();
    check_rows(TransitStubParams::small(), 20050614, 1).unwrap();
}

#[test]
fn paper_topology_every_37th_row() {
    check_rows(TransitStubParams::default(), 7, 37).unwrap();
}

fn arb_params() -> impl Strategy<Value = TransitStubParams> {
    (
        (1u32..=5, 1u32..=3, 1u32..=3, 1u32..=4),
        // Edge weights off the millisecond grid, so rounding is exercised;
        // stub–stub reaches past twice the largest transit–stub weight.
        (1u32..200_000, 1u32..40_000, 1u32..100_000, 0u32..=3),
    )
        .prop_map(
            |((td, tpd, sdpt, spd), (tt, ts, ss, extra))| TransitStubParams {
                transit_domains: td,
                transit_per_domain: tpd,
                stub_domains_per_transit: sdpt,
                stubs_per_domain: spd,
                transit_transit_us: tt,
                transit_stub_us: ts,
                stub_stub_us: ss,
                node_node_us: 1_000,
                extra_transit_edges_per_domain: extra,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_topologies_every_pair(params in arb_params(), seed in any::<u64>()) {
        prop_assert_eq!(check_rows(params, seed, 1), Ok(()));
    }
}

/// The random parameters above must reach the cases the factoring could
/// get wrong; pin them so a change to the ranges cannot drop one silently.
#[test]
fn structural_corner_cases() {
    let base = TransitStubParams::small();
    for params in [
        // The detour over the gateway beats the direct stub–stub edge.
        TransitStubParams {
            stub_stub_us: 2 * base.transit_stub_us + 7_300,
            stubs_per_domain: 3,
            ..base
        },
        // One transit node in all: every cross-domain path turns at it.
        TransitStubParams {
            transit_domains: 1,
            transit_per_domain: 1,
            stub_domains_per_transit: 3,
            stubs_per_domain: 4,
            ..base
        },
        // One-node stub domains, one transit node per domain.
        TransitStubParams {
            transit_per_domain: 1,
            stubs_per_domain: 1,
            transit_stub_us: 20_499,
            ..base
        },
    ] {
        check_rows(params, 3, 1).unwrap();
    }
}
