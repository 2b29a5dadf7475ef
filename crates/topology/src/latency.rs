//! End-to-end latency models for overlay simulations.
//!
//! The simulator asks one question: *how long does a message take from
//! overlay node `a` to overlay node `b`?* [`NetworkModel`] abstracts that;
//! [`TransitStubNetwork`] answers it exactly from a transit-to-transit
//! distance table (one Dijkstra per transit node) and each stub node's
//! gateway, plus the paper's 1 ms host–stub legs, and [`UniformNetwork`]
//! is a constant-latency stand-in for unit tests and microbenchmarks.

use crate::graph::Topology;

/// Answers point-to-point latency queries between overlay nodes, addressed
/// by an opaque `u32` (the simulator hands out addresses densely).
pub trait NetworkModel: Sync + Send {
    /// One-way latency between overlay addresses `a` and `b`, µs.
    fn latency_us(&self, a: u32, b: u32) -> u64;
}

/// A boxed model is a model: code generic over `N: NetworkModel` takes a
/// `Box<dyn NetworkModel>` at the cost of the one dynamic call the box
/// already implies.
impl NetworkModel for Box<dyn NetworkModel> {
    #[inline]
    fn latency_us(&self, a: u32, b: u32) -> u64 {
        (**self).latency_us(a, b)
    }
}

/// Constant-latency network (tests, baselines, microbenches).
#[derive(Clone, Copy, Debug)]
pub struct UniformNetwork {
    /// The constant one-way latency, µs.
    pub latency_us: u64,
}

impl NetworkModel for UniformNetwork {
    #[inline]
    fn latency_us(&self, a: u32, b: u32) -> u64 {
        if a == b {
            0
        } else {
            self.latency_us
        }
    }
}

/// Where a stub node sits: its stub domain (stored, so a lookup divides
/// nothing) and the transit node the domain hangs off.
#[derive(Clone, Copy)]
struct StubHome {
    domain: u32,
    gateway: u32,
}

/// Shortest-path latency between the stub nodes of a transit-stub
/// topology, with overlay nodes mapped onto stub nodes round-robin
/// (`addr % stub_count`, giving the paper's ≈20 overlay nodes per stub
/// node at the 100,000-node scale).
///
/// The generator gives every stub node exactly one transit neighbour (its
/// gateway, shared by its whole stub domain) and meshes each stub domain
/// fully, so a shortest path between stub nodes of different domains is
/// `stub → gateway ⇝ gateway → stub`, and within a domain it is the direct
/// edge or the detour over the shared gateway, whichever is shorter. Only
/// the transit-to-transit distances need a search.
pub struct TransitStubNetwork {
    stub_count: u32,
    node_leg_us: u64,
    transit_count: usize,
    /// Row-major `transit_count × transit_count` shortest distances, µs.
    transit_us: Vec<u32>,
    /// Indexed by stub node.
    homes: Vec<StubHome>,
    /// Both transit–stub edges of a cross-domain path, µs.
    access_us: u32,
    /// Distance between two distinct stub nodes of one domain, µs.
    same_domain_us: u32,
}

impl TransitStubNetwork {
    /// Precomputes the transit-to-transit table (one Dijkstra per transit
    /// node) and every stub node's gateway.
    pub fn build(topo: &Topology) -> Self {
        let p = *topo.params();
        let transit_count = p.transit_count();
        // A stub domain reaches the rest of the graph through one transit
        // node, so no shortest path between transit nodes enters one: the
        // backbone alone is searched.
        let mut transit_us = Vec::with_capacity((transit_count as usize).pow(2));
        for t in 0..transit_count {
            let dist = topo.dijkstra_among(t, transit_count);
            debug_assert!(!dist.contains(&u32::MAX), "disconnected backbone");
            transit_us.extend_from_slice(&dist);
        }
        let mut homes: Vec<StubHome> = Vec::with_capacity(p.stub_count() as usize);
        for i in 0..p.stub_count() {
            let domain = i / p.stubs_per_domain;
            let neighbors = topo.neighbors(topo.stub_router(i));
            let mut gateways = neighbors.iter().filter(|&&(v, _)| v < transit_count);
            let &(gateway, _) = gateways.next().expect("stub node without a gateway");
            // What the distance formula rests on: single-homed stub nodes,
            // one gateway per (fully meshed) domain, no stub edge leaving
            // the domain.
            debug_assert!(gateways.next().is_none(), "multi-homed stub node {i}");
            debug_assert!(
                homes
                    .get((domain * p.stubs_per_domain) as usize)
                    .is_none_or(|first| first.gateway == gateway),
                "stub domain {domain} has two gateways"
            );
            debug_assert_eq!(neighbors.len() as u32, p.stubs_per_domain);
            debug_assert!(neighbors
                .iter()
                .all(|&(v, _)| v == gateway || (v - transit_count) / p.stubs_per_domain == domain));
            homes.push(StubHome { domain, gateway });
        }
        TransitStubNetwork {
            stub_count: p.stub_count(),
            node_leg_us: p.node_node_us as u64,
            transit_count: transit_count as usize,
            transit_us,
            homes,
            access_us: 2 * p.transit_stub_us,
            same_domain_us: p.stub_stub_us.min(2 * p.transit_stub_us),
        }
    }

    /// Number of stub attachment points.
    pub fn stub_count(&self) -> u32 {
        self.stub_count
    }

    /// The stub node an overlay address attaches to.
    #[inline]
    pub fn stub_of(&self, addr: u32) -> u32 {
        addr % self.stub_count
    }

    /// Raw stub-to-stub latency, µs: the routed distance rounded to the
    /// nearest millisecond.
    #[inline]
    pub fn stub_latency_us(&self, a: u32, b: u32) -> u64 {
        if a == b {
            return 0;
        }
        let (ha, hb) = (self.homes[a as usize], self.homes[b as usize]);
        let us = if ha.domain == hb.domain {
            self.same_domain_us
        } else {
            let row = ha.gateway as usize * self.transit_count;
            self.access_us + self.transit_us[row + hb.gateway as usize]
        };
        ((us + 500) / 1_000) as u64 * 1_000
    }
}

impl NetworkModel for TransitStubNetwork {
    fn latency_us(&self, a: u32, b: u32) -> u64 {
        if a == b {
            return 0;
        }
        let sa = self.stub_of(a);
        let sb = self.stub_of(b);
        // Two host–stub legs plus the routed stub–stub path (0 if the two
        // hosts share a stub node — they are 2 · node_node apart).
        2 * self.node_leg_us + self.stub_latency_us(sa, sb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TransitStubParams;

    fn small_net() -> TransitStubNetwork {
        let topo = Topology::generate(TransitStubParams::small(), 1);
        TransitStubNetwork::build(&topo)
    }

    #[test]
    fn uniform_network_is_constant() {
        let n = UniformNetwork { latency_us: 5_000 };
        assert_eq!(n.latency_us(1, 2), 5_000);
        assert_eq!(n.latency_us(3, 3), 0);
    }

    #[test]
    fn latency_is_symmetric_with_zero_diagonal() {
        let net = small_net();
        let s = net.stub_count();
        for a in 0..s {
            assert_eq!(net.stub_latency_us(a, a), 0);
            for b in 0..s {
                assert_eq!(net.stub_latency_us(a, b), net.stub_latency_us(b, a));
            }
        }
    }

    #[test]
    fn same_stub_hosts_are_two_host_legs_apart() {
        let net = small_net();
        let s = net.stub_count();
        // Addresses a and a + s map to the same stub node.
        assert_eq!(net.latency_us(3, 3 + s), 2_000);
    }

    #[test]
    fn same_domain_stubs_cost_5ms_plus_legs() {
        let net = small_net();
        // Stubs 0 and 1 are in the same stub domain (construction order).
        assert_eq!(net.latency_us(0, 1), 2_000 + 5_000);
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let net = small_net();
        let s = net.stub_count();
        for a in 0..s.min(12) {
            for b in 0..s.min(12) {
                for c in 0..s.min(12) {
                    assert!(
                        net.stub_latency_us(a, c)
                            <= net.stub_latency_us(a, b) + net.stub_latency_us(b, c) + 1_000,
                        "triangle violated at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_scale_network_builds() {
        let topo = Topology::generate(TransitStubParams::default(), 2);
        let net = TransitStubNetwork::build(&topo);
        assert_eq!(net.stub_count(), 4_800);
        // Cross-backbone paths cost at least one transit hop.
        let far = net.latency_us(0, 2_400);
        assert!(far >= 2_000 + 20_000, "far latency {far}");
        assert!(far < 2_000_000, "far latency {far} implausibly large");
    }
}
