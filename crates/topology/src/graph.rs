//! The router-level transit-stub graph.
//!
//! Node numbering: transit nodes first (`0 .. transit_count`), then stub
//! nodes (`transit_count .. router_count`). Construction mirrors GT-ITM's
//! structure deterministically from a seed:
//!
//! * transit *domains* form a ring plus random chords (the backbone);
//! * transit nodes within a domain are fully meshed;
//! * each transit node hangs `stub_domains_per_transit` stub domains;
//! * stub nodes within a stub domain are fully meshed and each attaches
//!   to the domain's transit node.

use crate::params::TransitStubParams;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A weighted undirected router graph.
#[derive(Clone, Debug)]
pub struct Topology {
    params: TransitStubParams,
    /// Adjacency: `adj[u] = [(v, weight_us), …]`.
    adj: Vec<Vec<(u32, u32)>>,
}

/// SplitMix64 step (local copy to keep this crate dependency-light).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Topology {
    /// Generates a topology from `params` and a seed.
    pub fn generate(params: TransitStubParams, seed: u64) -> Self {
        let n = params.router_count() as usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut rng = seed ^ 0xD6E8FEB86659FD93;

        let connect = |adj: &mut Vec<Vec<(u32, u32)>>, a: u32, b: u32, w: u32| {
            if a == b || adj[a as usize].iter().any(|&(v, _)| v == b) {
                return;
            }
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        };

        let td = params.transit_domains;
        let tpd = params.transit_per_domain;
        let transit_of = |domain: u32, i: u32| domain * tpd + i;

        // Intra-domain transit mesh.
        for d in 0..td {
            for i in 0..tpd {
                for j in (i + 1)..tpd {
                    connect(
                        &mut adj,
                        transit_of(d, i),
                        transit_of(d, j),
                        params.transit_transit_us,
                    );
                }
            }
        }
        // Backbone ring over domains plus random chords.
        for d in 0..td {
            let e = (d + 1) % td;
            if td > 1 {
                let a = transit_of(d, (mix(&mut rng) % tpd as u64) as u32);
                let b = transit_of(e, (mix(&mut rng) % tpd as u64) as u32);
                connect(&mut adj, a, b, params.transit_transit_us);
            }
            for _ in 0..params.extra_transit_edges_per_domain {
                let e = (mix(&mut rng) % td as u64) as u32;
                if e == d {
                    continue;
                }
                let a = transit_of(d, (mix(&mut rng) % tpd as u64) as u32);
                let b = transit_of(e, (mix(&mut rng) % tpd as u64) as u32);
                connect(&mut adj, a, b, params.transit_transit_us);
            }
        }
        // Stub domains.
        let mut next_stub = params.transit_count();
        for t in 0..params.transit_count() {
            for _ in 0..params.stub_domains_per_transit {
                let first = next_stub;
                for i in 0..params.stubs_per_domain {
                    let s = next_stub;
                    next_stub += 1;
                    connect(&mut adj, t, s, params.transit_stub_us);
                    for j in first..first + i {
                        connect(&mut adj, j, s, params.stub_stub_us);
                    }
                }
            }
        }
        debug_assert_eq!(next_stub, params.router_count());
        Topology { params, adj }
    }

    /// Generation parameters.
    pub fn params(&self) -> &TransitStubParams {
        &self.params
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.adj.len()
    }

    /// Router id of stub node `i` (`0 ≤ i < stub_count`).
    pub fn stub_router(&self, i: u32) -> u32 {
        self.params.transit_count() + i
    }

    /// Neighbors of router `u`.
    pub fn neighbors(&self, u: u32) -> &[(u32, u32)] {
        &self.adj[u as usize]
    }

    /// Single-source shortest paths (Dijkstra); returns distances in µs
    /// (`u32::MAX` for unreachable routers).
    pub fn dijkstra(&self, src: u32) -> Vec<u32> {
        self.dijkstra_among(src, self.adj.len() as u32)
    }

    /// [`Self::dijkstra`] in the subgraph of routers `0..limit`; returns
    /// `limit` distances. Transit nodes come first in the numbering, so
    /// `limit = transit_count` searches the backbone alone.
    ///
    /// # Panics
    /// Panics if `src` is not below `limit`.
    pub fn dijkstra_among(&self, src: u32, limit: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; limit as usize];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0u32, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                if v >= limit {
                    continue;
                }
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graph_has_expected_size_and_is_connected() {
        let p = TransitStubParams::small();
        let t = Topology::generate(p, 1);
        assert_eq!(t.router_count(), p.router_count() as usize);
        let d = t.dijkstra(0);
        assert!(d.iter().all(|&x| x != u32::MAX), "graph must be connected");
    }

    #[test]
    fn paper_scale_graph_is_connected() {
        let p = TransitStubParams::default();
        let t = Topology::generate(p, 7);
        let d = t.dijkstra(t.stub_router(0));
        assert_eq!(d.len(), 5_280);
        assert!(d.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn stub_to_own_transit_is_20ms() {
        let p = TransitStubParams::small();
        let t = Topology::generate(p, 1);
        // Stub node 0 attaches to transit node 0.
        let d = t.dijkstra(t.stub_router(0));
        assert_eq!(d[0], p.transit_stub_us);
    }

    #[test]
    fn stubs_in_same_domain_are_5ms_apart() {
        let p = TransitStubParams::small();
        let t = Topology::generate(p, 1);
        let d = t.dijkstra(t.stub_router(0));
        assert_eq!(d[t.stub_router(1) as usize], p.stub_stub_us);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = TransitStubParams::small();
        let a = Topology::generate(p, 9);
        let b = Topology::generate(p, 9);
        for u in 0..a.router_count() as u32 {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
        let c = Topology::generate(p, 10);
        let diff = (0..a.router_count() as u32).any(|u| a.neighbors(u) != c.neighbors(u));
        assert!(diff, "different seeds should differ");
    }

    #[test]
    fn symmetric_distances() {
        let p = TransitStubParams::small();
        let t = Topology::generate(p, 3);
        let from5 = t.dijkstra(t.stub_router(5));
        let from9 = t.dijkstra(t.stub_router(9));
        assert_eq!(
            from5[t.stub_router(9) as usize],
            from9[t.stub_router(5) as usize]
        );
    }
}
