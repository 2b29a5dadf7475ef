//! One-hop-DHT baseline (§6, Gupta–Liskov–Rodrigues \[7\]).
//!
//! A one-hop DHT gives *every* node a complete membership table,
//! disseminated through a fixed slice/unit-leader hierarchy. The paper's
//! criticism: it "treats almost all the nodes as homogeneous peers and
//! costs too much for weak nodes when the system is very large and
//! dynamic". This module models that cost so the comparison bench can
//! plot weak-node burden under one-hop vs PeerWindow's self-chosen level.

use peerwindow_core::model::ModelParams;

/// One-hop DHT cost model.
#[derive(Clone, Copy, Debug)]
pub struct OneHopConfig {
    /// System size.
    pub n: f64,
    /// Mean lifetime, seconds.
    pub lifetime_s: f64,
    /// Event message size, bits.
    pub msg_bits: f64,
    /// State changes per lifetime (join + leave).
    pub changes_per_lifetime: f64,
}

impl OneHopConfig {
    /// The §5.1-style environment at size `n`.
    pub fn paper(n: f64) -> Self {
        OneHopConfig {
            n,
            lifetime_s: 135.0 * 60.0,
            msg_bits: 1_000.0,
            changes_per_lifetime: 2.0, // one-hop disseminates joins/leaves
        }
    }

    /// Mandatory per-node maintenance bandwidth, bps — identical for a
    /// modem node and a campus node.
    pub fn per_node_cost_bps(&self) -> f64 {
        self.n * self.changes_per_lifetime * self.msg_bits / self.lifetime_s
    }

    /// Whether a node with `budget_bps` can afford membership at all.
    pub fn affordable(&self, budget_bps: f64) -> bool {
        self.per_node_cost_bps() <= budget_bps
    }

    /// PeerWindow's cost for the same budget: the node simply picks the
    /// level that fits, and collects `n / 2^level` pointers.
    pub fn peerwindow_pointers(&self, budget_bps: f64) -> f64 {
        let m = ModelParams {
            lifetime_s: self.lifetime_s,
            changes_per_lifetime: 3.0,
            redundancy: 1.0,
            msg_bits: self.msg_bits,
        };
        let level = m.stable_level(self.n, budget_bps);
        self.n / 2f64.powi(level.value() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hop_cost_is_size_proportional_and_capacity_blind() {
        let small = OneHopConfig::paper(10_000.0);
        let large = OneHopConfig::paper(1_000_000.0);
        assert!((large.per_node_cost_bps() / small.per_node_cost_bps() - 100.0).abs() < 1e-9);
        // At a million nodes, one-hop needs ≈ 247 kbps from EVERY node…
        assert!(large.per_node_cost_bps() > 200_000.0);
        // …which a modem node (56 kbps total!) cannot give.
        assert!(!large.affordable(560.0));
        assert!(!large.affordable(56_000.0));
    }

    #[test]
    fn peerwindow_serves_the_same_weak_node_with_a_scaled_list() {
        let env = OneHopConfig::paper(1_000_000.0);
        // A modem node budgeting 560 bps still participates, with a
        // usefully large list.
        let p = env.peerwindow_pointers(560.0);
        // ≈ n / 2^10.
        assert!(p >= 900.0, "weak node collects only {p}");
        // A strong node gets (nearly) everything.
        let p = env.peerwindow_pointers(1e9);
        assert!((p - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn crossover_where_one_hop_is_fine() {
        // In a small, stable system one-hop is affordable for everyone —
        // the baseline is not a strawman there.
        let env = OneHopConfig::paper(5_000.0);
        assert!(env.affordable(5_000.0));
        assert!(env.per_node_cost_bps() < 2_000.0);
    }
}
