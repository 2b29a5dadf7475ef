//! Protocol configuration.

use serde::{Deserialize, Serialize};

/// Tunable protocol parameters, with the defaults used in the paper's §5
/// experiments where the paper states them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Size of the top-node list ("commonly we set t = 8", §2).
    pub top_list_size: usize,
    /// Event message size in bits (§5.1: 1,000 bits).
    pub event_msg_bits: u64,
    /// Heartbeat probe size in bits (§1 uses 500-bit heartbeats).
    pub probe_msg_bits: u64,
    /// Acknowledgement size in bits (small control message).
    pub ack_msg_bits: u64,
    /// Interval between probes of the ring successor (§4.1), µs.
    pub probe_interval_us: u64,
    /// Timeout before a probe or multicast send is retried, µs.
    pub rpc_timeout_us: u64,
    /// Attempts before a silent pointer is declared dead ("three
    /// continuous attempts", §4.2).
    pub max_attempts: u32,
    /// Exponential backoff multiplier on the RPC retry timeout: attempt
    /// `k` (1-based) waits `rpc_timeout_us · mult^(k-1)` before the next
    /// re-send. 1.0 restores the paper's fixed-interval retry; > 1
    /// spaces retries out so a congested or bursty-lossy path is not
    /// hammered at exactly the cadence that is failing.
    pub rpc_backoff_mult: f64,
    /// Upper bound on one backed-off retry wait, µs (keeps give-up
    /// latency bounded however large `max_attempts` is configured).
    pub rpc_backoff_max_us: u64,
    /// Deterministic jitter fraction on each backed-off wait: the wait
    /// is stretched by up to this fraction, drawn from the machine's
    /// seeded RNG. Decorrelates retry storms after a partition heals
    /// (every node otherwise retries in lockstep).
    pub rpc_backoff_jitter: f64,
    /// Per-hop processing delay during multicast (§5.1: "every medium node
    /// delays the message for 1 second"), µs.
    pub processing_delay_us: u64,
    /// User-set upper bandwidth threshold for node collection, bps. §5.1
    /// sets it to 1 % of the node's total bandwidth, floored at 500 bps;
    /// that policy lives in the workload crate — this is the resulting
    /// per-node value.
    pub bandwidth_threshold_bps: f64,
    /// Sliding window over which input bandwidth is measured for level
    /// adaptation, µs.
    pub bandwidth_window_us: u64,
    /// Hysteresis: shift one level lower (smaller list) when measured cost
    /// exceeds `threshold`, one level higher (larger list) when it falls
    /// below `threshold * grow_fraction`. The paper's §2 example uses 1/2,
    /// but consecutive levels differ by exactly 2× in cost, so a [W/2, W]
    /// band leaves boundary nodes with no stable level (they oscillate
    /// every window, and each shift is itself a multicast event — a
    /// positive feedback loop at scale). 0.4 widens the band ratio to
    /// 2.5 and kills the limit cycle; see DESIGN.md.
    pub grow_fraction: f64,
    /// Refresh multiplier: an l-level node re-multicasts its state every
    /// `refresh_multiplier · LT_l` (§4.6 uses 2).
    pub refresh_multiplier: f64,
    /// Expiry multiplier: an m-level pointer unrefreshed for
    /// `expire_multiplier · LT_m` is dropped (§4.6 uses 3).
    pub expire_multiplier: f64,
    /// Fallback §4.6 self-refresh period before any lifetime has been
    /// observed (a quiet system never calibrates `LT_l`; this bounds how
    /// long join-window absences can survive on lossy networks), µs.
    pub default_refresh_us: u64,
    /// Optional periodic pull reconciliation: every interval the node
    /// re-downloads its scope from a top node and merges unknown entries.
    /// 0 disables it (the paper's push-only design, appropriate for
    /// reliable transport); lossy deployments should enable it — push-only
    /// dissemination degrades compoundingly once datagram loss removes
    /// enough entries that multicast trees route around their holders.
    pub reconcile_interval_us: u64,
    /// Whether a joining node uses the §4.3 warm-up (start low, rise after
    /// background download).
    pub warm_up: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            top_list_size: 8,
            event_msg_bits: 1_000,
            probe_msg_bits: 500,
            ack_msg_bits: 100,
            probe_interval_us: 10_000_000, // 10 s
            rpc_timeout_us: 3_000_000,     // 3 s
            max_attempts: 3,
            rpc_backoff_mult: 2.0,
            rpc_backoff_max_us: 30_000_000, // 30 s cap
            rpc_backoff_jitter: 0.1,
            processing_delay_us: 1_000_000, // 1 s (§5.1)
            bandwidth_threshold_bps: 5_000.0,
            bandwidth_window_us: 60_000_000, // 60 s
            grow_fraction: 0.4,
            refresh_multiplier: 2.0,
            expire_multiplier: 3.0,
            default_refresh_us: 600_000_000, // 10 min
            reconcile_interval_us: 0,
            warm_up: false,
        }
    }
}

impl ProtocolConfig {
    /// The §5.1 threshold policy: 1 % of the node's total bandwidth but
    /// never below 500 bps.
    pub fn paper_threshold(total_bandwidth_bps: f64) -> f64 {
        (0.01 * total_bandwidth_bps).max(500.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ProtocolConfig::default();
        assert_eq!(c.top_list_size, 8);
        assert_eq!(c.event_msg_bits, 1_000);
        assert_eq!(c.max_attempts, 3);
        assert_eq!(c.processing_delay_us, 1_000_000);
        // Backoff is an extension (the paper retries at a fixed
        // interval): doubling with a 10% jitter and a 30 s cap.
        assert_eq!(c.rpc_backoff_mult, 2.0);
        assert_eq!(c.rpc_backoff_max_us, 30_000_000);
        assert_eq!(c.rpc_backoff_jitter, 0.1);
        assert_eq!(c.refresh_multiplier, 2.0);
        assert_eq!(c.expire_multiplier, 3.0);
    }

    #[test]
    fn paper_threshold_floors_at_500bps() {
        assert_eq!(ProtocolConfig::paper_threshold(56_000.0), 560.0);
        assert_eq!(ProtocolConfig::paper_threshold(10_000.0), 500.0);
        assert_eq!(ProtocolConfig::paper_threshold(10_000_000.0), 100_000.0);
    }
}
