//! Protocol configuration.

use serde::{Deserialize, Serialize};

/// Tunable protocol parameters, with the defaults used in the paper's §5
/// experiments where the paper states them. Settings no caller tunes are
/// constants beside the code that reads them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
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
    /// Per-hop processing delay during multicast (§5.1: "every medium node
    /// delays the message for 1 second"), µs.
    pub processing_delay_us: u64,
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
            event_msg_bits: 1_000,
            probe_msg_bits: 500,
            ack_msg_bits: 100,
            probe_interval_us: 10_000_000, // 10 s
            rpc_timeout_us: 3_000_000,     // 3 s
            max_attempts: 3,
            processing_delay_us: 1_000_000,  // 1 s (§5.1)
            bandwidth_window_us: 60_000_000, // 60 s
            grow_fraction: 0.4,
            default_refresh_us: 600_000_000, // 10 min
            reconcile_interval_us: 0,
            warm_up: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ProtocolConfig::default();
        assert_eq!(c.event_msg_bits, 1_000);
        assert_eq!(c.max_attempts, 3);
        assert_eq!(c.processing_delay_us, 1_000_000);
    }
}
