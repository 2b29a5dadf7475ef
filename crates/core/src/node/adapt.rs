//! Autonomic level adaptation (§2, §4.3): the receive-bandwidth meter,
//! the debounced shift decision, and announcing a lowered level.

use super::rpc::RpcKind;
use super::{NodeMachine, Output, Phase};
use crate::event::EventKind;
use crate::level::Level;
use crate::messages::Message;

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, TraceEventKind};

/// Sliding-window receive-bandwidth meter (six rotating buckets).
#[derive(Clone, Debug)]
pub(super) struct BandwidthMeter {
    bucket_us: u64,
    buckets: [u64; 6],
    current: usize,
    current_start_us: u64,
}

impl BandwidthMeter {
    pub(super) fn new(window_us: u64) -> Self {
        BandwidthMeter {
            bucket_us: (window_us / 6).max(1),
            buckets: [0; 6],
            current: 0,
            current_start_us: 0,
        }
    }

    fn rotate_to(&mut self, now_us: u64) {
        while now_us >= self.current_start_us + self.bucket_us {
            self.current = (self.current + 1) % 6;
            self.buckets[self.current] = 0;
            self.current_start_us += self.bucket_us;
        }
    }

    pub(super) fn note(&mut self, now_us: u64, bits: u64) {
        self.rotate_to(now_us);
        self.buckets[self.current] += bits;
    }

    /// Average bps over the window ending at `now_us`.
    pub(super) fn bps(&mut self, now_us: u64) -> f64 {
        self.rotate_to(now_us);
        let total: u64 = self.buckets.iter().sum();
        total as f64 / (6.0 * self.bucket_us as f64 / 1e6)
    }
}

impl NodeMachine {
    pub(super) fn adapt_level(&mut self, now_us: u64, outs: &mut Vec<Output>) {
        // Cooldown: measure a full fresh window at the new level before
        // deciding again, or every shift begets another.
        if now_us.saturating_sub(self.last_shift_us) < self.cfg.bandwidth_window_us {
            return;
        }
        let cost = self.meter.bps(now_us);
        // Debounce: one noisy window must not trigger a (system-wide
        // multicast) shift; require two consecutive windows agreeing.
        if cost > self.threshold_bps && self.level != Level::MAX {
            self.adapt_pressure = self.adapt_pressure.max(0) + 1;
        } else if cost < self.threshold_bps * self.cfg.grow_fraction && !self.level.is_top() {
            self.adapt_pressure = self.adapt_pressure.min(0) - 1;
        } else {
            self.adapt_pressure = 0;
        }
        if self.adapt_pressure >= 2 && self.level != Level::MAX {
            self.adapt_pressure = 0;
            // Over budget: shrink the peer list.
            self.last_shift_us = now_us;
            let old = self.level;
            self.level = self.level.lowered();
            self.announce_lowered(now_us, old, outs);
        } else if self.adapt_pressure <= -4 && !self.level.is_top() {
            self.adapt_pressure = 0;
            // Under budget: try to grow, if our part allows it.
            let part_top_level = self
                .tops
                .entries()
                .iter()
                .map(|t| t.level)
                .min()
                .unwrap_or(Level::TOP);
            if self.level.value() <= part_top_level.value() {
                return; // already as strong as our part's tops
            }
            if self.rpc_in_flight(|k| matches!(k, RpcKind::RaiseDownload { .. })) {
                return; // raise already in flight
            }
            let new_level = self.level.raised();
            let scope = new_level.eigenstring(self.me);
            let Some(top) = self.tops.choose(&[], |n| self.rand_below(n)) else {
                return;
            };
            let kind = RpcKind::RaiseDownload { new_level };
            self.send_rpc(outs, top, Message::Download { scope }, kind, 0);
        }
    }

    /// `Command::SetLevel`: pin the node to `target` (§4.3 runtime
    /// shifting, driven directly rather than through `adapt_level`).
    pub(super) fn set_level(&mut self, now_us: u64, target: Level, outs: &mut Vec<Output>) {
        if self.phase != Phase::Active || target == self.level {
            return;
        }
        self.last_shift_us = now_us;
        if target.value() > self.level.value() {
            // Weaker: shrink in place and announce.
            let old = self.level;
            self.level = target;
            self.announce_lowered(now_us, old, outs);
        } else {
            // Stronger: download the wider list first (§4.3).
            let scope = target.eigenstring(self.me);
            if let Some(top) = self.tops.choose(&[], |n| self.rand_below(n)) {
                let kind = RpcKind::RaiseDownload { new_level: target };
                self.send_rpc(outs, top, Message::Download { scope }, kind, 0);
            }
        }
    }

    /// Announces a downward level shift (`old` → the already-updated
    /// `self.level`), then narrows the peer-list scope.
    ///
    /// Ordering is load-bearing. A node that *was* top is the only
    /// guaranteed root for its own shift event — its top list can be just
    /// itself (a seed), and every other entry may belong to a foreign
    /// part — so it must multicast from the old step over the still-wide
    /// peer list *before* dropping the out-of-scope entries. Found by the
    /// invariants sweep: trace `[Join, Shift(seed, 1)]` left the joiner
    /// permanently recording the seed at level 0.
    fn announce_lowered(&mut self, now_us: u64, old: Level, outs: &mut Vec<Output>) {
        outs.push(Output::LevelShifted {
            from: old,
            to: self.level,
        });
        self.seq += 1;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::new(self.me.0, self.seq),
            TraceEventKind::LevelShift {
                from: old.0,
                to: self.level.0,
            },
        );
        let event = self.self_event(now_us, EventKind::LevelShift { from: old });
        if old.is_top() && self.phase == Phase::Active {
            if self.apply_event(now_us, &event) {
                self.forward_event(&event, old.value(), outs);
            }
            self.peers.set_scope(self.eigenstring());
        } else {
            self.peers.set_scope(self.eigenstring());
            self.report_event(now_us, event, outs);
        }
    }
}
