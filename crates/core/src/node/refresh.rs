//! The §4.6 refresh mechanism: observed per-level lifetimes `LT_l`, the
//! periodic self-refresh they pace, and the expiry of pointers nobody
//! refreshed.

use super::{NodeMachine, Output};
use crate::event::EventKind;
use crate::level::Level;

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, TraceEventKind};

/// An l-level node re-multicasts its state every `2 · LT_l` (§4.6).
const REFRESH_MULTIPLIER: u64 = 2;
/// An m-level pointer unrefreshed for `3 · LT_m` is dropped (§4.6).
const EXPIRE_MULTIPLIER: u64 = 3;

/// Per-level observed lifetime accumulators (for `LT_l`, §4.6).
#[derive(Clone, Debug, Default)]
pub(super) struct LifetimeStats {
    count: Vec<u64>,
    sum_us: Vec<u64>,
}

impl LifetimeStats {
    pub(super) fn record(&mut self, level: Level, lifetime_us: u64) {
        let l = level.value() as usize;
        if self.count.len() <= l {
            self.count.resize(l + 1, 0);
            self.sum_us.resize(l + 1, 0);
        }
        self.count[l] += 1;
        self.sum_us[l] += lifetime_us;
    }

    /// Mean observed lifetime at `level`; falls back to the overall mean
    /// across levels when this level has no samples yet (a fresh node has
    /// observed few departures, but any timescale beats none for the
    /// §4.6 machinery).
    pub(super) fn mean_us(&self, level: Level) -> Option<u64> {
        let l = level.value() as usize;
        match self.count.get(l) {
            Some(&c) if c > 0 => Some(self.sum_us[l] / c),
            _ => self.overall_mean_us(),
        }
    }

    /// `mean_us` of every level that has a slot, in level order, and of
    /// every level past them (the overall mean), which is summed once
    /// here rather than once per level without samples.
    pub(super) fn means_us(&self) -> (Vec<Option<u64>>, Option<u64>) {
        let overall = self.overall_mean_us();
        let per_level = (self.count.iter().zip(&self.sum_us))
            .map(|(&c, &sum)| sum.checked_div(c).or(overall))
            .collect();
        (per_level, overall)
    }

    /// Mean observed lifetime over all levels.
    fn overall_mean_us(&self) -> Option<u64> {
        let c: u64 = self.count.iter().sum();
        self.sum_us.iter().sum::<u64>().checked_div(c)
    }
}

impl NodeMachine {
    /// The refresh timer ticks at the adaptation cadence and sends the
    /// §4.6 refresh only when 2·LT_level has elapsed since our last
    /// announcement, so the period tracks the measured lifetimes as they
    /// evolve.
    pub(super) fn refresh_if_due(&mut self, now_us: u64, outs: &mut Vec<Output>) {
        if now_us.saturating_sub(self.last_self_refresh_us) >= self.refresh_period_us() {
            self.last_self_refresh_us = now_us;
            self.seq += 1;
            let event = self.self_event(now_us, EventKind::Refresh);
            self.report_event(now_us, event, outs);
        }
    }

    /// §4.6: refresh every `REFRESH_MULTIPLIER · LT_l` for our level; a
    /// generous default before any lifetime has been observed.
    fn refresh_period_us(&self) -> u64 {
        match self.lifetimes.mean_us(self.level) {
            Some(lt) => REFRESH_MULTIPLIER.saturating_mul(lt),
            None => self.cfg.default_refresh_us,
        }
        .max(self.cfg.bandwidth_window_us)
    }

    pub(super) fn expire_stale(&mut self, now_us: u64) {
        // Floor the horizon well above the tick/refresh quantisation so a
        // slightly late refresh can never evict a live neighbor.
        let floor_us = 3 * self.cfg.bandwidth_window_us;
        let deadline = |mean_us: Option<u64>| match mean_us {
            // entries older than EXPIRE_MULTIPLIER · LT_l die
            Some(lt) => now_us.saturating_sub(EXPIRE_MULTIPLIER.saturating_mul(lt).max(floor_us)),
            None => 0, // no estimate yet: never expire
        };
        // One deadline per level, priced before the walk, not per pointer.
        let (per_level, overall) = self.lifetimes.means_us();
        let deadlines: Vec<u64> = per_level.into_iter().map(deadline).collect();
        let past_slots = deadline(overall);
        let removed = self.peers.expire(|lvl| {
            deadlines
                .get(usize::from(lvl.value()))
                .copied()
                .unwrap_or(past_slots)
        });
        self.stats.expired += removed.len() as u64;
        #[cfg(feature = "trace")]
        if !removed.is_empty() {
            self.tr(
                CauseId::NONE,
                TraceEventKind::PeersExpired {
                    count: removed.len() as u32,
                },
            );
        }
    }
}
