//! The wall-clock layer: every `std::time::Instant` read in the
//! workspace's deterministic side lives in this file.
//!
//! The audit lint's `wall-clock` rule allows `Instant::now` only under
//! `crates/metrics/src/runtime` (plus the inherently wall-clock
//! transport/bench crates), so engine code cannot acquire a timestamp
//! except through [`Stopwatch`] — and that only *records* durations;
//! nothing here can feed time back into scheduling.

use std::time::Instant;

/// A lap timer: `mark` stamps an origin, `lap_ns` returns the elapsed
/// nanoseconds since the last stamp and restamps. Successive laps
/// partition wall-clock time exactly — no gap, no overlap — which is
/// what makes the engine's attribution fractions sum to 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// Stamps (or restamps) the lap origin.
    #[inline]
    pub fn mark(&mut self) {
        self.last = Some(Instant::now());
    }

    /// Nanoseconds since the last `mark`/`lap_ns`, restamping the
    /// origin. Returns 0 (and stamps) if never marked.
    #[inline]
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = match self.last {
            Some(t) => now.duration_since(t).as_nanos() as u64,
            None => 0,
        };
        self.last = Some(now);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_laps_are_monotone_and_restamp() {
        let mut w = Stopwatch::default();
        assert_eq!(w.lap_ns(), 0, "unmarked stopwatch attributes nothing");
        w.mark();
        std::hint::black_box((0..1000).sum::<u64>());
        let a = w.lap_ns();
        let b = w.lap_ns();
        // The second lap only covers the instant between the two calls.
        assert!(b <= a + 1_000_000, "lap origin must restamp ({a} vs {b})");
    }
}
