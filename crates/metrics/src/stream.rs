//! Streaming statistics.

use serde::Serialize;

/// Count / mean / min / max over a stream of samples, in O(1) memory
/// (Welford's running mean).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct StreamingStat {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl StreamingStat {
    /// Empty accumulator.
    pub fn new() -> Self {
        StreamingStat {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = StreamingStat::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stat_is_sane() {
        let s = StreamingStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }
}
