//! Log-bucketed histograms.

use serde::Serialize;

/// A histogram over logarithmically spaced value buckets, for
/// latency/size distributions.
///
/// Out-of-range mass is explicit: samples below `min` land in the
/// underflow counter, samples at or beyond bucket [`Self::MAX_BUCKETS`]
/// (or non-finite samples) in the overflow counter, so `total()` always
/// equals the number of `add` calls and `counts` stays bounded.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LogHistogram {
    base: f64,
    min: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// Hard cap on in-range buckets. With `min = 1, base = 2` this
    /// covers values up to 2^96 — anything beyond is overflow, not an
    /// unbounded `Vec` resize.
    pub const MAX_BUCKETS: usize = 96;

    /// Buckets: `[min·base^k, min·base^(k+1))`.
    pub fn new(min: f64, base: f64) -> Self {
        assert!(min > 0.0 && base > 1.0);
        LogHistogram {
            base,
            min,
            counts: Vec::new(),
            underflow: 0,
            overflow: 0,
        }
    }

    /// Rebuilds a histogram from exported parts (the JSONL parser's
    /// constructor). Panics on invalid geometry or an over-long bucket
    /// vector, mirroring `new`'s contract.
    pub fn from_parts(
        min: f64,
        base: f64,
        counts: Vec<u64>,
        underflow: u64,
        overflow: u64,
    ) -> Self {
        assert!(min > 0.0 && base > 1.0);
        assert!(counts.len() <= Self::MAX_BUCKETS);
        LogHistogram {
            base,
            min,
            counts,
            underflow,
            overflow,
        }
    }

    /// Adds a sample. NaN and `+inf` count as overflow (they fit no
    /// bucket); negatives and anything below `min` as underflow.
    pub fn add(&mut self, x: f64) {
        if x < self.min {
            self.underflow += 1;
            return;
        }
        if !x.is_finite() {
            // NaN fails the `< min` test above but floors to bucket 0
            // through the cast; +inf would demand a usize::MAX resize.
            self.overflow += 1;
            return;
        }
        let k = ((x / self.min).ln() / self.base.ln()).floor() as usize;
        if k >= Self::MAX_BUCKETS {
            self.overflow += 1;
            return;
        }
        if self.counts.len() <= k {
            self.counts.resize(k + 1, 0);
        }
        self.counts[k] += 1;
    }

    /// Total samples (including underflow and overflow).
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// Lower edge of the first bucket.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Geometric bucket growth factor.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Samples below `min`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples beyond the last representable bucket (or non-finite).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// In-range bucket counts (bucket `k` covers
    /// `[min·base^k, min·base^(k+1))`).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Folds another histogram with identical geometry into this one.
    ///
    /// Merging is element-wise `u64` addition, so any merge order (and
    /// any grouping) produces the identical histogram — per-shard slots
    /// can aggregate into a global report in whatever order threads
    /// finish. A proptest pins this. Panics if geometries differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.min == other.min && self.base == other.base,
            "merge requires identical bucket geometry ({}/{} vs {}/{})",
            self.min,
            self.base,
            other.min,
            other.base
        );
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Approximate quantile via bucket interpolation (`q` in `[0,1]`).
    ///
    /// The target rank is floored at 1 sample so `q = 0` reports where
    /// the smallest sample actually lies instead of unconditionally
    /// claiming the underflow region. A target inside the underflow
    /// region reports `min` (the tightest known upper bound); inside
    /// the overflow region, the cap edge `min·base^MAX_BUCKETS` (the
    /// tightest known lower bound).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = self.underflow;
        if acc >= target {
            return self.min;
        }
        for (k, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Geometric midpoint of the bucket.
                return self.min * self.base.powf(k as f64 + 0.5);
            }
        }
        if self.overflow > 0 {
            return self.min * self.base.powi(Self::MAX_BUCKETS as i32);
        }
        self.min * self.base.powi(self.counts.len() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_quantiles() {
        let mut h = LogHistogram::new(1.0, 2.0);
        for i in 1..=1000u32 {
            h.add(i as f64);
        }
        assert_eq!(h.total(), 1000);
        let med = h.quantile(0.5);
        assert!(med > 250.0 && med < 1000.0, "median {med}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= med);
    }

    #[test]
    fn log_histogram_underflow() {
        let mut h = LogHistogram::new(10.0, 10.0);
        h.add(1.0);
        h.add(100.0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.quantile(0.25), 10.0); // underflow clamps to min
    }

    #[test]
    fn log_histogram_non_finite_and_huge_samples_are_overflow() {
        let mut h = LogHistogram::new(1.0, 2.0);
        h.add(f64::NAN);
        h.add(f64::INFINITY);
        h.add(1e300); // beyond bucket MAX_BUCKETS at base 2
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.total(), 3);
        assert!(
            h.bucket_counts().is_empty(),
            "nothing misfiled into bucket 0"
        );
        h.add(-1.0); // negatives are underflow, not panics
        assert_eq!(h.underflow(), 1);
    }

    #[test]
    fn log_histogram_quantile_edges() {
        // q=0 with an empty underflow region must not claim `min`.
        let mut h = LogHistogram::new(1.0, 2.0);
        h.add(100.0); // bucket 6
        let q0 = h.quantile(0.0);
        assert!(
            q0 > 1.0,
            "q=0 reports the smallest sample's bucket, got {q0}"
        );
        // A target inside the overflow region reports the cap edge.
        h.add(f64::INFINITY);
        let q1 = h.quantile(1.0);
        assert_eq!(q1, 1.0 * 2.0f64.powi(LogHistogram::MAX_BUCKETS as i32));
    }

    #[test]
    fn log_histogram_merge_matches_direct_accumulation() {
        let mut direct = LogHistogram::new(1.0, 2.0);
        let mut a = LogHistogram::new(1.0, 2.0);
        let mut b = LogHistogram::new(1.0, 2.0);
        for i in 1..=100u32 {
            let x = (i * i) as f64 / 3.0;
            direct.add(x);
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        let mut merged = LogHistogram::new(1.0, 2.0);
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, direct);
    }

    #[test]
    #[should_panic(expected = "identical bucket geometry")]
    fn log_histogram_merge_rejects_mismatched_geometry() {
        let mut a = LogHistogram::new(1.0, 2.0);
        a.merge(&LogHistogram::new(10.0, 2.0));
    }

    #[test]
    fn log_histogram_from_parts_round_trips_accessors() {
        let h = LogHistogram::from_parts(1.0, 2.0, vec![3, 0, 7], 2, 1);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.base(), 2.0);
        assert_eq!(h.bucket_counts(), &[3, 0, 7]);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 13);
    }

    mod merge_order {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Satellite contract: per-shard → global aggregation must
            // not depend on which shard's histogram merges first. Every
            // partition of the samples, merged in every order, reports
            // the exact same value at every quantile.
            #[test]
            fn merge_order_never_changes_any_quantile(
                raw in proptest::collection::vec(1u64..1_000_000_000_000, 1..200),
                assignment in proptest::collection::vec(0usize..4, 1..200),
                order in Just([3usize, 0, 2, 1]),
            ) {
                let mut direct = LogHistogram::new(1.0, 2.0);
                let mut parts: Vec<LogHistogram> =
                    (0..4).map(|_| LogHistogram::new(1.0, 2.0)).collect();
                for (i, &r) in raw.iter().enumerate() {
                    let x = r as f64 / 97.0; // cover underflow (< 1.0) and wide range
                    direct.add(x);
                    parts[assignment[i % assignment.len()]].add(x);
                }
                let mut fwd = LogHistogram::new(1.0, 2.0);
                for p in &parts {
                    fwd.merge(p);
                }
                let mut shuffled = LogHistogram::new(1.0, 2.0);
                for &i in &order {
                    shuffled.merge(&parts[i]);
                }
                prop_assert_eq!(&fwd, &direct);
                for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    prop_assert_eq!(fwd.quantile(q), shuffled.quantile(q));
                    prop_assert_eq!(fwd.quantile(q), direct.quantile(q));
                }
            }
        }
    }
}
