//! Node bandwidth distributions.
//!
//! §5.1 draws node bandwidths from the Gnutella measurements (\[13\],
//! figure 3). Two anchors from the paper's own reading of that figure
//! drive everything downstream: *"only 20 % of nodes' available bandwidth
//! is less than 1 Mbps"*, and enough mass above ≈3.7 Mbps that more than
//! half the nodes can afford level 0 in the common 100k-node system
//! (figure 5). The piecewise log-uniform mixture below hits both anchors;
//! its buckets correspond to the access technologies of 2002 (modem,
//! DSL/cable, T1, T3/campus).

use rand::Rng;

/// A bandwidth bucket: log-uniform between `lo` and `hi` bps with
/// probability `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bucket {
    /// Lower edge, bps.
    pub lo: f64,
    /// Upper edge, bps.
    pub hi: f64,
    /// Probability mass.
    pub p: f64,
}

/// A piecewise log-uniform bandwidth distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct BandwidthDist {
    buckets: Vec<Bucket>,
}

impl BandwidthDist {
    /// The Gnutella-calibrated default (see module docs):
    ///
    /// | range | mass | technology |
    /// |---|---|---|
    /// | 28.8–128 kbps | 8 % | modem / ISDN |
    /// | 128 kbps–1 Mbps | 12 % | low DSL |
    /// | 1–3.5 Mbps | 25 % | DSL / cable |
    /// | 3.5–10 Mbps | 35 % | high cable / T1+ |
    /// | 10–100 Mbps | 20 % | campus / T3 |
    pub fn gnutella() -> Self {
        BandwidthDist {
            buckets: vec![
                Bucket {
                    lo: 28_800.0,
                    hi: 128_000.0,
                    p: 0.08,
                },
                Bucket {
                    lo: 128_000.0,
                    hi: 1_000_000.0,
                    p: 0.12,
                },
                Bucket {
                    lo: 1_000_000.0,
                    hi: 3_500_000.0,
                    p: 0.25,
                },
                Bucket {
                    lo: 3_500_000.0,
                    hi: 10_000_000.0,
                    p: 0.35,
                },
                Bucket {
                    lo: 10_000_000.0,
                    hi: 100_000_000.0,
                    p: 0.20,
                },
            ],
        }
    }

    /// A degenerate single-bucket distribution (tests, homogeneous
    /// baselines).
    pub fn constant(bps: f64) -> Self {
        BandwidthDist {
            buckets: vec![Bucket {
                lo: bps,
                hi: bps,
                p: 1.0,
            }],
        }
    }

    /// Builds from explicit buckets.
    ///
    /// # Panics
    /// Panics if the masses do not sum to ≈1 or any bucket is malformed.
    pub fn from_buckets(buckets: Vec<Bucket>) -> Self {
        let total: f64 = buckets.iter().map(|b| b.p).sum();
        assert!((total - 1.0).abs() < 1e-9, "bucket masses sum to {total}");
        for b in &buckets {
            assert!(b.lo > 0.0 && b.hi >= b.lo && b.p >= 0.0, "bad bucket {b:?}");
        }
        BandwidthDist { buckets }
    }

    /// The buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Draws one node bandwidth in bps.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut u: f64 = rng.gen();
        for b in &self.buckets {
            if u < b.p || std::ptr::eq(b, self.buckets.last().unwrap()) {
                if b.hi <= b.lo {
                    return b.lo;
                }
                let v: f64 = rng.gen();
                return (b.lo.ln() + v * (b.hi.ln() - b.lo.ln())).exp();
            }
            u -= b.p;
        }
        unreachable!("masses sum to 1");
    }

    /// Exact CDF at `bps` (for calibration checks and analytic level
    /// predictions).
    pub fn cdf(&self, bps: f64) -> f64 {
        let mut acc = 0.0;
        for b in &self.buckets {
            if bps >= b.hi {
                acc += b.p;
            } else if bps > b.lo {
                let frac = (bps.ln() - b.lo.ln()) / (b.hi.ln() - b.lo.ln());
                acc += b.p * frac;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_anchor_20_percent_below_1mbps() {
        let d = BandwidthDist::gnutella();
        let c = d.cdf(1_000_000.0);
        assert!((c - 0.20).abs() < 1e-9, "P(<1Mbps) = {c}");
    }

    #[test]
    fn paper_anchor_majority_can_afford_level_0() {
        // Level 0 in the common 100k system needs ≈3.7 Mbps total
        // bandwidth (1 % threshold ≥ 37 kbps maintenance cost).
        let d = BandwidthDist::gnutella();
        let frac_above = 1.0 - d.cdf(3_700_000.0);
        assert!(frac_above > 0.5, "P(≥3.7Mbps) = {frac_above}");
        assert!(frac_above < 0.62, "P(≥3.7Mbps) = {frac_above}");
    }

    #[test]
    fn samples_match_cdf() {
        let d = BandwidthDist::gnutella();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        for probe in [100_000.0, 1_000_000.0, 3_500_000.0, 10_000_000.0] {
            let below = (0..n).filter(|_| d.sample(&mut rng) < probe).count() as f64 / n as f64;
            let expect = d.cdf(probe);
            assert!(
                (below - expect).abs() < 0.01,
                "cdf({probe}) sampled {below} vs exact {expect}"
            );
        }
    }

    #[test]
    fn samples_stay_in_support() {
        let d = BandwidthDist::gnutella();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!((28_800.0..=100_000_000.0).contains(&x), "sample {x}");
        }
    }

    #[test]
    fn constant_distribution() {
        let d = BandwidthDist::constant(56_000.0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(d.sample(&mut rng), 56_000.0);
        assert_eq!(d.cdf(56_000.0), 1.0);
        assert_eq!(d.cdf(55_999.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "bucket masses")]
    fn from_buckets_validates_mass() {
        BandwidthDist::from_buckets(vec![Bucket {
            lo: 1.0,
            hi: 2.0,
            p: 0.5,
        }]);
    }
}
