//! Node lifetime (session duration) distributions.
//!
//! §5.1 requires lifetimes matching the Gnutella measurements of Saroiu et
//! al. (\[13\], figure 6), whose raw traces are not available. The paper
//! consumes two anchors: the average lifetime ≈ 135 minutes, and a heavy
//! right tail (median well below the mean). A lognormal with median 60 min
//! and mean 135 min reproduces both; `Lifetime_Rate` (§5.3) scales
//! every sample linearly.

use rand::Rng;

/// Seconds in a minute (readability).
const MIN: f64 = 60.0;

/// A lifetime distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LifetimeDist {
    /// Lognormal calibrated to the Gnutella measurement (\[13\] fig 6):
    /// median 60 min, mean 135 min.
    Gnutella,
    /// Exponential with the given mean (seconds) — used by ablations.
    Exponential {
        /// Mean lifetime in seconds.
        mean_s: f64,
    },
    /// Deterministic lifetime (tests).
    Fixed {
        /// The constant lifetime in seconds.
        secs: f64,
    },
}

impl LifetimeDist {
    /// Lognormal parameters for [`LifetimeDist::Gnutella`]:
    /// `median = e^mu`, `mean = e^(mu + sigma²/2)`.
    fn gnutella_params() -> (f64, f64) {
        let median = 60.0 * MIN;
        let mean = 135.0 * MIN;
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        (mu, sigma)
    }

    /// Mean of the distribution in seconds (before rate scaling).
    pub fn mean_s(&self) -> f64 {
        match self {
            LifetimeDist::Gnutella => 135.0 * MIN,
            LifetimeDist::Exponential { mean_s } => *mean_s,
            LifetimeDist::Fixed { secs } => *secs,
        }
    }

    /// Draws one lifetime in seconds, scaled by `rate` (§5.3's
    /// `Lifetime_Rate`; 1.0 is the common case).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, rate: f64) -> f64 {
        let base = match self {
            LifetimeDist::Gnutella => {
                let (mu, sigma) = Self::gnutella_params();
                let z: f64 = sample_standard_normal(rng);
                (mu + sigma * z).exp()
            }
            LifetimeDist::Exponential { mean_s } => {
                let u: f64 = loop {
                    let u = rng.gen::<f64>();
                    if u > 0.0 {
                        break u;
                    }
                };
                -mean_s * u.ln()
            }
            LifetimeDist::Fixed { secs } => *secs,
        };
        // Floor at 10 s: measurement studies cannot observe sub-probe
        // sessions, and zero-length lifetimes break event ordering.
        (base * rate).max(10.0 * rate.min(1.0))
    }
}

fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller.
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnutella_mean_is_135_minutes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 400_000;
        let sum: f64 = (0..n)
            .map(|_| LifetimeDist::Gnutella.sample(&mut rng, 1.0))
            .sum();
        let mean = sum / n as f64 / MIN;
        assert!((mean - 135.0).abs() < 5.0, "mean {mean} min");
    }

    #[test]
    fn gnutella_median_is_60_minutes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| LifetimeDist::Gnutella.sample(&mut rng, 1.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2] / MIN;
        assert!((median - 60.0).abs() < 3.0, "median {median} min");
    }

    #[test]
    fn lifetime_rate_scales_linearly() {
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let x = LifetimeDist::Gnutella.sample(&mut a, 1.0);
            let y = LifetimeDist::Gnutella.sample(&mut b, 0.1);
            assert!((y - x * 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn exponential_and_fixed() {
        let mut rng = SmallRng::seed_from_u64(4);
        let d = LifetimeDist::Exponential { mean_s: 100.0 };
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 3.0, "mean {mean}");
        assert_eq!(
            LifetimeDist::Fixed { secs: 42.0 }.sample(&mut rng, 2.0),
            84.0
        );
    }

    #[test]
    fn samples_are_floored() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(LifetimeDist::Gnutella.sample(&mut rng, 1.0) >= 10.0);
        }
    }
}
