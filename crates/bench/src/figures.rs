//! One function per §5 figure.
//!
//! Every function takes a [`Scale`] so the same code serves the
//! `experiments` binary at full scale and under `--quick`, and returns
//! both a [`Table`] (written to `results/<id>.csv`) and the raw
//! report(s) for assertions.

use peerwindow_metrics::{fmt_f64, Table};
use peerwindow_sim::oracle::{run_oracle, OracleConfig};
use peerwindow_sim::report::OracleReport;

/// Run scale: full reproduces the paper's parameters; quick shrinks the
/// population and windows for `experiments --quick` and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale populations (figures 5–8: 100,000 nodes).
    Full,
    /// Populations ÷ 20 or smaller and shorter windows; same shapes.
    Quick,
}

impl Scale {
    /// Common-system population for this scale.
    pub fn common_n(self) -> usize {
        match self {
            Scale::Full => 100_000,
            Scale::Quick => 5_000,
        }
    }

    /// Populations for the figure-9/10 scalability sweep.
    pub fn sweep_ns(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![5_000, 10_000, 20_000, 50_000, 100_000],
            Scale::Quick => vec![1_000, 2_000, 5_000],
        }
    }

    /// Population for the figure-11/12 lifetime sweep (kept below the
    /// common scale: the `Lifetime_Rate = 0.1` point multiplies the event
    /// rate by 10).
    pub fn lifetime_sweep_n(self) -> usize {
        match self {
            Scale::Full => 30_000,
            Scale::Quick => 2_000,
        }
    }

    fn windows(self) -> (f64, f64) {
        match self {
            // Warm-up spans three adaptation windows so the level
            // distribution settles before measurement starts.
            Scale::Full => (300.0, 150.0),
            Scale::Quick => (30.0, 60.0),
        }
    }

    /// A configured common run at population `n`.
    pub fn config(self, n: usize, seed: u64) -> OracleConfig {
        let (warmup_s, measure_s) = self.windows();
        let base = match self {
            // Full scale uses the real transit-stub network everywhere
            // (as the paper does); Quick swaps in the uniform-latency
            // model for speed.
            Scale::Full => OracleConfig::paper_common(n, seed),
            Scale::Quick => OracleConfig::paper_common_uniform(n, seed),
        };
        OracleConfig {
            warmup_s,
            measure_s,
            ..base
        }
    }
}

/// Figures 5–8 all come from the one "common PeerWindow" run (§5.1); this
/// wrapper runs it once and lets the callers slice it.
pub fn common_run(scale: Scale, seed: u64) -> OracleReport {
    run_oracle(scale.config(scale.common_n(), seed))
}

/// Figure 5: node distribution by level in the common system.
pub fn fig5(report: &OracleReport) -> Table {
    let mut t = Table::new(["level", "nodes", "fraction"]);
    for r in &report.rows {
        t.row([
            r.level.to_string(),
            fmt_f64(r.nodes),
            fmt_f64(r.node_fraction),
        ]);
    }
    t
}

/// Figure 6: peer-list size (min/mean/max) per level.
pub fn fig6(report: &OracleReport) -> Table {
    let mut t = Table::new(["level", "list_min", "list_mean", "list_max"]);
    for r in &report.rows {
        t.row([
            r.level.to_string(),
            fmt_f64(r.list_min),
            fmt_f64(r.list_mean),
            fmt_f64(r.list_max),
        ]);
    }
    t
}

/// Figure 7: peer-list error rate per level.
pub fn fig7(report: &OracleReport) -> Table {
    let mut t = Table::new(["level", "error_rate"]);
    for r in &report.rows {
        t.row([r.level.to_string(), format!("{:.6}", r.error_rate)]);
    }
    t
}

/// Figure 8: input and output bandwidth per level.
pub fn fig8(report: &OracleReport) -> Table {
    let mut t = Table::new(["level", "in_bps", "out_bps"]);
    for r in &report.rows {
        t.row([r.level.to_string(), fmt_f64(r.in_bps), fmt_f64(r.out_bps)]);
    }
    t
}

/// Figures 9 + 10: sweep the system scale; returns the per-scale reports.
pub fn scale_sweep(scale: Scale, seed: u64) -> Vec<(usize, OracleReport)> {
    scale
        .sweep_ns()
        .into_iter()
        .map(|n| (n, run_oracle(scale.config(n, seed))))
        .collect()
}

/// Figure 9: node distribution at each level vs system scale.
pub fn fig9(sweep: &[(usize, OracleReport)]) -> Table {
    let max_level = sweep
        .iter()
        .flat_map(|(_, r)| r.rows.iter().map(|x| x.level))
        .max()
        .unwrap_or(0);
    let mut header = vec!["n".to_string()];
    header.extend((0..=max_level).map(|l| format!("frac_L{l}")));
    let mut t = Table::new(header);
    for (n, rep) in sweep {
        let mut row = vec![n.to_string()];
        for l in 0..=max_level {
            row.push(fmt_f64(
                rep.level(l).map(|r| r.node_fraction).unwrap_or(0.0),
            ));
        }
        t.row(row);
    }
    t
}

/// Figure 10: average peer-list error rate vs system scale.
pub fn fig10(sweep: &[(usize, OracleReport)]) -> Table {
    let mut t = Table::new(["n", "avg_error_rate", "mean_depth", "mean_delay_s"]);
    for (n, rep) in sweep {
        t.row([
            n.to_string(),
            format!("{:.6}", rep.avg_error_rate),
            fmt_f64(rep.mean_tree_depth),
            fmt_f64(rep.mean_multicast_delay_s),
        ]);
    }
    t
}

/// The `Lifetime_Rate` values of §5.3.
pub fn lifetime_rates(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => vec![0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0],
        Scale::Quick => vec![0.2, 1.0, 5.0],
    }
}

/// Figures 11 + 12: sweep `Lifetime_Rate`; returns per-rate reports.
pub fn lifetime_sweep(scale: Scale, seed: u64) -> Vec<(f64, OracleReport)> {
    let n = scale.lifetime_sweep_n();
    lifetime_rates(scale)
        .into_iter()
        .map(|rate| {
            let mut cfg = scale.config(n, seed);
            cfg.churn.lifetime_rate = rate;
            // High churn shortens the useful probe period; the §4.6
            // refresh logic would also tighten. Keep protocol constants
            // fixed (the paper does) — only the workload changes.
            (rate, run_oracle(cfg))
        })
        .collect()
}

/// Figure 11: node distribution vs `Lifetime_Rate`.
pub fn fig11(sweep: &[(f64, OracleReport)]) -> Table {
    let max_level = sweep
        .iter()
        .flat_map(|(_, r)| r.rows.iter().map(|x| x.level))
        .max()
        .unwrap_or(0);
    let mut header = vec!["lifetime_rate".to_string()];
    header.extend((0..=max_level).map(|l| format!("frac_L{l}")));
    let mut t = Table::new(header);
    for (rate, rep) in sweep {
        let mut row = vec![fmt_f64(*rate)];
        for l in 0..=max_level {
            row.push(fmt_f64(
                rep.level(l).map(|r| r.node_fraction).unwrap_or(0.0),
            ));
        }
        t.row(row);
    }
    t
}

/// Figure 12: average error rate vs `Lifetime_Rate` (log-y in the paper).
pub fn fig12(sweep: &[(f64, OracleReport)]) -> Table {
    let mut t = Table::new(["lifetime_rate", "avg_error_rate"]);
    for (rate, rep) in sweep {
        t.row([fmt_f64(*rate), format!("{:.6}", rep.avg_error_rate)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_common_run_matches_paper_shapes() {
        let rep = common_run(Scale::Quick, 11);
        // Figure 5 shape: a majority of nodes at level 0 under the §5.1
        // threshold policy (the paper found >50 % and was surprised too).
        let l0 = rep.level(0).expect("level 0 populated");
        assert!(l0.node_fraction > 0.4, "L0 fraction {}", l0.node_fraction);
        // Figure 6 shape: sizes halve per level; min ≈ max within a level.
        for w in rep.rows.windows(2) {
            if w[1].level == w[0].level + 1 && w[1].nodes > 20.0 {
                let ratio = w[0].list_mean / w[1].list_mean.max(1.0);
                assert!((1.5..=2.6).contains(&ratio), "ratio {ratio}");
                assert!(w[1].list_max - w[1].list_min < 0.35 * w[1].list_mean.max(8.0));
            }
        }
        // Figure 7 shape: small error everywhere; stronger levels no worse
        // than weaker ones (message flow is higher→lower).
        for r in &rep.rows {
            assert!(r.error_rate < 0.05, "error {}", r.error_rate);
        }
        if let (Some(a), Some(b)) = (rep.level(0), rep.rows.last()) {
            assert!(a.error_rate <= b.error_rate * 1.5);
        }
        // Figure 8 shape: input proportional to list size; output exceeds
        // input only near the top.
        let top_ratio = l0.out_bps / l0.in_bps;
        assert!(top_ratio > 0.8, "top out/in {top_ratio}");
        if let Some(weak) = rep.rows.iter().rev().find(|r| r.nodes > 20.0) {
            if weak.level >= 2 {
                assert!(
                    weak.out_bps < weak.in_bps,
                    "weak node sends more than it receives"
                );
            }
        }
    }

    #[test]
    fn quick_sweeps_have_paper_trends() {
        let sweep = scale_sweep(Scale::Quick, 13);
        // Figure 9: larger systems push nodes to lower levels.
        let first = &sweep.first().unwrap().1;
        let last = &sweep.last().unwrap().1;
        let f_small = first.level(0).map(|r| r.node_fraction).unwrap_or(0.0);
        let f_large = last.level(0).map(|r| r.node_fraction).unwrap_or(0.0);
        assert!(f_large <= f_small + 0.02, "L0 {f_small} → {f_large}");
        // Figure 10: error rises (slightly) with scale.
        assert!(last.avg_error_rate >= 0.5 * first.avg_error_rate);
        // Tables render.
        assert_eq!(fig9(&sweep).len(), sweep.len());
        assert_eq!(fig10(&sweep).len(), sweep.len());
    }

    #[test]
    fn quick_lifetime_sweep_is_inverse_proportional() {
        let sweep = lifetime_sweep(Scale::Quick, 17);
        let err: Vec<f64> = sweep.iter().map(|(_, r)| r.avg_error_rate).collect();
        // Figure 12: error ≈ delay / lifetime ⇒ rate 0.2 ≫ rate 5.
        assert!(
            err[0] > 5.0 * err[err.len() - 1],
            "errors {err:?} not inverse in lifetime"
        );
        // Figure 11: short lifetimes push nodes off level 0.
        let f0_fast = sweep[0].1.level(0).map(|r| r.node_fraction).unwrap_or(0.0);
        let f0_slow = sweep
            .last()
            .unwrap()
            .1
            .level(0)
            .map(|r| r.node_fraction)
            .unwrap_or(0.0);
        assert!(f0_fast < f0_slow, "L0: fast {f0_fast} vs slow {f0_slow}");
        assert_eq!(fig11(&sweep).len(), sweep.len());
        assert_eq!(fig12(&sweep).len(), sweep.len());
    }
}
