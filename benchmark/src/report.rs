//! Printing one run, collecting a ledger file over all workloads
//! (`pwbench all`), and comparing two ledger files (`pwbench diff`).

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::workloads::RunArgs;
use crate::{host, parse_flags, probes, stats, RunResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one run prints: sizes, digests, checks and metrics as
/// lines a person reads, a `detail` line a ledger file keeps, and last
/// the one JSON object of the benchmark contract.
pub fn render_run(name: &str, args: &RunArgs, r: &RunResult) -> String {
    let o = &r.outcome;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "pwbench {name} seed={} seconds={} trace={} quick={}",
        args.seed, args.seconds, args.trace as u8, args.quick
    );
    for (k, v) in &o.sizes {
        let _ = writeln!(s, "size   {k} = {v}");
    }
    for (k, v) in &o.digests {
        let _ = writeln!(s, "digest {k} = {v}");
    }
    for c in &o.checks {
        let _ = writeln!(
            s,
            "check  {} {} ({}; covers {} operations)",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail,
            c.covers
        );
    }
    for (name, unit, values) in &o.samples {
        let (q1, median, q3) = stats::quartiles(values);
        let _ = writeln!(
            s,
            "sample {name}: n={} min={:.6} q1={q1:.6} median={median:.6} q3={q3:.6} p90={:.6} max={:.6} {unit}",
            values.len(),
            stats::quantile(values, 0.0),
            stats::quantile(values, 0.9),
            stats::quantile(values, 1.0),
        );
    }
    for (metric, value, unit) in &r.metrics {
        let _ = writeln!(s, "metric {metric} = {} {unit}", json::number(*value));
    }
    let failed = o.failed();
    let _ = writeln!(
        s,
        "operations attempted {} failed {failed}",
        o.attempted.max(1)
    );

    let pairs = |items: Vec<(String, String)>| {
        let body: Vec<String> = items
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json::quote(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let sizes = pairs(
        o.sizes
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    );
    let digests = pairs(
        o.digests
            .iter()
            .map(|(k, v)| (k.to_string(), json::quote(v)))
            .collect(),
    );
    let failed_checks: Vec<String> = o
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| json::quote(c.name))
        .collect();
    let _ = writeln!(
        s,
        "detail {{\"sizes\": {sizes}, \"digests\": {digests}, \"failed_checks\": [{}]}}",
        failed_checks.join(", ")
    );

    let metrics = pairs(
        r.metrics
            .iter()
            .map(|(m, v, unit)| {
                (
                    m.to_string(),
                    format!(
                        "{{\"value\": {}, \"unit\": {}}}",
                        json::number(*v),
                        json::quote(unit)
                    ),
                )
            })
            .collect(),
    );
    let _ = writeln!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0,
        o.attempted.max(1)
    );
    s
}

/// Median and quartiles of one metric over the repeats of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = stats::quartiles(values);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Distance between the quartiles as a share of the median; 0 when a
    /// single run gives no spread to speak of.
    fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// `pwbench all`: every workload, each run in a process of its own (so
/// `peak_rss_mb` is per workload), `--repeats` times, into one file.
pub fn all_cmd(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let out_path = f.out.clone().ok_or("all needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let load_before = host::load_average();
    let mut body = Vec::new();
    for w in spec::WORKLOADS {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut detail = String::from("{}");
        for rep in 0..f.repeats {
            eprintln!("pwbench all: {} run {}/{}", w.name, rep + 1, f.repeats);
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &f.seed.to_string()])
                .args(["--seconds", &f.seconds.to_string()])
                .args(["--trace", if f.trace { "1" } else { "0" }]);
            if f.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child and collects its stdout.
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!("{} exited with {}", w.name, output.status));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let last = text.lines().last().ok_or("child printed nothing")?;
            let result = json::parse(last)?;
            // Sizes, digests and failed checks: kept as the child wrote them.
            if let Some(d) = text.lines().rev().find_map(|l| l.strip_prefix("detail ")) {
                detail = d.to_string();
            }
            attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::num).unwrap_or(0.0);
            for (name, m) in result.get("metrics").map_or(&[][..], Json::members) {
                let e = values.entry(name.clone()).or_default();
                e.0 = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
                e.1.push(m.get("value").and_then(Json::num).unwrap_or(0.0));
            }
        }
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, (unit, vals))| {
                let s = Summary::of(vals);
                let vals: Vec<String> = vals.iter().map(|v| json::number(*v)).collect();
                format!(
                    "      {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                    json::quote(name),
                    json::quote(unit),
                    json::number(s.median),
                    json::number(s.q1),
                    json::number(s.q3),
                    vals.join(", ")
                )
            })
            .collect();
        body.push(format!(
            "    {}: {{\n      \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed},\n      \"detail\": {detail},\n      \"metrics\": {{\n  {}\n      }}\n    }}",
            json::quote(w.name),
            failed == 0.0,
            metrics.join(",\n  ")
        ));
    }
    let workers = probes::workers();
    let nproc = host::nproc();
    let text = format!(
        "{{\n  \"schema\": \"pwbench-1\",\n  \"git_commit\": {},\n  \"seed\": {}, \"seconds\": {}, \"repeats\": {}, \"trace\": {}, \"quick\": {},\n  \"host\": {{\"nproc\": {nproc}, \"load_average_before\": {}, \"load_average_after\": {}, \"workers\": {workers}, \"oversubscribed\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::quote(&host::git_commit()),
        f.seed,
        json::number(f.seconds),
        f.repeats,
        f.trace,
        f.quick,
        json::number(load_before),
        json::number(host::load_average()),
        // Two workers need two cores of their own.
        workers > nproc || load_before >= nproc as f64,
        body.join(",\n")
    );
    json::parse(&text).map_err(|e| format!("internal: ledger file is not JSON: {e}"))?;
    std::fs::write(&out_path, text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("pwbench all: wrote {out_path}");
    Ok(())
}

/// What `diff` says about one end-to-end metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread between runs exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares side B with its base A under a metric's direction and bound.
pub fn verdict(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Higher => (a.median - b.median) / a.median.abs(),
        Better::Lower => (b.median - a.median) / a.median.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn summaries(file: &Json) -> BTreeMap<(String, String), Summary> {
    let mut out = BTreeMap::new();
    for (workload, w) in file.get("workloads").map_or(&[][..], Json::members) {
        for (metric, m) in w.get("metrics").map_or(&[][..], Json::members) {
            let num = |k: &str| m.get(k).and_then(Json::num).unwrap_or(0.0);
            out.insert(
                (workload.clone(), metric.clone()),
                Summary {
                    median: num("median"),
                    q1: num("q1"),
                    q3: num("q3"),
                    n: m.get("values").map_or(0, |v| v.elements().len()),
                },
            );
        }
    }
    out
}

/// The comparison table of two parsed ledger files, A the base.
pub fn diff_table(a: &Json, b: &Json) -> String {
    let (sa, sb) = (summaries(a), summaries(b));
    let mut s = format!(
        "{:<16} {:<44} {:>14} {:>14} {:>9}  verdict (B against base A)\n",
        "workload", "metric", "median A", "median B", "B/A"
    );
    for ((workload, metric), ma) in &sa {
        let Some(mb) = sb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let spec = spec::metric(metric);
        let word = match spec.and_then(|m| m.bound.map(|b| (m.better, b))) {
            Some((better, bound)) => verdict(better, bound, ma, mb).word(),
            None => "-",
        };
        let ratio = if ma.median != 0.0 {
            format!("{:.4}", mb.median / ma.median)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            s,
            "{workload:<16} {metric:<44} {:>14.6} {:>14.6} {ratio:>9}  {word}",
            ma.median, mb.median
        );
    }
    for (workload, w) in a.get("workloads").map_or(&[][..], Json::members) {
        let other = b.get("workloads").and_then(|ws| ws.get(workload));
        let detail = |file: &Json, key: &str| file.get("detail").and_then(|d| d.get(key)).cloned();
        let (da, db) = (
            detail(w, "digests"),
            other.and_then(|o| detail(o, "digests")),
        );
        if let Some(other) = other {
            let _ = writeln!(
                s,
                "{workload:<16} simulated digests {}",
                if da == db { "identical" } else { "DIFFER" }
            );
            for (side, file) in [("A", w), ("B", other)] {
                let failed = detail(file, "failed_checks").unwrap_or(Json::Null);
                if !failed.elements().is_empty() {
                    let names: Vec<&str> = failed.elements().iter().filter_map(Json::str).collect();
                    let _ = writeln!(
                        s,
                        "{workload:<16} {side} FAILED checks: {}",
                        names.join(", ")
                    );
                }
            }
        }
    }
    s
}

/// `pwbench diff A.json B.json`.
pub fn diff_cmd(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("diff takes two ledger files".to_string());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    print!("{}", diff_table(&load(a)?, &load(b)?));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Higher is better: 5 % down is inside a 10 % bound, 15 % is not.
        assert_eq!(
            verdict(Better::Higher, 0.10, &base, &runs(&[95.0, 95.5, 94.5])),
            Verdict::Same
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &base, &runs(&[85.0, 85.5, 84.5])),
            Verdict::Worse
        );
        // An improvement is never worse.
        assert_eq!(
            verdict(Better::Higher, 0.10, &base, &runs(&[150.0, 151.0, 149.0])),
            Verdict::Same
        );
        // Lower is better: the same numbers read the other way round.
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &runs(&[115.0, 115.5, 114.5])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &runs(&[85.0, 85.5, 84.5])),
            Verdict::Same
        );
        // Runs that scatter by more than the bound cannot resolve it.
        assert_eq!(
            verdict(
                Better::Higher,
                0.10,
                &base,
                &runs(&[80.0, 100.0, 120.0, 90.0])
            ),
            Verdict::Unresolved
        );
        // A single run has no spread and is compared on its value.
        assert_eq!(
            verdict(Better::Higher, 0.10, &runs(&[100.0]), &runs(&[80.0])),
            Verdict::Worse
        );
    }

    #[test]
    fn diff_reads_ledger_files() {
        let file = |tp: &str, digest: &str| {
            json::parse(&format!(
                "{{\"workloads\": {{\"node_loop\": {{\"detail\": {{\"digests\": {{\"pairs\": \"{digest}\"}}, \"failed_checks\": []}}, \"metrics\": {{\
                 \"throughput_per_s\": {{\"unit\": \"1/s\", \"median\": {tp}, \"q1\": {tp}, \"q3\": {tp}, \"values\": [{tp}, {tp}]}}, \
                 \"core.node.clone_us\": {{\"unit\": \"us\", \"median\": 2, \"q1\": 2, \"q3\": 2, \"values\": [2]}}}}}}}}}}"
            ))
            .expect("valid")
        };
        let table = diff_table(&file("1000", "7"), &file("700", "7"));
        assert!(table.contains("0.7000  worse"), "{table}");
        assert!(table.contains("core.node.clone_us"), "{table}");
        assert!(table.contains("1.0000  -"), "{table}");
        assert!(table.contains("digests identical"), "{table}");
        let table = diff_table(&file("1000", "7"), &file("1000", "8"));
        assert!(table.contains("1.0000  same"), "{table}");
        assert!(table.contains("digests DIFFER"), "{table}");
    }
}
