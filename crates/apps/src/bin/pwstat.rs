//! `pwstat` — render runtime-metrics reports from the command line.
//!
//! Input is the JSONL written by `pwchaos --profile` (or any
//! [`RunReport::to_jsonl`] export): one self-contained record stream per
//! run, ending in `{"rec":"end"}`. Subcommands:
//!
//! * `render FILE [--top N] [--assert-fractions]` — the human view: one
//!   attribution table per run (where the wall-clock went, by group),
//!   the top-N busiest shards, and the recorded histograms' quantiles.
//!   `--assert-fractions` additionally exits 1 unless every run's
//!   attribution fractions sum to ~1.0 — the CI coherence check.
//! * `prom FILE` — Prometheus text exposition of every run's counters
//!   and time attribution, for scraping or pushgateway upload.
//! * `roundtrip FILE` — strict parse → re-export → byte-compare. Exits 1
//!   on any mismatch; guards the exporter/parser pair against drift.
//! * `cluster FILE [--prom]` — renders a `pwcluster` run summary (the
//!   JSON it writes to `--out`): verdict/retry/restart counters, the
//!   partition-aware audit, and the per-node table. `--prom` emits the
//!   same counters as Prometheus text exposition instead.
//!
//! Exit status: 0 on success, 1 on a failed assertion or round-trip
//! mismatch, 2 on a usage or parse error.
//!
//! Reading a report: a high `barrier_wait` fraction with a low
//! `execute` fraction means the run is synchronization-bound (shards
//! too small, or load imbalance parking fast workers at the window
//! barrier); a dominant `execute` fraction means the run is
//! compute-bound and more shards will help. See EXPERIMENTS.md.

use peerwindow_metrics::runtime::{parse_jsonl, prometheus, RunReport};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pwstat <render FILE [--top N] [--assert-fractions] | prom FILE | \
         roundtrip FILE | cluster FILE [--prom]>"
    );
    ExitCode::from(2)
}

/// Renders a `pwcluster --out` summary. Returns 2 on a parse error, 1 if
/// the summary records a non-converged run, 0 otherwise.
fn cluster(path: &str, prom: bool) -> ExitCode {
    use peerwindow_trace::json::{self, JVal};
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let v = match json::parse(text.trim()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let num = |key: &str| v.get(key).and_then(JVal::as_num).unwrap_or(0);
    let nested = |obj: &str, key: &str| {
        v.get(obj)
            .and_then(|o| o.get(key))
            .and_then(JVal::as_num)
            .unwrap_or(0)
    };
    let converged = num("converged") == 1;
    if prom {
        let mut out = String::new();
        let mut counter = |name: &str, value: u64| {
            out.push_str(&format!(
                "# TYPE peerwindow_cluster_{name} gauge\npeerwindow_cluster_{name} {value}\n"
            ));
        };
        counter("nodes", num("nodes"));
        counter("converged", num("converged"));
        counter("restarts_observed", num("restarts_observed"));
        counter("settled_ms", num("settled_ms"));
        for k in ["parts", "missing", "cross_part", "stale"] {
            counter(&format!("audit_{k}"), nested("audit", k));
        }
        for k in ["dropped", "duplicated", "delayed"] {
            counter(&format!("shim_{k}"), nested("shim", k));
        }
        for k in ["datagrams_out", "send_retries", "backoff_exhaustions"] {
            counter(k, nested("runtime", k));
        }
        print!("{out}");
    } else {
        let plan = v.get("plan").and_then(JVal::as_str).unwrap_or("?");
        println!(
            "cluster run: {} node(s), plan {plan}, seed {} — {}",
            num("nodes"),
            num("seed"),
            if converged { "SETTLED" } else { "NOT SETTLED" },
        );
        println!(
            "  joined {} ms, settled {} ms, restarts observed {}",
            num("joined_ms"),
            num("settled_ms"),
            num("restarts_observed"),
        );
        println!(
            "  audit: parts {}  missing {}  cross-part {}  stale {}",
            nested("audit", "parts"),
            nested("audit", "missing"),
            nested("audit", "cross_part"),
            nested("audit", "stale"),
        );
        println!(
            "  shim verdicts: dropped {}  duplicated {}  delayed {}",
            nested("shim", "dropped"),
            nested("shim", "duplicated"),
            nested("shim", "delayed"),
        );
        println!(
            "  runtime: datagrams out {}  send retries {}  backoff exhaustions {}",
            nested("runtime", "datagrams_out"),
            nested("runtime", "send_retries"),
            nested("runtime", "backoff_exhaustions"),
        );
        if let Some(JVal::Arr(nodes)) = v.get("per_node") {
            println!(
                "  {:<34} {:>5} {:>6} {:>9}",
                "node", "level", "peers", "restarts"
            );
            for n in nodes {
                println!(
                    "  {:<34} {:>5} {:>6} {:>9}",
                    n.get("id").and_then(JVal::as_str).unwrap_or("(down)"),
                    n.get("level").and_then(JVal::as_num).unwrap_or(0),
                    n.get("peers").and_then(JVal::as_num).unwrap_or(0),
                    n.get("restarts").and_then(JVal::as_num).unwrap_or(0),
                );
            }
        }
    }
    if converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn load(path: &str) -> Result<(String, Vec<RunReport>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let reports = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((text, reports))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(path) = args.get(1) else {
        return usage();
    };
    if cmd == "cluster" {
        return match args.get(2).map(String::as_str) {
            None => cluster(path, false),
            Some("--prom") if args.len() == 3 => cluster(path, true),
            _ => usage(),
        };
    }
    let (text, reports) = match load(path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "render" => {
            let mut top = 4usize;
            let mut assert_fractions = false;
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => top = n,
                        None => return usage(),
                    },
                    "--assert-fractions" => assert_fractions = true,
                    _ => return usage(),
                }
            }
            let mut bad = 0usize;
            for r in &reports {
                print!("{}", r.render(top));
                println!();
                if assert_fractions && r.total_time_ns() > 0 {
                    let sum: f64 = r.attribution().iter().map(|(_, f)| f).sum();
                    if (sum - 1.0).abs() > 1e-6 {
                        eprintln!(
                            "error: run '{}': attribution fractions sum to {sum}, expected 1.0",
                            r.name
                        );
                        bad += 1;
                    }
                }
            }
            if assert_fractions {
                let timed = reports.iter().filter(|r| r.total_time_ns() > 0).count();
                if timed == 0 {
                    eprintln!("error: no run in {path} carries wall-clock attribution");
                    return ExitCode::from(1);
                }
                if bad > 0 {
                    return ExitCode::from(1);
                }
                eprintln!("fractions ok: {timed} run(s) each sum to 1.0");
            }
            ExitCode::SUCCESS
        }
        "prom" => {
            if args.len() != 2 {
                return usage();
            }
            print!("{}", prometheus(&reports));
            ExitCode::SUCCESS
        }
        "roundtrip" => {
            if args.len() != 2 {
                return usage();
            }
            let mut again = String::new();
            for r in &reports {
                again.push_str(&r.to_jsonl());
            }
            if again != text {
                eprintln!(
                    "error: {path}: re-export differs from input ({} vs {} bytes) — \
                     exporter/parser drift",
                    again.len(),
                    text.len()
                );
                return ExitCode::from(1);
            }
            eprintln!(
                "roundtrip ok: {} report(s), {} bytes",
                reports.len(),
                text.len()
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
