//! `pw stat` — render runtime-metrics reports from the command line.
//!
//! Input is the JSONL written by `pw chaos --profile` (or any
//! [`RunReport::to_jsonl`] export): one self-contained record stream per
//! run, ending in `{"rec":"end"}`. Subcommands:
//!
//! * `render FILE [--top N] [--assert-fractions]` — the human view: one
//!   attribution table per run (where the wall-clock went, by group),
//!   the top-N busiest shards, and the recorded histograms' quantiles.
//!   `--assert-fractions` additionally exits 1 unless every run's
//!   attribution fractions sum to ~1.0 — the coherence check.
//! * `prom FILE` — Prometheus text exposition of every run's counters
//!   and time attribution, for scraping or pushgateway upload.
//! * `roundtrip FILE` — strict parse → re-export → byte-compare. Exits 1
//!   on any mismatch; guards the exporter/parser pair against drift.
//! * `cluster FILE [--prom]` — renders a `pw cluster` run summary (the
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

use crate::{finish, Args, Error};
use peerwindow_metrics::runtime::{parse_jsonl, prometheus, RunReport};
use peerwindow_trace::json::{self, JVal};
use std::io::Write;

/// The counters of a cluster summary's `audit`, `shim` and `runtime`
/// objects.
const AUDIT: [&str; 4] = ["parts", "missing", "cross_part", "stale"];
const SHIM: [&str; 3] = ["dropped", "duplicated", "delayed"];
const RUNTIME: [&str; 3] = ["datagrams_out", "send_retries", "backoff_exhaustions"];

const USAGE: &str = "usage: pw stat <render FILE [--top N] [--assert-fractions] | prom FILE | \
                     roundtrip FILE | cluster FILE [--prom]>";

/// Runs `pw stat` with `args`; returns the exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    finish(dispatch(args, out, err), USAGE, err)
}

fn dispatch(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<u8, Error> {
    let mut a = Args::new(args);
    let (Some(cmd), Some(path)) = (a.next(), a.next()) else {
        return Err(Error::usage(""));
    };
    let (mut top, mut assert_fractions, mut prom) = (4, false, false);
    while let Some(flag) = a.next() {
        match (cmd, flag) {
            ("render", "--top") => top = a.parse(flag)?,
            ("render", "--assert-fractions") => assert_fractions = true,
            ("cluster", "--prom") => prom = true,
            _ => return Err(Args::unknown(flag)),
        }
    }
    if cmd == "cluster" {
        return cluster(path, prom, out);
    }
    let text = read(path)?;
    let reports = parse_jsonl(&text).map_err(|e| Error::Fail(2, format!("error: {path}: {e}")))?;
    match cmd {
        "render" => render(path, &reports, top, assert_fractions, out, err),
        "prom" => {
            write!(out, "{}", prometheus(&reports))?;
            Ok(0)
        }
        "roundtrip" => {
            let again: String = reports.iter().map(RunReport::to_jsonl).collect();
            if again != text {
                writeln!(
                    err,
                    "error: {path}: re-export differs from input ({} vs {} bytes) — \
                     exporter/parser drift",
                    again.len(),
                    text.len()
                )?;
                return Ok(1);
            }
            let (n, bytes) = (reports.len(), text.len());
            writeln!(err, "roundtrip ok: {n} report(s), {bytes} bytes")?;
            Ok(0)
        }
        _ => Err(Error::usage(format!("unknown command {cmd:?}"))),
    }
}

fn read(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path)
        .map_err(|e| Error::Fail(2, format!("error: cannot read {path}: {e}")))
}

fn render(
    path: &str,
    reports: &[RunReport],
    top: usize,
    assert_fractions: bool,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<u8, Error> {
    let mut bad = 0usize;
    for r in reports {
        writeln!(out, "{}", r.render(top))?;
        if assert_fractions && r.total_time_ns() > 0 {
            let sum: f64 = r.attribution().iter().map(|(_, f)| f).sum();
            if (sum - 1.0).abs() > 1e-6 {
                writeln!(
                    err,
                    "error: run '{}': attribution fractions sum to {sum}, expected 1.0",
                    r.name
                )?;
                bad += 1;
            }
        }
    }
    if !assert_fractions {
        return Ok(0);
    }
    let timed = reports.iter().filter(|r| r.total_time_ns() > 0).count();
    if timed == 0 {
        writeln!(
            err,
            "error: no run in {path} carries wall-clock attribution"
        )?;
        return Ok(1);
    }
    if bad > 0 {
        return Ok(1);
    }
    writeln!(err, "fractions ok: {timed} run(s) each sum to 1.0")?;
    Ok(0)
}

/// Renders a `pw cluster --out` summary. Returns 2 on a parse error, 1 if
/// the summary records a non-converged run, 0 otherwise.
fn cluster(path: &str, prom: bool, out: &mut dyn Write) -> Result<u8, Error> {
    let text = read(path)?;
    let v = json::parse(text.trim()).map_err(|e| Error::Fail(2, format!("error: {path}: {e}")))?;
    let num = |key: &str| v.get(key).and_then(JVal::as_num).unwrap_or(0);
    let nested = |obj: &str, key: &str| {
        v.get(obj)
            .and_then(|o| o.get(key))
            .and_then(JVal::as_num)
            .unwrap_or(0)
    };
    let converged = num("converged") == 1;
    if prom {
        let mut gauge = |name: &str, value: u64| {
            write!(
                out,
                "# TYPE peerwindow_cluster_{name} gauge\npeerwindow_cluster_{name} {value}\n"
            )
        };
        gauge("nodes", num("nodes"))?;
        gauge("converged", num("converged"))?;
        gauge("restarts_observed", num("restarts_observed"))?;
        gauge("settled_ms", num("settled_ms"))?;
        for k in AUDIT {
            gauge(&format!("audit_{k}"), nested("audit", k))?;
        }
        for k in SHIM {
            gauge(&format!("shim_{k}"), nested("shim", k))?;
        }
        for k in RUNTIME {
            gauge(k, nested("runtime", k))?;
        }
    } else {
        let plan = v.get("plan").and_then(JVal::as_str).unwrap_or("?");
        let verdict = if converged { "SETTLED" } else { "NOT SETTLED" };
        let [parts, missing, cross_part, stale] = AUDIT.map(|k| nested("audit", k));
        let [dropped, duplicated, delayed] = SHIM.map(|k| nested("shim", k));
        let [datagrams, retries, exhaustions] = RUNTIME.map(|k| nested("runtime", k));
        writeln!(
            out,
            "cluster run: {} node(s), plan {plan}, seed {} — {verdict}\n  \
             joined {} ms, settled {} ms, restarts observed {}\n  \
             audit: parts {parts}  missing {missing}  cross-part {cross_part}  stale {stale}\n  \
             shim verdicts: dropped {dropped}  duplicated {duplicated}  delayed {delayed}\n  \
             runtime: datagrams out {datagrams}  send retries {retries}  \
             backoff exhaustions {exhaustions}",
            num("nodes"),
            num("seed"),
            num("joined_ms"),
            num("settled_ms"),
            num("restarts_observed"),
        )?;
        if let Some(JVal::Arr(nodes)) = v.get("per_node") {
            writeln!(
                out,
                "  {:<34} {:>5} {:>6} {:>9}",
                "node", "level", "peers", "restarts"
            )?;
            for n in nodes {
                let id = n.get("id").and_then(JVal::as_str).unwrap_or("(down)");
                let [level, peers, restarts] = ["level", "peers", "restarts"]
                    .map(|k| n.get(k).and_then(JVal::as_num).unwrap_or(0));
                writeln!(out, "  {id:<34} {level:>5} {peers:>6} {restarts:>9}")?;
            }
        }
    }
    Ok(if converged { 0 } else { 1 })
}
