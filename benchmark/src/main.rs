//! pwbench — the repository's benchmark ledger.
//!
//! ```text
//! pwbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! pwbench all [--seed N] [--seconds S] [--repeats R] [--trace 0|1] [--quick] --out FILE
//! pwbench diff A.json B.json
//! pwbench list [--json]
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name with its unit, the built-in checks, and as the last
//! line one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which also writes `out/trace-NAME.jsonl`). See README.md.

mod host;
mod json;
mod probes;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Outcome, RunArgs};

const USAGE: &str = "usage: pwbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       pwbench all [--seed N] [--seconds S] [--repeats R] [--trace 0|1] [--quick] --out FILE
       pwbench diff A.json B.json
       pwbench list [--json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            if args.get(1).map(String::as_str) == Some("--json") {
                print!("{}", spec::manifest_json());
            } else {
                print!("{}", spec::listing());
            }
            Ok(())
        }
        Some("diff") => report::diff_cmd(&args[1..]),
        Some("all") => report::all_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pwbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by the single-workload form and `all`.
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeats: usize,
    pub out: Option<String>,
}

/// Parses `--flag value` pairs; unknown flags are errors.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeats: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            f.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} takes a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.to_string()),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                f.seconds = value.parse().map_err(|_| bad())?;
                if !(f.seconds >= 0.0 && f.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                f.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeats" => {
                f.repeats = value.parse().map_err(|_| bad())?;
                if f.repeats == 0 {
                    return Err(bad());
                }
            }
            "--out" => f.out = Some(value.to_string()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(f)
}

/// One finished run: the outcome plus the final metric set (exactly the
/// declared end-to-end names untraced, exactly the per-layer names
/// traced).
pub struct RunResult {
    pub outcome: Outcome,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<RunResult> {
    let mut tr = span::Tracer::new(args.trace, args.seed);
    let mut outcome = workloads::run(name, args, &mut tr)?;
    let metrics = if args.trace {
        outcome.set("bench.span_count", tr.len() as f64);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}.jsonl"));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("wrote {} spans to {}", tr.len(), path.display()),
            Err(e) => eprintln!("pwbench: cannot write {}: {e}", path.display()),
        }
        // A layer this workload never enters reads 0.
        spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    outcome.metrics.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    } else {
        outcome.set("peak_rss_mb", host::peak_rss_mb());
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = outcome.metrics.get(m.name).copied();
                (
                    m.name,
                    v.expect("every workload sets every end-to-end metric"),
                    m.unit,
                )
            })
            .collect()
    };
    Some(RunResult { outcome, metrics })
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let name = f.workload.ok_or("--workload is required")?;
    let run_args = RunArgs {
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        quick: f.quick,
    };
    let r = run_workload(&name, &run_args).ok_or_else(|| format!("unknown workload {name}"))?;
    print!("{}", report::render_run(&name, &run_args, &r));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> RunArgs {
        RunArgs {
            seed: 7,
            seconds: 0.3,
            trace,
            quick: true,
        }
    }

    /// The quick scale runs the same code paths and checks as the full
    /// one: every workload must pass its checks and emit exactly the
    /// declared names, untraced and traced.
    #[test]
    fn quick_runs_emit_exactly_the_declared_names() {
        for w in spec::WORKLOADS {
            for (trace, declared) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
                let r = run_workload(w.name, &quick(trace)).expect("declared workload");
                let failed: Vec<_> = r.outcome.checks.iter().filter(|c| !c.ok).collect();
                assert!(failed.is_empty(), "{} trace={trace}: {failed:?}", w.name);
                assert_eq!(r.outcome.failed(), 0);
                assert!(r.outcome.attempted >= 1);
                let got: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
                assert_eq!(got, want, "{} trace={trace}", w.name);
                assert!(r.metrics.iter().all(|m| m.1.is_finite()));
                if !trace {
                    assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{:?}", r.metrics);
                }
                // The printed result ends with the contract's JSON line.
                let text = report::render_run(w.name, &quick(trace), &r);
                let last = json::parse(text.lines().last().expect("a last line")).expect("JSON");
                assert_eq!(last.get("correct"), Some(&json::Json::Bool(true)));
                assert_eq!(
                    last.get("metrics").map(|m| m.members().len()),
                    Some(declared.len())
                );
            }
        }
    }

    /// Every per-layer metric is measured by at least one workload.
    #[test]
    fn every_layer_metric_has_a_workload_that_sets_it() {
        let mut set = std::collections::BTreeSet::new();
        for w in spec::WORKLOADS {
            let r = run_workload(w.name, &quick(true)).expect("declared workload");
            set.extend(r.outcome.metrics.keys().copied());
        }
        for m in spec::PER_LAYER {
            assert!(set.contains(m.name), "no workload sets {}", m.name);
        }
    }

    #[test]
    fn same_seed_gives_the_same_digests() {
        for name in ["fullsim_churn", "oracle_fig"] {
            let a = run_workload(name, &quick(false)).expect("workload");
            let b = run_workload(name, &quick(false)).expect("workload");
            assert_eq!(a.outcome.digests, b.outcome.digests, "{name}");
            assert!(!a.outcome.digests.is_empty());
        }
    }

    #[test]
    fn flags_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let f = parse_flags(&args(
            "--workload node_loop --seed 9 --seconds 2.5 --trace 1 --quick",
        ))
        .expect("valid");
        assert_eq!(f.workload.as_deref(), Some("node_loop"));
        assert_eq!((f.seed, f.seconds, f.trace, f.quick), (9, 2.5, true, true));
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds -1",
            "--bogus 1",
            "--seed",
            "--repeats 0",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad} accepted");
        }
        assert!(run_workload("no_such_workload", &quick(false)).is_none());
    }
}
