//! The five workloads and what they share: run arguments, the outcome
//! record, the churn population and the protocol configuration of the
//! three workloads that run real `NodeMachine`s.

use crate::span::Tracer;
use crate::stats;
use peerwindow_core::prelude::*;
use peerwindow_workload::ChurnConfig;
use std::collections::BTreeMap;
use std::time::Instant;

pub mod churn;
pub mod fullsim_churn;
pub mod node_loop;
pub mod oracle_fig;
pub mod parallel_churn;
pub mod query_serve;

/// Arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed section measures, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Small sizes: same code paths and checks, every workload < 3 s.
    pub quick: bool,
}

/// One built-in correctness check. A failed check fails the operations
/// it covers.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Operations the check vouches for.
    pub covers: u64,
    /// The compared values, for the log.
    pub detail: String,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (events, datagrams or queries).
    pub attempted: u64,
    /// Built-in checks.
    pub checks: Vec<Check>,
    /// Metric values by declared name (end-to-end and per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Simulated quantities that must repeat exactly for a seed.
    pub digests: Vec<(&'static str, String)>,
    /// Input sizes actually used.
    pub sizes: Vec<(&'static str, u64)>,
    /// Per-unit samples behind a reported statistic, printed with their
    /// quartiles so a reader sees how steady the run was.
    pub samples: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, covers: u64, detail: String) {
        self.checks.push(Check {
            name,
            ok,
            covers,
            detail,
        });
    }

    /// Operations covered by failed checks, capped at `attempted`.
    pub fn failed(&self) -> u64 {
        self.checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.covers)
            .sum::<u64>()
            .min(self.attempted)
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs the named workload.
pub fn run(name: &str, args: &RunArgs, tr: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "oracle_fig" => oracle_fig::run(args, tr),
        "fullsim_churn" => fullsim_churn::run(args, tr),
        "parallel_churn" => parallel_churn::run(args, tr),
        "node_loop" => node_loop::run(args, tr),
        "query_serve" => query_serve::run(args, tr),
        _ => return None,
    })
}

/// How many times the workloads with one long-lived world set it up;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Builds the world [`SETUP_REPS`] times under `bench.setup` spans and
/// returns the last one with the median build time in seconds. Only one
/// world is alive at a time, so peak memory is that of the world the
/// workload uses.
pub fn timed_setups<W>(tr: &mut Tracer, mut build: impl FnMut(&mut Tracer) -> W) -> (W, f64) {
    let mut world = None;
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let span = tr.begin("bench.setup");
        let t = Instant::now();
        world = Some(build(tr));
        secs.push(t.elapsed().as_secs_f64());
        tr.end(span);
    }
    (world.expect("SETUP_REPS > 0"), stats::median(&secs))
}

/// Per-unit throughputs of a timed loop, split by whether the unit ran
/// with spans on.
#[derive(Default)]
pub struct Rates {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl Rates {
    /// Records one unit's rate.
    pub fn push(&mut self, traced: bool, rate: f64) {
        if traced {
            self.traced.push(rate);
        } else {
            self.untraced.push(rate);
        }
    }

    /// Every unit's rate.
    pub fn all(&self) -> Vec<f64> {
        [&self.untraced[..], &self.traced[..]].concat()
    }

    /// Units recorded.
    pub fn len(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// `throughput_per_s`: the median of the per-unit rates.
    ///
    /// Units of a run do identical (or statistically identical) work, so
    /// their rates differ only by what the host did to them, and on a
    /// shared host that is a lot: identical units of one run differ by
    /// 10–15 %, in both directions (a unit can be lucky with where its
    /// memory lands as well as unlucky with its neighbours), and whole
    /// runs drift by ±5 % for tens of seconds. Upper percentiles and
    /// best-of were tried while sizing and were no steadier from run to
    /// run than the median (quartile spread over ten runs 4–14 % against
    /// 4–11 %), so the plain robust centre is reported.
    pub fn throughput(&self) -> f64 {
        stats::median(&self.all())
    }

    /// `bench.trace_overhead_pct`: what the untraced units gain over the
    /// traced ones of the same run.
    pub fn trace_overhead_pct(&self) -> f64 {
        let (t, u) = (stats::median(&self.traced), stats::median(&self.untraced));
        if t > 0.0 && u > 0.0 {
            (u / t - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Whether a timed loop runs another unit: until `seconds` of wall clock
/// are spent, and at least `min_units` times.
pub fn keep_going(started: Instant, seconds: f64, units: usize, min_units: usize) -> bool {
    units < min_units || started.elapsed().as_secs_f64() < seconds
}

/// The traced run times every other slice with spans off, so one process
/// yields both sides of `bench.trace_overhead_pct`. Returns whether
/// slice `i` records spans, and switches the tracer accordingly.
pub fn alternate_tracing(tr: &mut Tracer, traced_run: bool, i: usize) -> bool {
    let on = traced_run && i.is_multiple_of(2);
    tr.set_on(on);
    on
}

/// `bench.span_coverage_pct`: the share of `wall_ns` (the traced slices
/// of a timed loop) that the self times of the layer spans recorded at
/// indices `range` account for. Spans named `bench.*` are the
/// benchmark's own bookkeeping and do not count.
pub fn span_coverage_pct(tr: &Tracer, range: std::ops::Range<usize>, wall_ns: u64) -> f64 {
    let layer_ns: u64 = tr
        .stats_in(range)
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, s)| s.self_ns)
        .sum();
    layer_ns as f64 / wall_ns.max(1) as f64 * 100.0
}

/// Protocol constants of the three machine workloads: the
/// `perfbaseline::full_sim_run` configuration (2 s probes, 400 ms RPC
/// timeout, 10 ms processing delay, 8 s bandwidth window).
pub fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 2_000_000,
        rpc_timeout_us: 400_000,
        processing_delay_us: 10_000,
        bandwidth_window_us: 8_000_000,
        ..ProtocolConfig::default()
    }
}

/// One-way latency of the uniform network the machine workloads use.
pub const UNIFORM_LATENCY_US: u64 = 20_000;

/// Draws per node behind [`population`]'s stratified thresholds.
const STRATA: usize = 16;

/// Identities and bandwidth thresholds for the machine workloads: the
/// first `n` settle the system, the rest join during churn. Entry 0 is
/// the genesis node and gets an unlimited budget (a seed node starts at
/// level 0 regardless).
///
/// Thresholds come from the paper's common churn configuration, which at
/// 512 nodes puts about 85 % of them at level 0 and the rest at levels
/// 1–7. How many land on each level decides how long the lists are and
/// so what an event costs; with a plain draw that mix, and with it the
/// throughput, moved by several percent from seed to seed. So the draw
/// is stratified: [`STRATA`] times as many thresholds as nodes are drawn
/// and sorted, the middle one of each run of [`STRATA`] is kept, and the
/// kept ones are dealt to the nodes in seeded random order. Every seed
/// then sees the same distribution; which node is weak still varies.
pub fn population(seed: u64, n: usize, joiners: usize) -> Vec<(NodeId, f64)> {
    let count = n + joiners;
    let specs = ChurnConfig::paper_common(count * STRATA, seed).initial_population();
    let mut thresholds: Vec<f64> = specs.iter().map(|(s, _)| s.threshold_bps).collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are never NaN"));
    let mut kept: Vec<f64> = thresholds
        .chunks(STRATA)
        .map(|run| run[STRATA / 2])
        .collect();
    let mut rng = peerwindow_des::DetRng::for_stream(seed, 0x907);
    for i in (1..kept.len()).rev() {
        kept.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut pop: Vec<(NodeId, f64)> = specs
        .iter()
        .take(count)
        .zip(kept)
        .map(|((spec, _), threshold)| (NodeId(spec.id_raw), threshold))
        .collect();
    pop[0].1 = 1e9;
    pop
}

/// `(missing + stale) / required` from an `accuracy()` triple.
pub fn list_error_rate((required, missing, stale): (usize, usize, usize)) -> f64 {
    (missing + stale) as f64 / required.max(1) as f64
}

/// Largest list error rate a simulated workload of `nodes` nodes
/// accepts: 0.03 (the seed commit measures 0.003–0.007 at full size), or
/// five undetected departures' worth where the population is so small
/// (`--quick`) that one departure is more than 1 % of every list.
pub fn max_list_error(nodes: usize) -> f64 {
    0.03f64.max(5.0 / nodes as f64)
}
