//! `oracle_fig`: the figure 5–8 regeneration path.
//!
//! One unit is `sim::run_oracle(OracleConfig::paper_common(n, seed))`
//! over the transit-stub network, warm-up plus measurement window
//! included; units repeat (same seed, so every report must be identical)
//! until the wall-clock budget is spent. `sim::plan` and
//! `sim::directory` do almost all the work, `topology` builds the
//! latency matrix inside every call, `core::node` and `des::parallel` do
//! nothing. Unit of work: measured state-change events
//! (`OracleReport::events`) per wall second of the whole call.
//!
//! Set-up is what `run_oracle` does before its first event, made from
//! the same public calls: generate the topology, build the latency
//! matrix, draw the population and the arrivals.

use super::{alternate_tracing, keep_going, max_list_error, timed_setups, Outcome, Rates, RunArgs};
use crate::probes::{self, block_ns, mean_us};
use crate::span::Tracer;
use crate::stats;
use peerwindow_core::model::ModelParams;
use peerwindow_core::prelude::*;
use peerwindow_des::DetRng;
use peerwindow_sim::directory::AudienceEntry;
use peerwindow_sim::plan::{plan_event, Rmq};
use peerwindow_sim::{run_oracle, Directory, NetworkConfig, OracleConfig, OracleReport};
use peerwindow_topology::{NetworkModel, Topology, TransitStubNetwork, TransitStubParams};
use peerwindow_workload::NodeSpec;
use std::hint::black_box;
use std::time::Instant;

/// The run's oracle configuration (full / `--quick`).
fn config(seed: u64, quick: bool) -> OracleConfig {
    let (n, params, warmup_s, measure_s) = if quick {
        (2_000, TransitStubParams::small(), 10.0, 40.0)
    } else {
        (20_000, TransitStubParams::default(), 2.0, 22.0)
    };
    OracleConfig {
        network: NetworkConfig::TransitStub { params, seed },
        warmup_s,
        measure_s,
        sample_interval_s: 5.0,
        ..OracleConfig::paper_common(n, seed)
    }
}

/// Units every run completes.
const MIN_UNITS: usize = 2;

/// What set-up builds: the inputs `run_oracle` derives from its config.
struct Inputs {
    net: TransitStubNetwork,
    population: Vec<(NodeSpec, f64)>,
}

fn setup(tr: &mut Tracer, cfg: &OracleConfig) -> Inputs {
    let NetworkConfig::TransitStub { params, seed } = cfg.network else {
        unreachable!("config() asks for the transit-stub network");
    };
    let topo = tr.time("topology.generate", || Topology::generate(params, seed));
    let net = tr.time("topology.latency_build", || {
        TransitStubNetwork::build(&topo)
    });
    let population = tr.time("workload.initial_population", || {
        cfg.churn.initial_population()
    });
    let arrivals = tr.time("workload.arrivals", || {
        cfg.churn.arrivals(cfg.warmup_s + cfg.measure_s)
    });
    black_box(arrivals.len());
    Inputs { net, population }
}

/// The fields of a report that a same-seed rerun must reproduce.
fn digest(r: &OracleReport) -> (u64, u64, usize, u64, u64, u64) {
    (
        r.events,
        r.deliveries,
        r.n_final,
        r.avg_error_rate.to_bits(),
        r.mean_multicast_delay_s.to_bits(),
        r.level_shifts,
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs, tr: &mut Tracer) -> Outcome {
    let cfg = config(args.seed, args.quick);
    let mut out = Outcome::default();
    let (inputs, setup_s) = timed_setups(tr, |tr| setup(tr, &cfg));

    let mut rates = Rates::default();
    let mut unit_wall = Vec::new();
    let mut reports: Vec<OracleReport> = Vec::new();
    let started = Instant::now();
    while keep_going(started, args.seconds, reports.len(), MIN_UNITS) {
        let traced = alternate_tracing(tr, args.trace, reports.len());
        let span = tr.begin("sim.oracle.run_oracle");
        let t = Instant::now();
        let report = run_oracle(cfg.clone());
        let secs = t.elapsed().as_secs_f64();
        tr.end(span);
        rates.push(traced, report.events as f64 / secs);
        unit_wall.push(secs);
        reports.push(report);
    }
    tr.set_on(args.trace);

    let first = &reports[0];
    let events: u64 = reports.iter().map(|r| r.events).sum();
    out.attempted = events;
    let same = reports.iter().all(|r| digest(r) == digest(first));
    out.check(
        "units_repeat_exactly",
        same,
        events,
        format!("{} units, first {:?}", reports.len(), digest(first)),
    );
    let limit = max_list_error(cfg.churn.n);
    out.check(
        "list_error_rate_bounded",
        first.avg_error_rate > 0.0 && first.avg_error_rate <= limit,
        events,
        format!("0 < {:.5} <= {limit:.5}", first.avg_error_rate),
    );
    out.check(
        "every_event_is_delivered",
        first.events > 0 && first.deliveries > first.events,
        events,
        format!("{} events, {} deliveries", first.events, first.deliveries),
    );
    out.set("throughput_per_s", rates.throughput());
    out.samples.push(("throughput_per_s", "1/s", rates.all()));
    out.set("setup_s", setup_s);
    out.set("list_accuracy", 1.0 - first.avg_error_rate);
    out.digests = vec![
        ("events", first.events.to_string()),
        ("deliveries", first.deliveries.to_string()),
        ("n_final", first.n_final.to_string()),
        ("avg_error_rate", format!("{}", first.avg_error_rate)),
        (
            "mean_multicast_delay_s",
            format!("{}", first.mean_multicast_delay_s),
        ),
    ];
    out.sizes = vec![
        ("nodes", cfg.churn.n as u64),
        ("warmup_sim_s", cfg.warmup_s as u64),
        ("measure_sim_s", cfg.measure_s as u64),
        ("units", reports.len() as u64),
    ];

    if args.trace {
        out.set("sim.oracle.events", first.events as f64);
        out.set("sim.oracle.deliveries", first.deliveries as f64);
        out.set("sim.oracle.multicast_delay_s", first.mean_multicast_delay_s);
        let st = tr.stats();
        let secs = |name: &str| st.get(name).map_or(0.0, |s| s.mean_ns() / 1e9);
        out.set("topology.generate_s", secs("topology.generate"));
        out.set("topology.latency_build_s", secs("topology.latency_build"));
        out.set(
            "workload.initial_population_ms",
            secs("workload.initial_population") * 1e3,
        );
        out.set("workload.arrivals_ms", secs("workload.arrivals") * 1e3);
        out.set("bench.trace_overhead_pct", rates.trace_overhead_pct());
        // `run_oracle` is one call, so its inside is replayed from
        // outside: the same number of events through the directory and
        // the planner on a directory of the same population.
        let all_events =
            (first.events as f64 * (cfg.warmup_s + cfg.measure_s) / cfg.measure_s).round() as u64;
        let replay_s = replay(tr, &cfg, &inputs, all_events, &mut out);
        out.set(
            "bench.span_coverage_pct",
            (replay_s + secs("topology.generate") + secs("topology.latency_build"))
                / stats::median(&unit_wall)
                * 100.0,
        );
        probes::id_ops(tr, args.seed, &mut out);
    }
    out
}

/// Replays `events` state changes (alternating leave and join, each
/// multicast to its audience) on a directory of the run's population.
/// Returns the seconds the replayed layer calls took.
fn replay(
    tr: &mut Tracer,
    cfg: &OracleConfig,
    inputs: &Inputs,
    events: u64,
    out: &mut Outcome,
) -> f64 {
    let model = ModelParams {
        lifetime_s: cfg.churn.mean_lifetime_s(),
        changes_per_lifetime: 3.0,
        redundancy: 1.0,
        msg_bits: cfg.protocol.event_msg_bits as f64,
    };
    let mut rng = DetRng::for_stream(cfg.seed, 0x0AC1E);
    let n = inputs.population.len();
    let mut dir = Directory::new();
    let mut ids = Vec::with_capacity(n);
    let mut pending = inputs.population.iter();
    let t = Instant::now();
    // Joins are sub-microsecond to a few microseconds: time blocks.
    let mut join_block_ns = Vec::new();
    while pending.len() > 0 {
        let block = pending.len().min(1_000);
        join_block_ns.push(block_ns(tr, "sim.directory.join", block as u64, |_| {
            let (spec, _) = pending.next().expect("block fits");
            let level = model.stable_level(n.max(2) as f64, spec.threshold_bps);
            dir.join(
                NodeId(spec.id_raw),
                rng.below(u32::MAX as u64) as u32,
                level,
                spec.threshold_bps,
                spec.bandwidth_bps,
            );
            ids.push(NodeId(spec.id_raw));
        }));
    }
    let build_s = t.elapsed().as_secs_f64();
    out.set("sim.directory.join_us", stats::mean(&join_block_ns) / 1e3);

    let net = &inputs.net;
    let processing = cfg.protocol.processing_delay_us;
    let mut audience: Vec<AudienceEntry> = Vec::new();
    let mut rmq = Rmq::new();
    let mut deliveries = 0u64;
    let t = Instant::now();
    for e in 0..events {
        let subject = if e % 2 == 0 {
            // A departure: the subject leaves, then the rest hear of it.
            let subject = ids.swap_remove(rng.below(ids.len() as u64) as usize);
            tr.time("sim.directory.leave", || dir.leave(subject));
            subject
        } else {
            let subject = NodeId(rng.next_u128());
            let s = tr.begin("sim.directory.join_one");
            dir.join(
                subject,
                rng.below(u32::MAX as u64) as u32,
                Level::TOP,
                1e6,
                1e8,
            );
            tr.end(s);
            ids.push(subject);
            subject
        };
        tr.time("sim.directory.collect_audience", || {
            dir.collect_audience(subject, &mut audience)
        });
        if audience.is_empty() {
            continue;
        }
        tr.time("sim.plan.rmq_build", || rmq.build(&audience));
        let root_idx = audience.iter().position(|a| a.level == 0).unwrap_or(0);
        let slots = dir.slots();
        let s = tr.begin("sim.plan.plan_event");
        plan_event(
            &audience,
            &mut rmq,
            root_idx,
            audience[root_idx].level,
            0,
            processing,
            |a, b| net.latency_us(slots[a as usize].addr, slots[b as usize].addr),
            |d| deliveries += black_box(d.at_us).min(1),
        );
        tr.end(s);
    }
    let events_s = t.elapsed().as_secs_f64();
    out.set("sim.directory.leave_us", mean_us(tr, "sim.directory.leave"));
    out.set(
        "sim.directory.collect_audience_us",
        mean_us(tr, "sim.directory.collect_audience"),
    );
    out.set("sim.plan.rmq_build_us", mean_us(tr, "sim.plan.rmq_build"));
    out.set("sim.plan.plan_event_us", mean_us(tr, "sim.plan.plan_event"));
    out.set(
        "sim.plan.deliveries_per_event",
        deliveries as f64 / events.max(1) as f64,
    );

    let stubs = net.stub_count();
    let mut sink = 0u64;
    let lookup_ns = block_ns(tr, "topology.latency_lookup", 1_000_000, |i| {
        let a = (i as u32).wrapping_mul(2654435761);
        sink = sink.wrapping_add(net.latency_us(a, a.rotate_left(13) ^ stubs));
    });
    black_box(sink);
    out.set("topology.latency_lookup_ns", lookup_ns);
    build_s + events_s
}
