//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`manifest_json`] written to a file; a test keeps
//! the two identical.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (rates, accuracy).
    Higher,
    /// Smaller values are better (times, memory, error counts).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared workload.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The workload's unit of work (what `throughput_per_s` counts).
    pub unit_of_work: &'static str,
    /// Why the workload exists: the layers it loads and bypasses.
    pub why: &'static str,
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
pub struct MetricSpec {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit, printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The five workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "oracle_fig",
        unit_of_work: "state-change events",
        why: "figure 5-8 regeneration: sim::oracle over a transit-stub net; sim::plan, sim::directory and topology do the work, core::node and des::parallel none",
    },
    WorkloadSpec {
        name: "fullsim_churn",
        unit_of_work: "engine events",
        why: "real NodeMachines in sim::FullSim under join/crash/leave/info churn; core::node timers, core::peer_list and the sequential des scheduler dominate, no codec",
    },
    WorkloadSpec {
        name: "parallel_churn",
        unit_of_work: "engine events",
        why: "the same churn through sim::ParallelFullSim at 2 shards with 1% loss; cross-shard handoff, window barriers, the fault judge and RPC retries run only here",
    },
    WorkloadSpec {
        name: "node_loop",
        unit_of_work: "datagrams",
        why: "what one pwnode does per datagram: codec encode/decode and NodeMachine::handle of info-change multicasts; transport::codec and core::multicast dominate, no des, no timers",
    },
    WorkloadSpec {
        name: "query_serve",
        unit_of_work: "queries",
        why: "reads beside writes on the serving layer: PeerList ops, core::snapshot capture, apps::query prepare, indexed and bloom queries; refresh time counts against throughput",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports every one, from the
/// untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("list_accuracy", "ratio", Higher, 0.01),
];

/// Per-layer metrics: the traced run of every workload reports every
/// one; a layer the workload never enters reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("core.id.prefix_ops_ns", "ns", Lower),
    layer("core.peer_list.insert_ns", "ns", Lower),
    layer("core.peer_list.remove_ns", "ns", Lower),
    layer("core.peer_list.get_ns", "ns", Lower),
    layer("core.peer_list.update_info_ns", "ns", Lower),
    layer("core.peer_list.audience_members_us", "us", Lower),
    layer("core.multicast.plan_tree_us", "us", Lower),
    layer("core.multicast.forward_steps_us", "us", Lower),
    layer("core.node.handle_us.probe_timer", "us", Lower),
    layer("core.node.handle_us.adapt_timer", "us", Lower),
    layer("core.node.handle_us.refresh_timer", "us", Lower),
    layer("core.node.handle_us.expire_timer", "us", Lower),
    layer("core.node.handle_us.probe_msg", "us", Lower),
    layer("core.node.handle_us.multicast_msg", "us", Lower),
    layer("core.node.handle_us.download_msg", "us", Lower),
    layer("core.node.handle_us.change_info_cmd", "us", Lower),
    layer("core.node.clone_us", "us", Lower),
    layer("core.node.outputs_per_input", "count", Lower),
    layer("core.snapshot.capture_us", "us", Lower),
    layer("core.snapshot.publish_ns", "ns", Lower),
    layer("core.snapshot.load_ns", "ns", Lower),
    layer("core.snapshot.published", "count", Higher),
    layer("des.sched.resident_events_per_s", "1/s", Higher),
    layer("des.sched.ping_events_per_s", "1/s", Higher),
    layer("des.parallel.fanout_events_per_s.shards1", "1/s", Higher),
    layer("des.parallel.fanout_events_per_s.shards2", "1/s", Higher),
    layer("sim.directory.join_us", "us", Lower),
    layer("sim.directory.leave_us", "us", Lower),
    layer("sim.directory.collect_audience_us", "us", Lower),
    layer("sim.plan.rmq_build_us", "us", Lower),
    layer("sim.plan.plan_event_us", "us", Lower),
    layer("sim.plan.deliveries_per_event", "count", Lower),
    layer("sim.oracle.events", "count", Higher),
    layer("sim.oracle.deliveries", "count", Higher),
    layer("sim.oracle.multicast_delay_s", "s", Lower),
    layer("sim.full.host_us_per_sim_s.p50", "us", Lower),
    layer("sim.full.host_us_per_sim_s.p95", "us", Lower),
    layer("sim.full.events", "count", Higher),
    layer("sim.full.host_ns_per_event", "ns", Lower),
    layer("sim.parallel.host_us_per_sim_s.p50", "us", Lower),
    layer("sim.parallel.host_us_per_sim_s.p95", "us", Lower),
    layer("sim.parallel.events", "count", Higher),
    layer("sim.parallel.ratio_vs_1shard", "ratio", Higher),
    layer("topology.generate_s", "s", Lower),
    layer("topology.latency_build_s", "s", Lower),
    layer("topology.latency_lookup_ns", "ns", Lower),
    layer("workload.initial_population_ms", "ms", Lower),
    layer("workload.arrivals_ms", "ms", Lower),
    layer("faults.dropped", "count", Lower),
    layer("faults.duplicated", "count", Lower),
    layer("transport.codec.encode_ns", "ns", Lower),
    layer("transport.codec.decode_ns", "ns", Lower),
    layer("transport.codec.encode_us.download_reply", "us", Lower),
    layer("transport.codec.decode_us.download_reply", "us", Lower),
    layer("transport.codec.bytes_per_datagram", "B", Lower),
    layer("transport.codec.decode_errors", "count", Lower),
    layer("apps.query.prepare_ms", "ms", Lower),
    layer("apps.query.partners_eq_ns", "ns", Lower),
    layer("apps.query.k_lightest_ns", "ns", Lower),
    layer("apps.query.strongest_ns", "ns", Lower),
    layer("apps.query.holders_ms", "ms", Lower),
    layer("apps.query.holders_p50_ms", "ms", Lower),
    layer("apps.query.holders_p99_ms", "ms", Lower),
    layer("apps.query.refresh_p50_ms", "ms", Lower),
    layer("apps.query.refresh_p90_ms", "ms", Lower),
    layer("apps.query.decode_errors", "count", Lower),
    layer("apps.query.epochs_served", "count", Higher),
    layer("apps.bloom.contains_probe_ns", "ns", Lower),
    layer("apps.info.decode_ns", "ns", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.span_coverage_pct", "%", Higher),
    layer("bench.span_count", "count", Lower),
];

/// Looks a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable listing for `pwbench list`.
pub fn listing() -> String {
    let mut s = String::from("workloads (unit of work; why):\n");
    for w in WORKLOADS {
        let _ = writeln!(s, "  {:<16} {}; {}", w.name, w.unit_of_work, w.why);
    }
    s.push_str("end-to-end metrics (unit, better, bound as share of the parent's median):\n");
    for m in END_TO_END {
        let _ = writeln!(
            s,
            "  {:<44} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("per-layer metrics (unit, better), traced run only:\n");
    for m in PER_LAYER {
        let _ = writeln!(s, "  {:<44} {:<6} {}", m.name, m.unit, m.better.word());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "name {n} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
        }
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `pwbench list --json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
