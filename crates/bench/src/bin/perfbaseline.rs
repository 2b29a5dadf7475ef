//! Non-interactive perf baseline: runs the hot engine/planner workloads
//! once and writes a machine-readable `BENCH_PR<n>.json` at the repo root
//! (or `--out PATH`). Every PR that touches the simulation path appends a
//! new `BENCH_PR<n>.json`, so the perf trajectory of the repo is a set of
//! checked-in files rather than folklore.
//!
//! ```text
//! perfbaseline [--out PATH] [--quick] [--profile-out PATH]
//! ```
//!
//! Workloads (all in this one binary, so comparisons share a build):
//!
//! * `seq_ping_1m` — the `des/sequential_1M_events` chain (queue depth 1)
//!   on the sequential engine.
//! * `seq_resident_1m` — 1M events with 100,000 resident periodic timers
//!   (the queue shape of a 100k-node protocol run, where every node holds
//!   probe/refresh timers).
//! * `trace_resident_1m` — the same resident-timer workload, three ways:
//!   the trace layer *compiled out* ([`NoopTrace`] monomorphised away —
//!   the configuration an untraced build actually runs), runtime-disabled
//!   (`NodeTrace` with the enabled flag off — what a traced build pays
//!   when recording is off), and enabled with harness-style drains.
//!   `off_overhead_pct` compares the compiled-out path against the
//!   untraced engine run; a root test gates it under 2%.
//! * `parallel_fanout` — the sharded engine at 1/2/4/8 shards under both
//!   the modulo and the topology-affine shard maps. Each entry records
//!   the worker count actually used and `oversubscribed: true` when
//!   shards exceed host cores, so a 1-core host's fanout numbers can't
//!   masquerade as a scaling regression.
//! * `oracle_plan_100k` — oracle-mode multicast planning over a 100k-node
//!   directory (trees per second).
//! * `latency_matrix_build` — `TransitStubNetwork::build` wall time at the
//!   paper-scale 4800-stub topology (the key predates the gateway-factored
//!   table; no matrix is built any more).
//! * `metrics_overhead` — the 4-shard fanout with the engine's runtime
//!   metrics layer enabled vs. unmetered: what a profiled run pays for
//!   the per-window counters, histograms, and barrier-wait laps (a bench
//!   test gates it under 3%; compiled out it is exactly the unmetered
//!   build).
//! * `faults_zero_loss` — a full-fidelity protocol run with no fault
//!   model vs. an installed-but-empty `FaultPlan::reliable`: the cost of
//!   carrying the fault-injection layer on a clean network (the
//!   conditioner's no-active-rule fast path; must be noise-level — a
//!   bench test asserts it).
//!
//! The binary also profiles *itself*: each section runs under a
//! [`Profiler`] span, the per-section wall-clock breakdown lands in the
//! JSON as `self_profile`, and `--profile-out PATH` writes the metered
//! fanout runs' full [`RunReport`]s as JSONL for `pwstat` to render.

use peerwindow_des::{
    Engine, ModuloShardMap, Outbox, ParallelEngine, Scheduler, ShardLogic, ShardMap, SimTime,
    Simulation,
};
use peerwindow_metrics::runtime::{Profiler, RunReport};
use peerwindow_sim::StubAffineShardMap;
use peerwindow_topology::{NetworkModel, Topology, TransitStubNetwork, TransitStubParams};
use peerwindow_trace::{CauseId, NodeTrace, NoopTrace, TraceEventKind, TraceRecord, TraceSink};
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------- sequential

/// The `des/sequential_1M_events` workload: one self-perpetuating event.
struct Ping {
    left: u64,
}

impl Simulation for Ping {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(100, ev.wrapping_add(1));
        }
    }
}

/// Per-actor timer period: spread over [500, 10 500) µs so pops interleave
/// actors and the queue order churns (the adversarial case for a heap).
fn period_us(actor: u32) -> u64 {
    500 + (actor as u64).wrapping_mul(7919) % 10_000
}

/// Best of `n` runs: single-shot numbers on a shared host swing ±20%
/// when a neighbour steals the core, and the BENCH ratios (off vs plain,
/// metered vs unmetered) must compare unloaded speeds, not scheduler luck.
fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(0.0, f64::max)
}

/// `resident` periodic timers, `events` reschedules: the queue holds
/// `resident` entries for the whole run.
struct ResidentTimers {
    left: u64,
}

impl Simulation for ResidentTimers {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, actor: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(period_us(actor), actor);
        }
    }
}

/// Runs the ping chain.
fn seq_ping(events: u64) -> f64 {
    let mut e = Engine::new(Ping { left: events });
    e.schedule(0, 1);
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(e.stats().processed, events + 1);
    e.stats().processed as f64 / secs
}

/// Runs the resident-timer workload.
fn seq_resident(resident: u32, events: u64) -> f64 {
    let mut e = Engine::new(ResidentTimers { left: events });
    for a in 0..resident {
        e.schedule(period_us(a), a);
    }
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(e.stats().processed, events + resident as u64);
    e.stats().processed as f64 / secs
}

/// Resident-timer workload generic over the trace sink, so the
/// `NoopTrace` instantiation measures the genuinely compiled-out path —
/// after monomorphisation the handler below contains no trace code at
/// all — while the `NodeTrace` instantiation measures the carried layer
/// (runtime-disabled or enabled).
struct TracedResident<T: TraceSink> {
    left: u64,
    trace: T,
    drained: Vec<TraceRecord>,
}

impl<T: TraceSink> Simulation for TracedResident<T> {
    type Event = u32;
    fn handle(&mut self, now: SimTime, actor: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(period_us(actor), actor);
        }
        // One guard for the whole trace block: `ACTIVE` is a constant, so
        // the `NoopTrace` instantiation deletes the block outright; a
        // runtime-disabled `NodeTrace` pays one predictable branch — the
        // same shape as `NodeMachine::tr` in `crates/core`.
        if T::ACTIVE && self.trace.recording() {
            self.trace.set_now(now.as_micros());
            self.trace
                .emit_with(0, CauseId::NONE, || TraceEventKind::ProbeSent {
                    target: actor as u128,
                });
            self.trace.drain_into(&mut self.drained);
            if self.drained.len() >= 65_536 {
                self.drained.clear();
            }
        }
    }
}

fn traced_resident<T: TraceSink>(resident: u32, events: u64, trace: T) -> f64 {
    let mut e = Engine::new(TracedResident {
        left: events,
        trace,
        drained: Vec::new(),
    });
    for a in 0..resident {
        e.schedule(period_us(a), a);
    }
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(e.stats().processed, events + resident as u64);
    e.stats().processed as f64 / secs
}

// ------------------------------------------------------------------ parallel

/// The `des/parallel_fanout` workload from `benches/engine.rs`: each event
/// fans out to two pseudo-random actors until its hop budget runs out.
struct Fanout {
    actors: u32,
    count: u64,
}

impl ShardLogic for Fanout {
    type Msg = u32;
    fn handle(&mut self, _now: SimTime, _actor: u32, hops: u32, out: &mut Outbox<u32>) {
        self.count += 1;
        if hops > 0 {
            let a = (self.count as u32).wrapping_mul(2654435761) % self.actors;
            let b = (self.count as u32).wrapping_mul(40503) % self.actors;
            out.send(1_000, a, hops - 1);
            out.send(1_500, b, hops - 1);
        }
    }
    fn fingerprint(&self) -> u64 {
        self.count
    }
}

/// Returns (events/sec, events processed, workers used).
fn parallel_fanout<M: ShardMap + Clone>(shards: usize, hops: u32, map: M) -> (f64, u64, usize) {
    let logics: Vec<Fanout> = (0..shards)
        .map(|_| Fanout {
            actors: 256,
            count: 0,
        })
        .collect();
    let mut e = ParallelEngine::with_map(logics, 1_000, map);
    for i in 0..8 {
        e.schedule(SimTime(0), i, hops);
    }
    let workers = e.workers();
    let t = Instant::now();
    e.run_until(SimTime::from_secs(600));
    let secs = t.elapsed().as_secs_f64();
    let processed = e.processed();
    (processed as f64 / secs, processed, workers)
}

/// Like [`parallel_fanout`], with the engine's runtime metrics enabled;
/// also returns the wall-clock attribution report. With the
/// `runtime-metrics` feature compiled out the report is empty and the
/// run is byte-for-byte the unmetered engine.
fn parallel_fanout_metered<M: ShardMap + Clone>(
    shards: usize,
    hops: u32,
    map: M,
    name: &str,
) -> (f64, u64, usize, RunReport) {
    let logics: Vec<Fanout> = (0..shards)
        .map(|_| Fanout {
            actors: 256,
            count: 0,
        })
        .collect();
    let mut e = ParallelEngine::with_map(logics, 1_000, map);
    e.set_metrics_enabled(true);
    for i in 0..8 {
        e.schedule(SimTime(0), i, hops);
    }
    let workers = e.workers();
    let t = Instant::now();
    e.run_until(SimTime::from_secs(600));
    let secs = t.elapsed().as_secs_f64();
    let processed = e.processed();
    let report = e.metrics_report(name);
    (processed as f64 / secs, processed, workers, report)
}

// -------------------------------------------------------------------- faults

/// A full-fidelity protocol run (joins, probes, multicasts) over a
/// uniform network; `reliable_plan` installs `FaultPlan::reliable` so
/// every datagram takes the conditioner's fast path, `false` leaves the
/// fault layer uninstalled. Returns events per second.
fn full_sim_run(nodes: u32, horizon_s: u64, reliable_plan: bool) -> f64 {
    use bytes::Bytes;
    use peerwindow_core::prelude::*;
    use peerwindow_faults::FaultPlan;
    use peerwindow_sim::FullSim;
    use peerwindow_topology::UniformNetwork;
    let protocol = ProtocolConfig {
        probe_interval_us: 2_000_000,
        rpc_timeout_us: 400_000,
        processing_delay_us: 10_000,
        bandwidth_window_us: 8_000_000,
        ..ProtocolConfig::default()
    };
    let mut sim = FullSim::new(
        protocol,
        Box::new(UniformNetwork { latency_us: 20_000 }),
        13,
    );
    if reliable_plan {
        sim.set_fault_plan(FaultPlan::reliable(13));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    sim.spawn_seed(
        peerwindow_core::prelude::NodeId(rng.gen()),
        1e9,
        Bytes::new(),
    );
    for _ in 1..nodes {
        sim.run_for(300_000);
        let _ = sim.spawn_joiner(NodeId(rng.gen()), 1e9, Bytes::new());
    }
    let t = Instant::now();
    sim.run_until(peerwindow_des::SimTime::from_secs(horizon_s));
    let secs = t.elapsed().as_secs_f64();
    sim.processed() as f64 / secs
}

// -------------------------------------------------------------------- oracle

fn oracle_plan(n: usize, trees: u32) -> f64 {
    use peerwindow_core::prelude::*;
    use peerwindow_sim::plan::{plan_event, Rmq};
    use peerwindow_sim::Directory;
    let mut dir = Directory::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    for i in 0..n {
        dir.join(
            NodeId(rng.gen()),
            i as u32,
            Level::new(rng.gen_range(0..6)),
            500.0,
            1e6,
        );
    }
    let mut audience = Vec::new();
    let mut rmq = Rmq::new();
    let mut sink = 0u64;
    let t = Instant::now();
    for _ in 0..trees {
        let subject = NodeId(rng.gen());
        dir.collect_audience(subject, &mut audience);
        if audience.is_empty() {
            continue;
        }
        let root_idx = audience.iter().position(|e| e.level == 0).unwrap_or(0);
        plan_event(
            &audience,
            &mut rmq,
            root_idx,
            audience[root_idx].level,
            0,
            1_000_000,
            |_, _| 80_000,
            |d| sink = sink.wrapping_add(d.at_us),
        );
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    trees as f64 / secs
}

// ---------------------------------------------------------------------- json

/// Minimal JSON emitter (the workspace's `serde_json` is an offline stub).
struct Json {
    out: String,
    depth: usize,
    need_comma: bool,
}

impl Json {
    fn new() -> Self {
        Json {
            out: String::new(),
            depth: 0,
            need_comma: false,
        }
    }
    fn pad(&mut self) {
        if self.need_comma {
            self.out.push(',');
        }
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
    fn open(&mut self, key: Option<&str>) {
        self.pad();
        if let Some(k) = key {
            let _ = write!(self.out, "\"{k}\": ");
        }
        self.out.push('{');
        self.depth += 1;
        self.need_comma = false;
    }
    fn close(&mut self) {
        self.depth -= 1;
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
        self.out.push('}');
        self.need_comma = true;
    }
    fn num(&mut self, key: &str, v: f64) {
        self.pad();
        let _ = write!(self.out, "\"{key}\": {v:.1}");
        self.need_comma = true;
    }
    fn num3(&mut self, key: &str, v: f64) {
        self.pad();
        let _ = write!(self.out, "\"{key}\": {v:.3}");
        self.need_comma = true;
    }
    fn int(&mut self, key: &str, v: u64) {
        self.pad();
        let _ = write!(self.out, "\"{key}\": {v}");
        self.need_comma = true;
    }
    fn bool(&mut self, key: &str, v: bool) {
        self.pad();
        let _ = write!(self.out, "\"{key}\": {v}");
        self.need_comma = true;
    }
    fn str(&mut self, key: &str, v: &str) {
        self.pad();
        let _ = write!(self.out, "\"{key}\": \"{v}\"");
        self.need_comma = true;
    }
    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

// ----------------------------------------------------------------------- main

fn main() {
    let usage = "usage: perfbaseline [--out PATH] [--quick] [--profile-out PATH]";
    let mut out_path = String::from("BENCH_PR8.json");
    let mut profile_out: Option<String> = None;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("{usage} (--out takes a path)");
                    std::process::exit(2);
                }
            },
            "--profile-out" => match it.next() {
                Some(p) => profile_out = Some(p),
                None => {
                    eprintln!("{usage} (--profile-out takes a path)");
                    std::process::exit(2);
                }
            },
            "--quick" => quick = true,
            other => {
                eprintln!("{usage} (unknown arg {other})");
                std::process::exit(2);
            }
        }
    }
    let events: u64 = if quick { 100_000 } else { 1_000_000 };
    let resident: u32 = if quick { 10_000 } else { 100_000 };
    let trees: u32 = if quick { 200 } else { 2_000 };
    let hops: u32 = if quick { 12 } else { 15 };

    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    eprintln!("host parallelism: {parallelism}");

    let mut j = Json::new();
    j.open(None);
    j.str("generated_by", "perfbaseline");
    j.int("pr", 8);
    j.str("mode", if quick { "quick" } else { "full" });
    j.open(Some("host"));
    j.int("parallelism", parallelism as u64);
    j.close();
    j.open(Some("benches"));

    let tries = if quick { 1 } else { 3 };
    // Self-profiling: every section below runs under a span, so the JSON
    // carries its own wall-clock breakdown (`self_profile`).
    let prof = Profiler::new();

    let sp = prof.span("sequential");
    // Sequential: chain (queue depth 1) and resident-timer (deep queue).
    seq_ping(events); // warm up caches and the allocator
    let eps = best_of(tries, || seq_ping(events));
    eprintln!("seq_ping_1m        {eps:>12.0} ev/s");
    j.open(Some("seq_ping_1m"));
    j.int("events", events);
    j.num("events_per_sec", eps);
    j.close();

    let eps = best_of(tries, || seq_resident(resident, events));
    eprintln!("seq_resident_1m    {eps:>12.0} ev/s");
    j.open(Some("seq_resident_1m"));
    j.int("events", events);
    j.int("resident_timers", resident as u64);
    j.num("events_per_sec", eps);
    j.close();
    drop(sp);

    let sp = prof.span("trace_overhead");
    // Tracing overhead on the same resident-timer shape. `off` is the
    // compiled-out NoopTrace instantiation — overhead vs. an untraced run
    // is what an untraced build pays for the trace layer existing: it
    // should be indistinguishable from noise. The baseline is re-measured
    // here, interleaved with the traced configurations, so host-load
    // drift between sections cannot masquerade as overhead.
    let mut base = 0f64;
    let mut off = 0f64;
    let mut disabled = 0f64;
    let mut on = 0f64;
    for _ in 0..tries {
        base = base.max(seq_resident(resident, events));
        off = off.max(traced_resident(resident, events, NoopTrace::new(1)));
        disabled = disabled.max(traced_resident(resident, events, NodeTrace::new(1)));
        on = on.max({
            let mut t = NodeTrace::new(1);
            t.set_enabled(true);
            traced_resident(resident, events, t)
        });
    }
    eprintln!(
        "trace_resident_1m  off {off:>12.0}  disabled {disabled:>12.0}  on {on:>12.0} ev/s   off-overhead {:+.2}%",
        (base / off - 1.0) * 100.0
    );
    j.open(Some("trace_resident_1m"));
    j.int("events", events);
    j.int("resident_timers", resident as u64);
    j.num("untraced_events_per_sec", base);
    j.num("off_events_per_sec", off);
    j.num("runtime_disabled_events_per_sec", disabled);
    j.num("on_events_per_sec", on);
    j.num3("off_overhead_pct", (base / off - 1.0) * 100.0);
    j.num3(
        "runtime_disabled_overhead_pct",
        (base / disabled - 1.0) * 100.0,
    );
    j.num3("on_overhead_pct", (base / on - 1.0) * 100.0);
    j.close();
    drop(sp);

    let sp = prof.span("parallel_fanout");
    // Parallel fanout under both shard maps. Entries where shards exceed
    // host cores are flagged: their throughput measures oversubscription,
    // not the engine's scaling.
    let topo = Topology::generate(TransitStubParams::small(), 11);
    let net = TransitStubNetwork::build(&topo);
    let affine = StubAffineShardMap::new(&net);
    let metrics_active = peerwindow_des::runtime_metrics_active();
    let mut profile_reports: Vec<RunReport> = Vec::new();
    for (name, run) in [
        ("parallel_fanout_modulo", None),
        ("parallel_fanout_stub_affine", Some(affine)),
    ] {
        j.open(Some(name));
        for shards in [1usize, 2, 4, 8] {
            let (eps, processed, workers) = match run {
                None => parallel_fanout(shards, hops, ModuloShardMap),
                Some(m) => parallel_fanout(shards, hops, m),
            };
            let over = shards > parallelism;
            eprintln!(
                "{name:<28} {shards} shards ({workers} workers{}) {eps:>12.0} ev/s ({processed} events)",
                if over { ", oversubscribed" } else { "" }
            );
            j.open(Some(&format!("shards_{shards}")));
            j.num("events_per_sec", eps);
            j.int("workers", workers as u64);
            j.bool("oversubscribed", over);
            // Metered rerun (modulo map only): where did the wall-clock
            // go? Each entry carries grouped attribution fractions
            // (they sum to 1 by construction — laps partition the
            // run), and the full report goes to `--profile-out`.
            if run.is_none() && metrics_active {
                let (meps, _, _, report) = parallel_fanout_metered(
                    shards,
                    hops,
                    ModuloShardMap,
                    &format!("fanout_shards_{shards}"),
                );
                j.num("metered_events_per_sec", meps);
                for (group, frac) in report.attribution() {
                    j.num3(&format!("{group}_frac"), frac);
                }
                eprintln!(
                    "{:<28} {shards} shards metered {meps:>12.0} ev/s   barrier {:.0}%  execute {:.0}%  handoff {:.0}%",
                    "", report.frac("barrier_wait") * 100.0,
                    report.frac("execute") * 100.0,
                    report.frac("handoff") * 100.0,
                );
                profile_reports.push(report);
            }
            j.close();
        }
        j.close();
    }

    // Metrics-layer overhead at 4 shards: enabled vs. unmetered,
    // interleaved best-of so host-load drift cancels. Compiled out, the
    // metered engine IS the unmetered engine (Noop sink), so the entry
    // then measures pure noise.
    let mut un = 0f64;
    let mut met = 0f64;
    for _ in 0..tries.max(2) {
        un = un.max(parallel_fanout(4, hops, ModuloShardMap).0);
        met = met.max(parallel_fanout_metered(4, hops, ModuloShardMap, "overhead").0);
    }
    eprintln!(
        "metrics_overhead   unmetered {un:>12.0} ev/s   metered {met:>12.0} ev/s   overhead {:+.2}%",
        (un / met - 1.0) * 100.0
    );
    j.open(Some("metrics_overhead"));
    j.bool("runtime_metrics_active", metrics_active);
    j.int("shards", 4);
    j.num("unmetered_events_per_sec", un);
    j.num("metered_events_per_sec", met);
    j.num3("enabled_overhead_pct", (un / met - 1.0) * 100.0);
    j.close();
    drop(sp);

    let sp = prof.span("oracle_plan");
    // Oracle planner throughput at the paper's 100k scale.
    let tps = oracle_plan(if quick { 10_000 } else { 100_000 }, trees);
    eprintln!("oracle_plan        {tps:>12.0} trees/s");
    j.open(Some("oracle_plan_100k"));
    j.int("directory_nodes", if quick { 10_000 } else { 100_000 });
    j.num("trees_per_sec", tps);
    j.close();
    drop(sp);

    let sp = prof.span("faults");
    // Fault-layer overhead on a clean network: uninstalled vs. an
    // installed-but-ruleless plan (the per-send fast path).
    let fnodes = if quick { 32 } else { 64 };
    let fhorizon = if quick { 120 } else { 600 };
    let without = full_sim_run(fnodes, fhorizon, false);
    let with = full_sim_run(fnodes, fhorizon, true);
    eprintln!(
        "faults_zero_loss   none  {without:>12.0} ev/s   plan {with:>12.0} ev/s   overhead {:+.2}%",
        (without / with - 1.0) * 100.0
    );
    j.open(Some("faults_zero_loss"));
    j.int("nodes", fnodes as u64);
    j.int("horizon_s", fhorizon);
    j.num("no_model_events_per_sec", without);
    j.num("reliable_plan_events_per_sec", with);
    j.num3("overhead_pct", (without / with - 1.0) * 100.0);
    j.close();
    drop(sp);

    let sp = prof.span("latency_matrix");
    // Latency-model build at the paper-scale 4800-stub topology.
    let params = if quick {
        TransitStubParams::small()
    } else {
        TransitStubParams::default()
    };
    let stubs = params.stub_count() as u64;
    let topo = Topology::generate(params, 2);
    let t = Instant::now();
    let net = TransitStubNetwork::build(&topo);
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(net.latency_us(0, stubs as u32 / 2));
    eprintln!("latency_matrix     {stubs} stubs built in {secs:.2}s");
    j.open(Some("latency_matrix_build"));
    j.int("stubs", stubs);
    j.num3("seconds", secs);
    j.close();
    drop(sp);

    j.close(); // benches

    // Where this binary itself spent its wall-clock, per section.
    let total_ns = prof.total_ns().max(1);
    j.open(Some("self_profile"));
    for (section, ns) in prof.report() {
        eprintln!(
            "self_profile       {section:<16} {:>8.2}s  ({:.0}%)",
            ns as f64 / 1e9,
            ns as f64 / total_ns as f64 * 100.0
        );
        j.open(Some(&section));
        j.num3("seconds", ns as f64 / 1e9);
        j.num3("frac", ns as f64 / total_ns as f64);
        j.close();
    }
    j.close(); // self_profile

    j.close(); // root
    let json = j.finish();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    // The metered fanout runs' full reports, as JSONL for `pwstat`.
    if let Some(path) = profile_out {
        let mut jsonl = String::new();
        for r in &profile_reports {
            jsonl.push_str(&r.to_jsonl());
        }
        if let Err(e) = std::fs::write(&path, &jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {path} ({} report{})",
            profile_reports.len(),
            if profile_reports.len() == 1 { "" } else { "s" }
        );
    }
}
