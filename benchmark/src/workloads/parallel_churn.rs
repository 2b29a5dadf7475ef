//! `parallel_churn`: the `fullsim_churn` population and churn script
//! through `sim::ParallelFullSim` at 2 shards with 1 % datagram loss.
//!
//! Same protocol layers, used differently: cross-shard handoff, window
//! barriers at a 1 ms lookahead, the fault judge and the RPC retry path
//! run here and in no other workload. `min(2, nproc)` worker threads.
//! Unit of work: engine events of the churn phase.

use super::churn::{host_us_per_sim_s, run_units, ChurnScale, ChurnScript, ChurnWorld};
use super::{population, protocol, Outcome, RunArgs, UNIFORM_LATENCY_US};
use crate::probes;
use crate::span::Tracer;
use crate::stats;
use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::SimTime;
use peerwindow_sim::ParallelFullSim;
use std::time::Instant;

/// Full or `--quick` sizes.
fn scale(quick: bool) -> ChurnScale {
    if quick {
        ChurnScale {
            nodes: 64,
            settle_s: 5,
            churn_s: 8,
        }
    } else {
        ChurnScale {
            nodes: 512,
            settle_s: 8,
            churn_s: 20,
        }
    }
}

/// Window lookahead: the 1 ms lower bound on link latency.
const LOOKAHEAD_US: u64 = 1_000;
/// Uniform datagram loss.
const LOSS: f64 = 0.01;
/// Milliseconds between joins during set-up.
const JOIN_SPACING_MS: u64 = 100;

/// A settled sharded sim plus its churn script.
struct World {
    sim: ParallelFullSim,
    pop: Vec<(NodeId, f64)>,
    boot: Target,
    next_joiner: usize,
    script: ChurnScript,
    now: SimTime,
}

/// Set-up: scripts the joins up front and runs them to a settled state.
fn build(seed: u64, scale: &ChurnScale, shards: usize) -> World {
    let pop = population(seed, scale.nodes, scale.churn_s as usize);
    let mut sim = ParallelFullSim::new(
        shards,
        pop.len(),
        protocol(),
        UNIFORM_LATENCY_US,
        LOOKAHEAD_US,
        seed,
    );
    sim.set_workers(probes::workers());
    sim.set_loss(LOSS);
    sim.start_node(SimTime::ZERO, 0, pop[0].0, pop[0].1, Bytes::new(), None);
    // Every scripted joiner bootstraps off the genesis node, which never
    // departs.
    let boot = Target {
        id: pop[0].0,
        addr: Addr(0),
        level: Level::TOP,
    };
    for (k, &(id, threshold)) in pop.iter().enumerate().take(scale.nodes).skip(1) {
        sim.start_node(
            SimTime::from_millis(JOIN_SPACING_MS * k as u64),
            k as u32,
            id,
            threshold,
            Bytes::new(),
            Some(boot),
        );
    }
    let now =
        SimTime::from_millis(JOIN_SPACING_MS * scale.nodes as u64) + scale.settle_s * 1_000_000;
    sim.run_until(now);
    World {
        sim,
        pop,
        boot,
        next_joiner: scale.nodes,
        script: ChurnScript::new(seed, scale.nodes),
        now,
    }
}

impl ChurnWorld for World {
    fn churn_second(&mut self) {
        let s = self.script.next();
        let at = self.now + 300_000;
        if s.graceful {
            self.sim.command(at, s.victim, Command::Shutdown);
        } else {
            self.sim.crash(at, s.victim);
        }
        self.sim.command(
            self.now + 600_000,
            s.info_target,
            Command::ChangeInfo(s.info),
        );
        let actor = self.next_joiner as u32;
        let (id, threshold) = self.pop[self.next_joiner];
        self.next_joiner += 1;
        self.sim.start_node(
            self.now,
            actor,
            id,
            threshold,
            Bytes::new(),
            Some(self.boot),
        );
        self.script.joined(actor);
        self.now += 1_000_000;
        self.sim.run_until(self.now);
    }

    fn processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Shard-count-invariant.
    fn fingerprint(&self) -> u64 {
        self.sim.fingerprint()
    }

    fn accuracy(&self) -> (usize, usize, usize) {
        self.sim.accuracy()
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, tr: &mut Tracer) -> Outcome {
    let scale = scale(args.quick);
    let mut out = Outcome::default();
    let r = run_units(
        args,
        tr,
        &scale,
        "sim.parallel.run_until",
        || build(args.seed, &scale, 2),
        &mut out,
    );
    out.sizes.push(("shards", 2));
    out.sizes.push(("workers", probes::workers() as u64));

    // One more unit on a single shard must end with the same digest: the
    // same seed proves shard invariance as well as determinism.
    let span = tr.begin("bench.one_shard_unit");
    let mut one = build(args.seed, &scale, 1);
    let settled = one.processed();
    let t = Instant::now();
    for _ in 0..scale.churn_s {
        one.churn_second();
    }
    let one_wall = t.elapsed().as_secs_f64();
    tr.end(span);
    let one_digest = (one.processed(), one.fingerprint(), one.accuracy());
    out.check(
        "one_and_two_shards_agree",
        r.digest == one_digest,
        out.attempted,
        format!("{:?} vs {one_digest:?}", r.digest),
    );

    if args.trace {
        let (p50, p95) = host_us_per_sim_s(tr, "sim.parallel.run_until");
        out.set("sim.parallel.host_us_per_sim_s.p50", p50);
        out.set("sim.parallel.host_us_per_sim_s.p95", p95);
        out.set("sim.parallel.events", r.unit_events as f64);
        // Same script, same events on both sides.
        out.set(
            "sim.parallel.ratio_vs_1shard",
            stats::median(&r.rates.all()) / ((one.processed() - settled) as f64 / one_wall),
        );
        let faults = r.world.sim.fault_counters();
        out.set("faults.dropped", faults.dropped as f64);
        out.set("faults.duplicated", faults.duplicated as f64);
        out.set("bench.trace_overhead_pct", r.rates.trace_overhead_pct());
        out.set("bench.span_coverage_pct", 100.0);
        probes::des_parallel(tr, args.quick, &mut out);
    }
    out
}
