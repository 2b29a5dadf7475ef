//! `fullsim_churn`: real `NodeMachine`s in `sim::FullSim` under
//! continuous churn.
//!
//! A unit joins the population one node per 100 ms over a uniform 20 ms
//! network, lets it settle (set-up), then runs simulated seconds in which
//! one node departs (alternating crash / graceful leave), one joins and
//! one changes its info. `core::node` timers (probe, expire, adapt),
//! `core::peer_list` and the sequential `des` scheduler dominate; no
//! codec, no cross-shard handoff. Unit of work: engine events of the
//! churn phase.

use super::churn::{host_us_per_sim_s, run_units, ChurnScale, ChurnScript, ChurnWorld};
use super::{population, protocol, Outcome, RunArgs, UNIFORM_LATENCY_US};
use crate::probes;
use crate::span::Tracer;
use crate::stats;
use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_sim::FullSim;
use peerwindow_topology::UniformNetwork;

/// Full or `--quick` sizes.
pub fn scale(quick: bool) -> ChurnScale {
    if quick {
        ChurnScale {
            nodes: 64,
            settle_s: 5,
            churn_s: 8,
        }
    } else {
        ChurnScale {
            nodes: 512,
            settle_s: 10,
            churn_s: 24,
        }
    }
}

/// A settled sim plus its churn script.
pub struct World {
    /// The simulation.
    pub sim: FullSim,
    /// Identities and thresholds: the settled population, then joiners.
    pop: Vec<(NodeId, f64)>,
    next_joiner: usize,
    script: ChurnScript,
}

/// Set-up: joins `scale.nodes` machines and settles them.
pub fn build(seed: u64, scale: &ChurnScale) -> World {
    let pop = population(seed, scale.nodes, scale.churn_s as usize);
    let mut sim = FullSim::new(
        protocol(),
        Box::new(UniformNetwork {
            latency_us: UNIFORM_LATENCY_US,
        }),
        seed,
    );
    sim.spawn_seed(pop[0].0, pop[0].1, Bytes::new());
    for &(id, threshold) in &pop[1..scale.nodes] {
        sim.run_for(100_000);
        sim.spawn_joiner(id, threshold, Bytes::new())
            .expect("the genesis node is alive");
    }
    sim.run_for(scale.settle_s * 1_000_000);
    World {
        sim,
        pop,
        next_joiner: scale.nodes,
        script: ChurnScript::new(seed, scale.nodes),
    }
}

impl ChurnWorld for World {
    fn churn_second(&mut self) {
        let s = self.script.next();
        if s.graceful {
            self.sim.leave_after(s.victim, 300_000);
        } else {
            self.sim.crash_after(s.victim, 300_000);
        }
        self.sim.set_info_after(s.info_target, 600_000, s.info);
        let (id, threshold) = self.pop[self.next_joiner];
        self.next_joiner += 1;
        if let Some(slot) = self.sim.spawn_joiner(id, threshold, Bytes::new()) {
            self.script.joined(slot);
        }
        self.sim.run_for(1_000_000);
    }

    fn processed(&self) -> u64 {
        self.sim.processed()
    }

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
        "sim.full.run_for",
        || build(args.seed, &scale),
        &mut out,
    );
    out.sizes
        .push(("fatal_joins", r.world.sim.log().fatals.len() as u64));

    if args.trace {
        let (p50, p95) = host_us_per_sim_s(tr, "sim.full.run_for");
        out.set("sim.full.host_us_per_sim_s.p50", p50);
        out.set("sim.full.host_us_per_sim_s.p95", p95);
        out.set("sim.full.events", r.unit_events as f64);
        out.set(
            "sim.full.host_ns_per_event",
            stats::median(&r.unit_wall_s) * 1e9 / r.unit_events.max(1) as f64,
        );
        out.set("bench.trace_overhead_pct", r.rates.trace_overhead_pct());
        // Inside `run_for` no bench-side span can reach: all of a traced
        // unit's churn is the sim's.
        out.set("bench.span_coverage_pct", 100.0);
        let machines: Vec<NodeMachine> = r
            .world
            .sim
            .machines()
            .filter(|(_, m)| m.is_active())
            .map(|(_, m)| m.clone())
            .collect();
        probes::node_handle(tr, &machines, r.world.sim.now().as_micros(), &mut out);
        probes::des_sched(tr, args.quick, &mut out);
    }
    out
}
