//! Oracle-mode simulation: the paper's §5 experiments at full scale.
//!
//! A single ground-truth [`Directory`] stands in for every node's correct
//! peer list (the paper's own memory trick); each event's multicast tree is
//! planned by [`Directory::plan`] on the directory's kept binary trie, with
//! per-hop latency from a [`NetworkModel`], and its traffic is charged as
//! it is planned; peer-list errors are accounted *time-weighted*: each
//! audience member's list is wrong about the subject from the event's
//! origin until its own delivery instant, so
//! `error_rate = Σ staleness / (window · Σ list sizes)` — exactly the
//! quantity figures 7/10/12 plot.
//!
//! Approximations relative to full fidelity (validated against the
//! full-fidelity machine simulation in `tests/full_vs_oracle.rs`):
//! deliveries are planned from the membership snapshot at the event's
//! origin (nodes departing during the ~25 s dissemination window —
//! ≈ 0.3 % of deliveries in the common configuration — are not re-routed),
//! and the joining download transfer is accounted as bulk bytes rather
//! than simulated hop by hop.

use crate::directory::{Charge, Directory};
use crate::report::{LevelRow, OracleReport};
use peerwindow_core::model::ModelParams;
use peerwindow_core::prelude::{Level, NodeId, Prefix, ProtocolConfig};
use peerwindow_des::{DetRng, Engine, Scheduler, SimTime, Simulation};
use peerwindow_metrics::StreamingStat;
use peerwindow_topology::{
    NetworkModel, Topology, TransitStubNetwork, TransitStubParams, UniformNetwork,
};
use peerwindow_workload::{ChurnConfig, NodeSpec};
use std::collections::BTreeMap;

/// Which latency model backs the run.
#[derive(Clone, Debug)]
pub enum NetworkConfig {
    /// Constant latency (fast; unit tests and sweeps).
    Uniform {
        /// One-way latency, µs.
        latency_us: u64,
    },
    /// Full transit-stub topology (§5.1).
    TransitStub {
        /// Generation parameters.
        params: TransitStubParams,
        /// Topology seed.
        seed: u64,
    },
}

/// Configuration of one oracle run.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Workload (population, lifetimes, bandwidths).
    pub churn: ChurnConfig,
    /// Protocol constants.
    pub protocol: ProtocolConfig,
    /// Latency model.
    pub network: NetworkConfig,
    /// Warm-up before measurement starts, seconds.
    pub warmup_s: f64,
    /// Measurement window, seconds.
    pub measure_s: f64,
    /// Level-adaptation tick interval, seconds.
    pub adapt_interval_s: f64,
    /// Metric sampling interval, seconds.
    pub sample_interval_s: f64,
    /// Fraction of departures that are announced (graceful) rather than
    /// silent. The paper's §4.1 machinery targets silent failures; real
    /// systems see a mixture. 0.0 (default) is the worst case: every
    /// leave must be detected by ring probing.
    pub graceful_fraction: f64,
    /// Master seed for protocol randomness (tops, detection phases).
    pub seed: u64,
    /// Extra scripted arrivals (flash crowds): `(at_s, how_many)` — that
    /// many fresh nodes join uniformly within one second of `at_s`.
    pub flash_crowds: Vec<(f64, usize)>,
}

impl OracleConfig {
    /// The paper's common configuration (§5.1) at population `n`, with a
    /// full transit-stub network.
    pub fn paper_common(n: usize, seed: u64) -> Self {
        OracleConfig {
            churn: ChurnConfig::paper_common(n, seed),
            protocol: ProtocolConfig::default(),
            network: NetworkConfig::TransitStub {
                params: TransitStubParams::default(),
                seed,
            },
            warmup_s: 30.0,
            measure_s: 120.0,
            adapt_interval_s: 60.0,
            sample_interval_s: 20.0,
            graceful_fraction: 0.0,
            seed,
            flash_crowds: Vec::new(),
        }
    }

    /// Same, but with a uniform-latency network — ~2× faster setup, used
    /// by sweeps where topology detail is not the variable under study.
    pub fn paper_common_uniform(n: usize, seed: u64) -> Self {
        OracleConfig {
            network: NetworkConfig::Uniform { latency_us: 80_000 },
            ..Self::paper_common(n, seed)
        }
    }

    fn model(&self) -> ModelParams {
        ModelParams {
            lifetime_s: self.churn.mean_lifetime_s(),
            changes_per_lifetime: 3.0,
            redundancy: 1.0,
            msg_bits: self.protocol.event_msg_bits as f64,
        }
    }
}

/// Simulation events (macro level: one per state change, not per hop).
enum Ev {
    Arrive(u32),
    Depart(NodeId),
    InfoChange(NodeId),
    AdaptTick,
    Sample,
}

/// Event kinds for internal accounting.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ChangeKind {
    Join,
    Leave,
    Info,
    Shift,
}

struct OracleSim<N> {
    cfg: OracleConfig,
    model: ModelParams,
    dir: Directory,
    net: N,
    rng: DetRng,
    arrivals: Vec<(f64, NodeSpec)>,
    // Measurement state.
    measure_start_us: u64,
    measure_end_us: u64,
    errsec_per_level: Vec<f64>,
    events: u64,
    deliveries: u64,
    depth_stat: StreamingStat,
    delay_stat: StreamingStat,
    level_shifts: u64,
    adapt_ticks: u64,
    /// Events initiated during the current adaptation window (drives the
    /// measured global event rate).
    events_this_window: u64,
    /// Measured events/s over the last adaptation window; 0 before the
    /// first tick (the analytic rate is used instead).
    measured_event_rate: f64,
    // Sampling accumulators.
    samples: u64,
    nodes_per_level: Vec<f64>,
    list_stats: Vec<StreamingStat>,
    sum_list_per_level: Vec<f64>,
    /// Level-shift transition counts by `(from, to)` level.
    shifts: BTreeMap<(u8, u8), u64>,
}

impl<N: NetworkModel> OracleSim<N> {
    fn in_measure(&self, t_us: u64) -> bool {
        (self.measure_start_us..self.measure_end_us).contains(&t_us)
    }

    fn grow_levels(&mut self, level: u8) {
        let l = level as usize;
        if self.errsec_per_level.len() <= l {
            self.errsec_per_level.resize(l + 1, 0.0);
            self.nodes_per_level.resize(l + 1, 0.0);
            self.list_stats.resize_with(l + 1, StreamingStat::new);
            self.sum_list_per_level.resize(l + 1, 0.0);
        }
    }

    /// Stable level for a node with the given budget — the §4.3 estimate:
    /// a top node reports its *measured* cost `W_T = R_total · i`, and the
    /// joiner takes `l = ceil(log2(W_T / W))`. Before the first adaptation
    /// window the analytic rate `3N/L` stands in for the measurement.
    fn stable_level(&self, threshold_bps: f64) -> Level {
        let r = if self.measured_event_rate > 0.0 {
            self.measured_event_rate
        } else {
            3.0 * self.dir.len().max(2) as f64 / self.model.lifetime_s
        };
        let cost_top = r * self.cfg.protocol.event_msg_bits as f64;
        if cost_top <= threshold_bps || threshold_bps <= 0.0 {
            Level::TOP
        } else {
            Level::new((cost_top / threshold_bps).log2().ceil().clamp(0.0, 128.0) as u8)
        }
    }

    /// Plans and accounts one multicast. `origin_us` is when the state
    /// changed (staleness is measured from here); `report_at_us` when a
    /// top node holds the event (origin + detection + report latency).
    fn multicast(&mut self, subject: NodeId, origin_us: u64, report_at_us: u64, kind: ChangeKind) {
        let Some(root) = self
            .dir
            .random_top_for(subject, |n| self.rng.below(n as u64) as usize)
        else {
            return; // singleton system: nobody to tell
        };
        let event_bits = self.cfg.protocol.event_msg_bits
            + match kind {
                ChangeKind::Info => 64, // small attached payload
                _ => 0,
            };
        let processing = self.cfg.protocol.processing_delay_us;
        let measuring = self.in_measure(origin_us);
        self.events_this_window += 1;
        if measuring {
            self.events += 1;
        }
        self.grow_levels(self.dir.max_level());
        // The report hop into the root is the first delivery.
        if measuring {
            let root_level = self.dir.get(root).expect("the root is live").level;
            self.errsec_per_level[root_level.value() as usize] +=
                (report_at_us - origin_us) as f64 / 1e6;
        }
        let charge = Charge {
            event_bits,
            ack_bits: self.cfg.protocol.ack_msg_bits,
            measuring,
        };
        let mut max_depth = 0u32;
        let mut last_at = report_at_us;
        let mut deliveries = 0u64;
        self.dir.plan(
            subject,
            root,
            report_at_us,
            processing,
            charge,
            |a, b| self.net.latency_us(a, b),
            |hop| {
                deliveries += 1;
                max_depth = max_depth.max(hop.depth);
                last_at = last_at.max(hop.at_us);
                if measuring {
                    // A float sum: it stays in delivery order.
                    self.errsec_per_level[hop.level as usize] +=
                        (hop.at_us - origin_us) as f64 / 1e6;
                }
            },
        );
        debug_assert_eq!(
            deliveries as usize,
            self.dir.audience_len(subject) - 1,
            "the tree must reach every member but the root once"
        );
        if measuring {
            self.deliveries += deliveries;
            self.depth_stat.push(max_depth as f64);
            self.delay_stat.push((last_at - origin_us) as f64 / 1e6);
        }
    }

    fn handle_arrive(&mut self, now: SimTime, idx: u32, sched: &mut Scheduler<'_, Ev>) {
        let spec = self.arrivals[idx as usize].1.clone();
        let id = NodeId(spec.id_raw);
        if self.dir.get(id).is_some() {
            return; // astronomically unlikely id collision
        }
        let level = self.stable_level(spec.threshold_bps);
        let addr = self.rng.below(u32::MAX as u64) as u32;
        self.grow_levels(level.value());
        self.dir
            .join(id, addr, level, spec.threshold_bps, spec.bandwidth_bps);
        // Join process delay before the join event reaches a top node:
        // find-top + level query + download round trips (~4 RTTs).
        let rtt = 2 * 80_000u64;
        let report_at = now.as_micros() + 4 * rtt;
        self.multicast(id, now.as_micros(), report_at, ChangeKind::Join);
        sched.schedule((spec.lifetime_s * 1e6) as u64, Ev::Depart(id));
        sched.schedule((spec.info_change_at_s * 1e6) as u64, Ev::InfoChange(id));
    }

    fn handle_depart(&mut self, now: SimTime, id: NodeId) {
        if self.dir.leave(id).is_none() {
            return;
        }
        let report_latency = 40_000 + self.rng.below(120_000); // reporter → top
        let report_at = if self.rng.next_f64() < self.cfg.graceful_fraction {
            // Announced departure: the leaver itself reports on its way out.
            now.as_micros() + report_latency
        } else {
            // §4.1 detection: the ring predecessor notices after a
            // probe-phase delay plus the probe retry timeouts, then
            // reports to a top node.
            let phase = self.rng.below(self.cfg.protocol.probe_interval_us);
            let timeouts = self.cfg.protocol.max_attempts as u64 * self.cfg.protocol.rpc_timeout_us;
            now.as_micros() + phase + timeouts + report_latency
        };
        self.multicast(id, now.as_micros(), report_at, ChangeKind::Leave);
    }

    fn handle_info_change(&mut self, now: SimTime, id: NodeId) {
        if self.dir.get(id).is_none() {
            return; // already departed (warm-start scheduling slack)
        }
        let report_latency = 40_000 + self.rng.below(120_000);
        self.multicast(
            id,
            now.as_micros(),
            now.as_micros() + report_latency,
            ChangeKind::Info,
        );
    }

    fn handle_adapt(&mut self, now: SimTime) {
        let window_s = self.cfg.adapt_interval_s;
        self.measured_event_rate = self.events_this_window as f64 / window_s;
        self.events_this_window = 0;
        let grow = self.cfg.protocol.grow_fraction;
        self.adapt_ticks += 1;
        let phase = self.adapt_ticks;
        // Collect decisions first (cannot mutate the directory mid-scan).
        // Nodes adapt on alternating ticks (their own timers would be
        // staggered; a synchronized global sweep amplifies cascades).
        let mut shifts: Vec<(NodeId, Level)> = Vec::new();
        let mut pressures: Vec<(u32, i8)> = Vec::new();
        for (idx, slot) in self.dir.slots().iter().enumerate() {
            if !slot.alive || !(idx as u64 + phase).is_multiple_of(2) {
                continue;
            }
            let bps = self.dir.traffic(idx as u32).rx_window_bits as f64 / window_s;
            let mut pressure = slot.pressure;
            if bps > slot.threshold_bps && slot.level != Level::MAX {
                pressure = pressure.max(0) + 1;
            } else if bps < slot.threshold_bps * grow && !slot.level.is_top() {
                pressure = pressure.min(0) - 1;
            } else {
                pressure = 0;
            }
            // Two consecutive same-direction windows before acting.
            if pressure >= 2 {
                shifts.push((slot.id, slot.level.lowered()));
                pressure = 0;
            } else if pressure <= -4 {
                // Raising is a luxury (it only spends spare budget), so it
                // demands twice the evidence a protective descent does —
                // this breaks the deep-level flap cycle.
                // Raising is capped at the part's top level (§4.3): there
                // is nobody to download a wider list from.
                if let Some((top_level, _)) = self.dir.part_of(slot.id) {
                    if slot.level.value() > top_level.value() {
                        shifts.push((slot.id, slot.level.raised()));
                    }
                }
                pressure = 0;
            }
            if pressure != slot.pressure {
                pressures.push((idx as u32, pressure));
            }
        }
        for (idx, pr) in pressures {
            self.dir.slot_mut(idx).pressure = pr;
        }
        // The report names and sorts the transitions; counting them
        // here allocates nothing.
        for (id, nl) in &shifts {
            if let Some(sd) = self.dir.get(*id) {
                *self
                    .shifts
                    .entry((sd.level.value(), nl.value()))
                    .or_default() += 1;
            }
        }
        for (id, new_level) in shifts {
            if self.dir.change_level(id, new_level).is_some() {
                self.grow_levels(new_level.value());
                if self.in_measure(now.as_micros()) {
                    self.level_shifts += 1;
                }
                let report_latency = 40_000 + self.rng.below(120_000);
                self.multicast(
                    id,
                    now.as_micros(),
                    now.as_micros() + report_latency,
                    ChangeKind::Shift,
                );
            }
        }
        self.dir.reset_windows();
    }

    fn handle_sample(&mut self) {
        self.samples += 1;
        let max_l = self.dir.max_level();
        self.grow_levels(max_l);
        for l in 0..=max_l {
            let n_l = self.dir.level_count(l);
            self.nodes_per_level[l as usize] += n_l as f64;
            if n_l == 0 {
                continue;
            }
            // Walk the level's groups (distinct eigenstrings).
            let ids = self.dir.level_prefix_ids(l, Prefix::EMPTY);
            let mut i = 0;
            let mut sum = 0.0;
            while i < ids.len() {
                let p = NodeId(ids[i]).prefix(l);
                let group_n = self.dir.count_level_prefix(l, p);
                let list = self.dir.count_prefix(p).saturating_sub(1) as f64;
                self.list_stats[l as usize].push(list);
                sum += list * group_n as f64;
                i += group_n;
            }
            self.sum_list_per_level[l as usize] += sum;
        }
    }

    fn report(&self) -> OracleReport {
        let measure_s = self.cfg.measure_s;
        let samples = self.samples.max(1) as f64;
        let n_total: f64 = self.nodes_per_level.iter().sum::<f64>() / samples;
        let mut rows = Vec::new();
        let probe_in_bps = (self.cfg.protocol.probe_msg_bits + self.cfg.protocol.ack_msg_bits)
            as f64
            / (self.cfg.protocol.probe_interval_us as f64 / 1e6);
        // Per-level (rx, tx, count) over live nodes, slots in storage order.
        let mut traffic = vec![(0.0, 0.0, 0.0); self.errsec_per_level.len()];
        for (slot, s) in self.dir.slots().iter().enumerate().filter(|(_, s)| s.alive) {
            let (rx, tx, cnt) = &mut traffic[s.level.value() as usize];
            let counters = self.dir.traffic(slot as u32);
            *rx += counters.rx_measure_bits as f64;
            *tx += counters.tx_measure_bits as f64;
            *cnt += 1.0;
        }
        for (l, &(rx, tx, cnt)) in traffic.iter().enumerate() {
            let nodes = self.nodes_per_level[l] / samples;
            if nodes < 0.5 {
                continue;
            }
            let sum_list = self.sum_list_per_level[l] / samples;
            let error_rate = if sum_list > 0.0 {
                self.errsec_per_level[l] / (measure_s * sum_list)
            } else {
                0.0
            };
            // Per-node mean traffic over live nodes currently at level l.
            let (in_bps, out_bps) = if cnt > 0.0 {
                (
                    rx / cnt / measure_s + probe_in_bps,
                    tx / cnt / measure_s + probe_in_bps,
                )
            } else {
                (0.0, 0.0)
            };
            let ls = &self.list_stats[l];
            rows.push(LevelRow {
                level: l as u8,
                nodes,
                node_fraction: if n_total > 0.0 { nodes / n_total } else { 0.0 },
                list_min: if ls.count() > 0 { ls.min() } else { 0.0 },
                list_mean: ls.mean(),
                list_max: if ls.count() > 0 { ls.max() } else { 0.0 },
                error_rate,
                in_bps,
                out_bps,
            });
        }
        // Sorted by name, so `10->11` comes before `2->3`.
        let mut shift_counters: Vec<(String, u64)> = self
            .shifts
            .iter()
            .map(|(&(from, to), &n)| (format!("oracle.shift.{from}->{to}"), n))
            .collect();
        shift_counters.sort_unstable();
        let total_err: f64 = self.errsec_per_level.iter().sum();
        let total_list: f64 = self.sum_list_per_level.iter().map(|s| s / samples).sum();
        OracleReport {
            rows,
            n_final: self.dir.len(),
            events: self.events,
            deliveries: self.deliveries,
            avg_error_rate: if total_list > 0.0 {
                total_err / (measure_s * total_list)
            } else {
                0.0
            },
            mean_tree_depth: self.depth_stat.mean(),
            max_tree_depth: self.depth_stat.max().max(0.0) as u32,
            mean_multicast_delay_s: self.delay_stat.mean(),
            level_shifts: self.level_shifts,
            // The oracle abstracts the network away entirely (§5 oracle
            // mode): no fault layer, nothing dropped or duplicated.
            dropped: 0,
            duplicated: 0,
            measure_s,
            shift_counters,
        }
    }
}

impl<N: NetworkModel> Simulation for OracleSim<N> {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::Arrive(i) => self.handle_arrive(now, i, sched),
            Ev::Depart(id) => self.handle_depart(now, id),
            Ev::InfoChange(id) => self.handle_info_change(now, id),
            Ev::AdaptTick => {
                self.handle_adapt(now);
                sched.schedule((self.cfg.adapt_interval_s * 1e6) as u64, Ev::AdaptTick);
            }
            Ev::Sample => {
                if self.in_measure(now.as_micros()) {
                    self.handle_sample();
                }
                sched.schedule((self.cfg.sample_interval_s * 1e6) as u64, Ev::Sample);
            }
        }
    }
}

/// Runs one oracle-mode simulation and returns its report.
pub fn run_oracle(cfg: OracleConfig) -> OracleReport {
    match cfg.network {
        NetworkConfig::Uniform { latency_us } => run(cfg, move || UniformNetwork { latency_us }),
        NetworkConfig::TransitStub { params, seed } => run(cfg, move || {
            TransitStubNetwork::build(&Topology::generate(params, seed))
        }),
    }
}

/// [`run_oracle`] over the network `build_net` makes. The network and the
/// warm-start population are pure and separately seeded, so they are made
/// side by side.
fn run<N: NetworkModel>(cfg: OracleConfig, build_net: impl FnOnce() -> N + Send) -> OracleReport {
    let model = cfg.model();
    let (net, population) = std::thread::scope(|s| {
        let net = s.spawn(build_net);
        let population = cfg.churn.initial_population();
        let net = net.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (net, population)
    });
    let duration_s = cfg.warmup_s + cfg.measure_s;
    let sim = OracleSim {
        model,
        net,
        rng: DetRng::for_stream(cfg.seed, 0xC0FFEE),
        arrivals: cfg.churn.arrivals(duration_s),
        measure_start_us: (cfg.warmup_s * 1e6) as u64,
        measure_end_us: (duration_s * 1e6) as u64,
        errsec_per_level: Vec::new(),
        events: 0,
        deliveries: 0,
        depth_stat: StreamingStat::new(),
        delay_stat: StreamingStat::new(),
        level_shifts: 0,
        adapt_ticks: 0,
        events_this_window: 0,
        measured_event_rate: 0.0,
        samples: 0,
        nodes_per_level: Vec::new(),
        list_stats: Vec::new(),
        sum_list_per_level: Vec::new(),
        shifts: BTreeMap::new(),
        dir: Directory::new(),
        cfg,
    };
    // Warm start: steady-state population at analytically stable levels.
    let mut engine = Engine::new(sim);
    {
        let n = population.len().max(2) as f64;
        let sim = engine.sim_mut();
        sim.dir.join_all(population.iter().map(|(spec, _)| {
            let level = sim.model.stable_level(n, spec.threshold_bps);
            let addr = sim.rng.below(u32::MAX as u64) as u32;
            let id = NodeId(spec.id_raw);
            (id, addr, level, spec.threshold_bps, spec.bandwidth_bps)
        }));
        sim.grow_levels(sim.dir.max_level());
    }
    // Schedule departures and residual info changes for the warm-start
    // population (a node whose mid-lifetime change already happened before
    // the snapshot does not change again).
    for (spec, residual) in &population {
        let id = NodeId(spec.id_raw);
        engine.schedule((residual * 1e6) as u64, Ev::Depart(id));
        let elapsed = spec.lifetime_s - residual;
        let change_in = spec.info_change_at_s - elapsed;
        if change_in > 0.0 {
            engine.schedule((change_in * 1e6) as u64, Ev::InfoChange(id));
        }
    }
    // Flash crowds: generate the scripted joiners with the same sampler
    // and splice them into the arrival list.
    {
        let sim = engine.sim_mut();
        let crowds = sim.cfg.flash_crowds.clone();
        for (at_s, count) in crowds {
            let mut crowd_cfg = sim.cfg.churn.clone();
            crowd_cfg.n = count.max(1);
            crowd_cfg.seed = sim.cfg.seed ^ (at_s.to_bits().rotate_left(17));
            for (k, (spec, _)) in crowd_cfg.initial_population().into_iter().enumerate() {
                let jitter = k as f64 / count.max(1) as f64;
                sim.arrivals.push((at_s + jitter, spec));
            }
        }
        sim.arrivals
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    }
    let arrival_count = engine.sim().arrivals.len();
    for i in 0..arrival_count {
        let at = (engine.sim().arrivals[i].0 * 1e6) as u64;
        engine.schedule(at, Ev::Arrive(i as u32));
    }
    let adapt_us = (engine.sim().cfg.adapt_interval_s * 1e6) as u64;
    let sample_us = (engine.sim().cfg.sample_interval_s * 1e6) as u64;
    engine.schedule(adapt_us, Ev::AdaptTick);
    engine.schedule(sample_us / 2, Ev::Sample);
    let end = SimTime((duration_s * 1e6) as u64);
    engine.run_until(end);
    engine.into_sim().report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(n: usize, seed: u64) -> OracleConfig {
        OracleConfig {
            warmup_s: 20.0,
            measure_s: 60.0,
            sample_interval_s: 10.0,
            ..OracleConfig::paper_common_uniform(n, seed)
        }
    }

    #[test]
    fn small_run_produces_sane_report() {
        let rep = run_oracle(tiny_cfg(2_000, 1));
        // Population stays near target.
        assert!(
            (1_800..=2_200).contains(&rep.n_final),
            "n = {}",
            rep.n_final
        );
        // Events flowed and were delivered.
        assert!(rep.events > 20, "events = {}", rep.events);
        assert!(
            rep.deliveries > rep.events,
            "deliveries = {}",
            rep.deliveries
        );
        // Rows exist and fractions sum to ≈ 1.
        let frac: f64 = rep.rows.iter().map(|r| r.node_fraction).sum();
        assert!((frac - 1.0).abs() < 0.05, "fractions sum to {frac}");
        // At n=2000 the level-0 maintenance cost is 3·2000·1000/8100 ≈
        // 740 bps, below every threshold floor? No: floor is 500 bps, so
        // weak nodes sit at level 1+; strong nodes at level 0.
        assert!(rep.level(0).is_some(), "no level-0 row");
        // Peer lists at level 0 cover (almost) the whole system.
        let l0 = rep.level(0).unwrap();
        assert!(l0.list_mean > 0.9 * rep.n_final as f64);
        // Error rate is small but nonzero, within an order of magnitude of
        // the paper's back-of-envelope delay/lifetime estimate.
        assert!(
            l0.error_rate > 1e-5 && l0.error_rate < 0.05,
            "err = {}",
            l0.error_rate
        );
        // Tree depth is logarithmic-ish.
        assert!(rep.mean_tree_depth > 2.0 && rep.max_tree_depth < 64);
    }

    #[test]
    fn graceful_leaves_cut_the_error_rate() {
        let base = run_oracle(tiny_cfg(2_000, 9));
        let mut cfg = tiny_cfg(2_000, 9);
        cfg.graceful_fraction = 1.0;
        let graceful = run_oracle(cfg);
        assert!(
            graceful.avg_error_rate < base.avg_error_rate,
            "graceful {} !< silent {}",
            graceful.avg_error_rate,
            base.avg_error_rate
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_oracle(tiny_cfg(500, 7));
        let b = run_oracle(tiny_cfg(500, 7));
        assert_eq!(a.events, b.events);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.n_final, b.n_final);
        assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
    }

    #[test]
    fn shorter_lifetimes_raise_error_rate_and_deepen_levels() {
        let base = run_oracle(tiny_cfg(2_000, 3));
        let mut fast = tiny_cfg(2_000, 3);
        fast.churn.lifetime_rate = 0.1;
        let fast = run_oracle(fast);
        assert!(
            fast.avg_error_rate > 2.0 * base.avg_error_rate,
            "fast churn error {} vs base {}",
            fast.avg_error_rate,
            base.avg_error_rate
        );
        // More levels occupied under fast churn (figure 11's shape).
        let base_levels = base.rows.len();
        let fast_levels = fast.rows.len();
        assert!(
            fast_levels >= base_levels,
            "levels: fast {fast_levels} vs base {base_levels}"
        );
        // Level-0 share shrinks under fast churn.
        let f0_base = base.level(0).map(|r| r.node_fraction).unwrap_or(0.0);
        let f0_fast = fast.level(0).map(|r| r.node_fraction).unwrap_or(0.0);
        assert!(
            f0_fast < f0_base,
            "level-0 share did not shrink: {f0_fast} vs {f0_base}"
        );
    }

    #[test]
    fn input_bandwidth_is_proportional_to_list_size() {
        // §5.1: "the input bandwidth is in proportion to the peer list
        // size … about 500 bps per 1000 pointers".
        let rep = run_oracle(tiny_cfg(3_000, 5));
        for r in rep
            .rows
            .iter()
            .filter(|r| r.nodes >= 10.0 && r.list_mean > 100.0)
        {
            let per_1000 = (r.in_bps - 0.0) / (r.list_mean / 1000.0);
            assert!(
                per_1000 > 100.0 && per_1000 < 2_000.0,
                "level {}: {per_1000} bps per 1000 pointers",
                r.level
            );
        }
    }
}
