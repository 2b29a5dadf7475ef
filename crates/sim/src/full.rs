//! Full-fidelity simulation: every node runs the real sans-IO
//! [`NodeMachine`] over the discrete-event engine.
//!
//! This is the ground-truth validation substrate for oracle mode (and the
//! embedding example for real deployments): joins execute the actual §4.3
//! four-step process, failures are detected by actual probe timeouts, and
//! multicast flows hop by hop with acknowledgements and redirection.
//! Memory is O(Σ peer-list sizes), so use it for populations up to a few
//! thousand; the oracle mode covers the 100,000-node experiments.
//!
//! Events sit on the sequential engine's `(time, FIFO)` binary heap
//! (`peerwindow_des::EventQueue`). The protocol step itself is
//! [`crate::world`]'s, shared with [`crate::parallel_full`], which shards
//! the same world across a `ParallelEngine` for multi-core runs. What is
//! this harness's own: nodes spawn synchronously off a random live
//! bootstrap, departed machines are reaped from their slots, and the
//! digest is order-sensitive.

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::{DetRng, Engine, Scheduler, SimTime, Simulation};
use peerwindow_faults::{FaultCounters, FaultPlan};
use peerwindow_topology::NetworkModel;
use peerwindow_workload::NodeSpec;
// BTreeMap, not HashMap: `spawn_joiner` picks a bootstrap by *iterating*
// this map, so its order must be a pure function of the membership or two
// identically-seeded runs bootstrap off different nodes and diverge.
use std::collections::BTreeMap;
use std::iter::once;

pub use crate::world::FullLog;
use crate::world::{self, Event, World};

struct FullHost {
    world: World<Box<dyn NetworkModel>>,
    /// Ground truth: id → slot for *live* nodes (crashed nodes removed at
    /// crash time; gracefully-left at shutdown time).
    live: BTreeMap<NodeId, u32>,
    rng: DetRng,
    /// Harness seed, kept so the `set_loss` shim can derive a plan seed.
    seed: u64,
    /// Message counters by class, folded from the trace records when
    /// sampled or taken; gauges are refreshed by
    /// [`FullSim::sample_metrics`].
    #[cfg(feature = "trace")]
    registry: peerwindow_trace::CounterRegistry,
    /// How many of the world's buffered records `registry` has counted.
    #[cfg(feature = "trace")]
    folded: usize,
}

impl FullHost {
    /// One world step plus the ground-truth bookkeeping around it.
    fn step(&mut self, now_us: u64, event: Event, emit: impl FnMut(u64, Event)) {
        // A graceful leaver stays in its slot to drain its departure
        // announcement, but it leaves `live` at once: it has announced
        // departure, so ground truth no longer counts it.
        let leaver = match event {
            Event::Cmd {
                actor,
                cmd: Command::Shutdown,
            } => self.world.machine(actor).map(NodeMachine::id),
            _ => None,
        };
        let gone = self.world.handle(now_us, event, emit);
        for id in leaver.into_iter().chain(gone) {
            self.live.remove(&id);
        }
    }

    /// Flushes the machines' trace buffers and counts the message records
    /// not yet counted into the registry.
    #[cfg(feature = "trace")]
    fn fold_messages(&mut self) {
        let log = self.world.flush_trace();
        for r in &log[self.folded..] {
            if let peerwindow_trace::TraceEventKind::MsgSend { class, bits, .. } = r.kind {
                self.registry.add(&format!("msgs.{}", class.name()), 1);
                self.registry.add(&format!("bits.{}", class.name()), bits);
            }
        }
        self.folded = log.len();
    }
}

impl Simulation for FullHost {
    type Event = Event;
    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        self.step(now.as_micros(), event, |delay_us, e| {
            sched.schedule(delay_us, e)
        });
    }
}

/// A full-fidelity simulation harness.
pub struct FullSim {
    engine: Engine<FullHost>,
}

impl FullSim {
    /// Creates an empty world.
    pub fn new(protocol: ProtocolConfig, net: Box<dyn NetworkModel>, seed: u64) -> Self {
        FullSim {
            engine: Engine::new(FullHost {
                world: World::new(protocol, net, 0, true),
                live: BTreeMap::new(),
                rng: DetRng::for_stream(seed, 0xF00D),
                seed,
                #[cfg(feature = "trace")]
                registry: peerwindow_trace::CounterRegistry::new(),
                #[cfg(feature = "trace")]
                folded: 0,
            }),
        }
    }

    fn world(&self) -> &World<Box<dyn NetworkModel>> {
        &self.engine.sim().world
    }

    fn world_mut(&mut self) -> &mut World<Box<dyn NetworkModel>> {
        &mut self.engine.sim_mut().world
    }

    /// Turns structured tracing on for every current and future machine.
    /// Records emitted by a joiner's *constructor* (its initial FindTop)
    /// predate the machine entering the world and are not captured.
    #[cfg(feature = "trace")]
    pub fn enable_tracing(&mut self, on: bool) {
        world::enable_tracing(once(self.world_mut()), on);
    }

    /// Turns lock-free snapshot publication on for every current and
    /// future machine (the serving layer): each machine's peer list is
    /// mirrored into a per-slot [`Published`] cell after every handled
    /// event, generation-gated so unchanged lists cost one integer
    /// compare. Returns the directory observers resolve readers from.
    ///
    /// Publication is pure observation — the simulation outcome
    /// (fingerprints included) is identical with snapshots on or off.
    pub fn enable_snapshots(&mut self) -> std::sync::Arc<SnapshotDirectory> {
        let now_us = self.engine.now().as_micros();
        world::enable_snapshots(once(self.world_mut()), now_us)
    }

    /// A lock-free reader over `slot`'s published peer-list snapshots.
    /// `None` until [`FullSim::enable_snapshots`] has run and the slot
    /// has published at least once.
    pub fn snapshot_reader(&self, slot: u32) -> Option<SnapshotReader> {
        world::snapshot_reader(once(self.world()), slot)
    }

    /// Total snapshots published so far (0 when publication is off).
    pub fn snapshots_published(&self) -> u64 {
        world::snapshots_published(once(self.world()))
    }

    /// Flushes every machine's buffer and returns the collected records
    /// in canonical `(at_us, node, seq)` order, clearing the world log.
    #[cfg(feature = "trace")]
    pub fn take_trace(&mut self) -> Vec<peerwindow_trace::TraceRecord> {
        let host = self.engine.sim_mut();
        host.fold_messages();
        host.folded = 0;
        world::take_trace(once(&mut host.world))
    }

    /// Refreshes the gauge side of the registry (live nodes, mean
    /// peer-list size, RPC retries, engine depth) and returns it for
    /// sampling into a [`peerwindow_trace::SampleSeries`].
    #[cfg(feature = "trace")]
    pub fn sample_metrics(&mut self) -> &peerwindow_trace::CounterRegistry {
        let processed = self.engine.stats().processed;
        let pending = self.engine.pending() as f64;
        let host = self.engine.sim_mut();
        host.fold_messages();
        let reg = &mut host.registry;
        let faults = host.world.installed_fault_counters();
        world::sample_gauges(host.world.machines(), faults, reg);
        reg.set_gauge("nodes.live", host.live.len() as f64);
        reg.set("engine.processed", processed);
        reg.set_gauge("engine.pending", pending);
        reg
    }

    /// Sets a uniform per-datagram loss probability (0.0 = reliable
    /// network). Back-compat shim: installs the degenerate uniform-loss
    /// [`FaultPlan`], replacing any installed fault model (and resetting
    /// its counters).
    pub fn set_loss(&mut self, loss: f64) {
        let seed = self.engine.sim().seed;
        world::set_loss(once(self.world_mut()), seed, loss);
    }

    /// Installs a network fault plan (replacing any previous model,
    /// counters included). Install before running the scenario: the
    /// per-link random streams start fresh.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        world::set_fault_plan(once(self.world_mut()), Some(&plan));
    }

    /// Removes the fault model entirely (reliable network, zero
    /// per-datagram overhead).
    pub fn clear_faults(&mut self) {
        world::set_fault_plan(once(self.world_mut()), None);
    }

    /// Fault-layer totals (zeros when no model is installed).
    pub fn fault_counters(&self) -> FaultCounters {
        world::fault_counters(once(self.world()))
    }

    /// Datagrams dropped by the fault layer so far.
    pub fn dropped(&self) -> u64 {
        self.fault_counters().dropped
    }

    /// Events processed by the underlying engine.
    pub fn processed(&self) -> u64 {
        self.engine.stats().processed
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The event log.
    pub fn log(&self) -> &FullLog {
        self.world().log()
    }

    /// Spawns the genesis node (already active at level 0). Returns its
    /// slot.
    pub fn spawn_seed(&mut self, id: NodeId, threshold_bps: f64, info: Bytes) -> u32 {
        self.spawn(id, threshold_bps, info, None)
    }

    /// Spawns a joining node bootstrapping off a random live node.
    /// Returns its slot, or `None` if nobody is alive to bootstrap from.
    pub fn spawn_joiner(&mut self, id: NodeId, threshold_bps: f64, info: Bytes) -> Option<u32> {
        let host = self.engine.sim_mut();
        let n = host.live.len();
        if n == 0 {
            return None;
        }
        let pick = host.rng.below(n as u64) as usize;
        let boot_slot = *host.live.values().nth(pick)?;
        let boot = host.world.machine(boot_slot)?.as_target();
        Some(self.spawn(id, threshold_bps, info, Some(boot)))
    }

    /// Starts a machine in the next free slot, now, outside the event
    /// queue: the world handles its `Start` at once and the follow-ups
    /// are scheduled from the engine's current time.
    fn spawn(
        &mut self,
        id: NodeId,
        threshold_bps: f64,
        info: Bytes,
        bootstrap: Option<Target>,
    ) -> u32 {
        let now_us = self.engine.now().as_micros();
        let host = self.engine.sim_mut();
        let slot = host.world.slots().len() as u32;
        let start = Event::Start {
            actor: slot,
            id,
            threshold_bps,
            info,
            bootstrap,
            seed: host.rng.next_u64(),
        };
        host.live.insert(id, slot);
        let mut follow_ups = Vec::new();
        host.step(now_us, start, |delay_us, e| follow_ups.push((delay_us, e)));
        for (delay_us, e) in follow_ups {
            self.engine.schedule(delay_us, e);
        }
        slot
    }

    /// Schedules a silent crash of `slot` after `delay_us`.
    pub fn crash_after(&mut self, slot: u32, delay_us: u64) {
        self.engine.schedule(delay_us, Event::Crash { actor: slot });
    }

    /// Schedules a graceful departure of `slot` after `delay_us`.
    pub fn leave_after(&mut self, slot: u32, delay_us: u64) {
        self.command_after(slot, delay_us, Command::Shutdown);
    }

    /// Schedules an info change on `slot` after `delay_us`.
    pub fn set_info_after(&mut self, slot: u32, delay_us: u64, info: Bytes) {
        self.command_after(slot, delay_us, Command::ChangeInfo(info));
    }

    /// Schedules a bandwidth-threshold change on `slot` after `delay_us`
    /// (the §2 autonomy knob).
    pub fn set_threshold_after(&mut self, slot: u32, delay_us: u64, bps: f64) {
        self.command_after(slot, delay_us, Command::SetThreshold(bps));
    }

    /// Schedules an explicit level pin on `slot` after `delay_us`.
    pub fn set_level_after(&mut self, slot: u32, delay_us: u64, level: Level) {
        self.command_after(slot, delay_us, Command::SetLevel(level));
    }

    fn command_after(&mut self, slot: u32, delay_us: u64, cmd: Command) {
        self.engine
            .schedule(delay_us, Event::Cmd { actor: slot, cmd });
    }

    /// Spawns one node per [`NodeSpec`], seeds first, then runs churn:
    /// each node crashes (silently) at the end of its lifetime.
    pub fn populate(&mut self, specs: &[NodeSpec]) -> Vec<u32> {
        let mut slots = Vec::with_capacity(specs.len());
        for (i, s) in specs.iter().enumerate() {
            let id = NodeId(s.id_raw);
            let slot = if i == 0 {
                self.spawn_seed(id, s.threshold_bps, Bytes::new())
            } else {
                match self.spawn_joiner(id, s.threshold_bps, Bytes::new()) {
                    Some(sl) => sl,
                    None => continue,
                }
            };
            slots.push(slot);
        }
        slots
    }

    /// Advances simulated time.
    pub fn run_until(&mut self, t: SimTime) {
        self.engine.run_until(t);
    }

    /// Advances simulated time by `delta_us`.
    pub fn run_for(&mut self, delta_us: u64) {
        let t = self.engine.now() + delta_us;
        self.engine.run_until(t);
    }

    /// Live node count.
    pub fn live_count(&self) -> usize {
        self.engine.sim().live.len()
    }

    /// Read access to a machine.
    pub fn machine(&self, slot: u32) -> Option<&NodeMachine> {
        self.world().machine(slot)
    }

    /// Runs the full invariant suite right now: local checks on every
    /// live machine plus the cross-node quiescent checks. Call at a
    /// settled point — mid-multicast the system checks legitimately fail.
    #[cfg(feature = "invariants")]
    pub fn check_invariants(&self) -> Result<(), peerwindow_core::invariants::InvariantViolation> {
        for (_, m) in self.machines() {
            m.check_invariants()?;
        }
        peerwindow_core::invariants::check_system(self.machines().map(|(_, m)| m))
    }

    /// Iterates `(slot, machine)` over live machines.
    pub fn machines(&self) -> impl Iterator<Item = (u32, &NodeMachine)> + '_ {
        self.world().machines()
    }

    /// Ground-truth live identities (id, level) from the machines
    /// themselves.
    pub fn ground_truth(&self) -> Vec<NodeIdentity> {
        world::ground_truth(self.machines())
    }

    /// A per-level summary in the same shape as the oracle's report rows
    /// (node counts, list sizes, mean traffic), computed from the live
    /// machines — used to cross-validate the two fidelities.
    pub fn report(&self, elapsed_s: f64) -> crate::report::OracleReport {
        use peerwindow_metrics::StreamingStat;
        let mut by_level: std::collections::BTreeMap<u8, (u64, StreamingStat, f64, f64)> =
            Default::default();
        let mut n = 0u64;
        for (_, m) in self.machines().filter(|(_, m)| m.is_active()) {
            n += 1;
            let e = by_level
                .entry(m.level().value())
                .or_insert_with(|| (0, StreamingStat::new(), 0.0, 0.0));
            e.0 += 1;
            e.1.push(m.peers().len() as f64);
            e.2 += m.stats().rx_bits as f64;
            e.3 += m.stats().tx_bits as f64;
        }
        let rows = by_level
            .into_iter()
            .map(|(level, (count, sizes, rx, tx))| crate::report::LevelRow {
                level,
                nodes: count as f64,
                node_fraction: count as f64 / n.max(1) as f64,
                list_min: sizes.min(),
                list_mean: sizes.mean(),
                list_max: sizes.max(),
                error_rate: 0.0, // measured via accuracy(), not time-weighted
                in_bps: rx / count as f64 / elapsed_s.max(1e-9),
                out_bps: tx / count as f64 / elapsed_s.max(1e-9),
            })
            .collect();
        let c = self.fault_counters();
        crate::report::OracleReport {
            rows,
            n_final: n as usize,
            measure_s: elapsed_s,
            dropped: c.dropped,
            duplicated: c.duplicated,
            ..Default::default()
        }
    }

    /// Partition-aware settle check (§4.4): audits every active
    /// machine's peer list against the part structure of the current
    /// ground truth. After a network partition heals, a recovered system
    /// returns to `parts == 1` with [`PartAudit::is_settled`].
    pub fn part_audit(&self) -> PartAudit {
        world::part_audit(self.machines())
    }

    /// Order-sensitive digest of the complete simulation state: every
    /// slot's machine identity, level, activity, traffic counters, peer
    /// list (ids, levels, refresh stamps, in id order) and top list, plus
    /// the log lengths and the engine clock. Two runs of the same seeded
    /// scenario must produce bit-identical fingerprints — the determinism
    /// regression tests assert exactly that.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical serialisation of the state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.engine.now().as_micros());
        for (slot, m) in self.world().slots().iter().enumerate() {
            mix(slot as u64);
            let Some(m) = m else {
                mix(u64::MAX);
                continue;
            };
            mix(m.id().raw() as u64);
            mix((m.id().raw() >> 64) as u64);
            mix(m.level().value() as u64);
            mix(m.is_active() as u64);
            let s = m.stats();
            mix(s.rx_msgs);
            mix(s.tx_msgs);
            mix(s.events_applied);
            mix(s.events_duped);
            for p in m.peers().iter() {
                mix(p.id.raw() as u64);
                mix((p.id.raw() >> 64) as u64);
                mix(p.level.value() as u64);
                mix(p.last_refresh_us);
            }
            for t in m.tops().entries() {
                mix(t.id.raw() as u64);
                mix(t.level.value() as u64);
            }
        }
        let log = self.log();
        mix(log.joined.len() as u64);
        mix(log.failures.len() as u64);
        mix(log.shifts.len() as u64);
        let c = self.fault_counters();
        mix(c.judged);
        mix(c.dropped);
        mix(c.duplicated);
        mix(c.jittered);
        h
    }

    /// Peer-list accuracy of every active machine against ground truth:
    /// returns `(total_correct_entries, missing, stale)` summed over
    /// machines. `missing` = live in-scope nodes absent from the list;
    /// `stale` = listed nodes that are no longer live.
    pub fn accuracy(&self) -> (usize, usize, usize) {
        world::accuracy(self.machines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerwindow_topology::UniformNetwork;

    fn quick_protocol() -> ProtocolConfig {
        ProtocolConfig {
            probe_interval_us: 2_000_000,
            rpc_timeout_us: 500_000,
            processing_delay_us: 10_000,
            bandwidth_window_us: 10_000_000,
            ..ProtocolConfig::default()
        }
    }

    fn net() -> Box<dyn NetworkModel> {
        Box::new(UniformNetwork { latency_us: 20_000 })
    }

    #[test]
    fn thirty_nodes_converge_to_full_knowledge() {
        let mut sim = FullSim::new(quick_protocol(), net(), 7);
        let mut rng = DetRng::new(42);
        let seed_id = NodeId(rng.next_u128());
        sim.spawn_seed(seed_id, 1e9, Bytes::new());
        for k in 1..30 {
            sim.run_for(500_000);
            sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
                .unwrap();
            let _ = k;
        }
        sim.run_for(30_000_000);
        assert_eq!(sim.live_count(), 30);
        assert!(
            sim.log().fatals.is_empty(),
            "fatals: {:?}",
            sim.log().fatals
        );
        let (correct, missing, stale) = sim.accuracy();
        assert_eq!(correct, 30 * 29);
        assert_eq!(missing, 0, "missing pointers");
        assert_eq!(stale, 0, "stale pointers");
    }

    #[test]
    fn crash_is_detected_and_propagated_everywhere() {
        let mut sim = FullSim::new(quick_protocol(), net(), 8);
        let mut rng = DetRng::new(1);
        sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
        let mut slots = vec![];
        for _ in 1..12 {
            sim.run_for(400_000);
            slots.push(
                sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
                    .unwrap(),
            );
        }
        sim.run_for(20_000_000);
        let victim = slots[4];
        let victim_id = sim.machine(victim).unwrap().id();
        sim.crash_after(victim, 0);
        // probe interval 2 s + 3 × 0.5 s timeouts + propagation ≪ 30 s
        sim.run_for(30_000_000);
        assert_eq!(sim.live_count(), 11);
        assert!(!sim.log().failures.is_empty());
        let (_, missing, stale) = sim.accuracy();
        assert_eq!(stale, 0, "stale pointer to {victim_id} survived");
        assert_eq!(missing, 0);
    }

    #[test]
    fn graceful_leave_propagates_without_probe_delay() {
        let mut sim = FullSim::new(quick_protocol(), net(), 9);
        let mut rng = DetRng::new(2);
        sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
        let mut slots = vec![];
        for _ in 0..8 {
            sim.run_for(400_000);
            slots.push(
                sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
                    .unwrap(),
            );
        }
        sim.run_for(10_000_000);
        sim.leave_after(slots[2], 0);
        sim.run_for(5_000_000);
        assert_eq!(sim.live_count(), 8);
        let (_, missing, stale) = sim.accuracy();
        assert_eq!((missing, stale), (0, 0));
    }

    #[test]
    fn info_changes_reach_all_audience_members() {
        let mut sim = FullSim::new(quick_protocol(), net(), 10);
        let mut rng = DetRng::new(3);
        sim.spawn_seed(NodeId(rng.next_u128()), 1e9, Bytes::new());
        let mut slots = vec![];
        for _ in 0..6 {
            sim.run_for(400_000);
            slots.push(
                sim.spawn_joiner(NodeId(rng.next_u128()), 1e9, Bytes::new())
                    .unwrap(),
            );
        }
        sim.run_for(10_000_000);
        let subject = sim.machine(slots[0]).unwrap().id();
        sim.set_info_after(slots[0], 0, Bytes::from_static(b"load:0.1"));
        sim.run_for(5_000_000);
        for (_, m) in sim.machines() {
            if m.id() == subject {
                continue;
            }
            let p = m.peers().get(subject).expect("subject known");
            assert_eq!(&p.info[..], b"load:0.1");
        }
    }
}
