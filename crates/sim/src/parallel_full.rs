//! Full-fidelity protocol simulation on the *parallel* engine.
//!
//! The paper ran its experiments on ONSP, a parallel discrete-event
//! platform (MPI over a 16-server cluster). This module is the
//! demonstration that our conservative sharded engine carries the real
//! protocol: every node's [`NodeMachine`] lives in one shard of a
//! [`ParallelEngine`], messages between nodes respect the engine's
//! latency lookahead, and — the claim that matters — **the simulation
//! outcome is identical for any shard count** (asserted by tests), so
//! parallelism is a pure speedup, exactly ONSP's pitch.
//!
//! Each shard is one [`crate::world`] — the protocol step is the one
//! [`crate::FullSim`] runs. What is this harness's own: nodes start by
//! scheduled event, latencies are deterministically jittered per (source,
//! destination) pair so no two deliveries tie on the clock (with unique
//! timestamps the global delivery order is shard-count-invariant),
//! departed machines stay in their slots, and the digest is
//! order-insensitive.

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::{Outbox, ParallelEngine, ShardLogic, SimTime};
use peerwindow_faults::{FaultCounters, FaultPlan};
use peerwindow_topology::NetworkModel;

use crate::world::{self, Event, World};

/// Deterministic per-(src, dst) latency jitter, identical in every shard
/// layout: base + hash(src, dst) mod 1000 µs, floored at the lookahead —
/// so every delivery, faulted or not (jitter only adds), clears the
/// engine's cross-shard lookahead assertion.
struct PairJitter {
    base_latency_us: u64,
    lookahead_us: u64,
    seed: u64,
}

impl NetworkModel for PairJitter {
    #[inline]
    fn latency_us(&self, src: u32, dst: u32) -> u64 {
        let mut h = (src as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((dst as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            ^ self.seed;
        h ^= h >> 29;
        h = h.wrapping_mul(0x94D049BB133111EB);
        (self.base_latency_us + (h % 1_000)).max(self.lookahead_us)
    }
}

/// One shard: the world of every actor the shard map places here. Every
/// shard has a slot for every actor; only its own are ever occupied.
type Shard = World<PairJitter>;

/// Order-insensitive digest of one machine.
fn machine_digest(m: &NodeMachine) -> u64 {
    let mut h = m.id().raw() as u64 ^ (m.id().raw() >> 64) as u64;
    h = h
        .wrapping_mul(31)
        .wrapping_add(m.level().value() as u64 + 1);
    h = h.wrapping_mul(31).wrapping_add(m.peers().len() as u64);
    let peers_sum: u64 = m
        .peers()
        .iter()
        .map(|p| {
            (p.id.raw() as u64 ^ (p.id.raw() >> 64) as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(p.level.value() as u64)
        })
        .fold(0u64, u64::wrapping_add);
    h ^ peers_sum
}

impl ShardLogic for Shard {
    type Msg = Event;

    fn handle(&mut self, now: SimTime, actor: u32, event: Event, out: &mut Outbox<Event>) {
        debug_assert_eq!(actor, event.actor());
        // A timer is a self-send: same shard, exempt from lookahead.
        World::handle(self, now.as_micros(), event, |delay_us, e| {
            out.send(delay_us, e.actor(), e)
        });
    }

    fn fingerprint(&self) -> u64 {
        self.machines()
            .map(|(_, m)| machine_digest(m))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A convenience harness: builds a `ParallelEngine` of `shards` shards
/// able to host `capacity` actors, with the §5.1-ish uniform latency.
/// Actors are placed `actor % shards`.
pub struct ParallelFullSim {
    engine: ParallelEngine<Shard>,
    capacity: usize,
    /// Harness seed, kept so the `set_loss` shim can derive a plan seed.
    seed: u64,
}

impl ParallelFullSim {
    /// Creates the world. `lookahead_us` must lower-bound the network
    /// latency (it does: latencies are floored at it).
    pub fn new(
        shards: usize,
        capacity: usize,
        protocol: ProtocolConfig,
        base_latency_us: u64,
        lookahead_us: u64,
        seed: u64,
    ) -> Self {
        let logics: Vec<Shard> = (0..shards)
            .map(|_| {
                let net = PairJitter {
                    base_latency_us,
                    lookahead_us,
                    seed,
                };
                World::new(protocol.clone(), net, capacity, false)
            })
            .collect();
        ParallelFullSim {
            engine: ParallelEngine::new(logics, lookahead_us),
            capacity,
            seed,
        }
    }

    /// Schedules a node start. Actor ids are the node addresses.
    pub fn start_node(
        &mut self,
        at: SimTime,
        actor: u32,
        id: NodeId,
        threshold_bps: f64,
        info: Bytes,
        bootstrap: Option<Target>,
    ) {
        assert!((actor as usize) < self.capacity);
        let start = Event::Start {
            actor,
            id,
            threshold_bps,
            info,
            bootstrap,
            seed: id.raw() as u64 | 1,
        };
        self.engine.schedule(at, actor, start);
    }

    /// Schedules a silent crash.
    pub fn crash(&mut self, at: SimTime, actor: u32) {
        self.engine.schedule(at, actor, Event::Crash { actor });
    }

    /// Schedules an application command.
    pub fn command(&mut self, at: SimTime, actor: u32, cmd: Command) {
        self.engine.schedule(at, actor, Event::Cmd { actor, cmd });
    }

    /// Runs to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.engine.run_until(t);
    }

    /// Overrides the engine's worker-thread count (default: one per core,
    /// capped at the shard count). Results are bit-identical for every
    /// worker count; tests use this to exercise the threaded window
    /// protocol on small hosts.
    pub fn set_workers(&mut self, workers: usize) {
        self.engine.set_workers(workers);
    }

    /// Turns wall-clock runtime metrics on or off for subsequent runs.
    ///
    /// Only effective when the `runtime-metrics` feature is compiled in
    /// (see [`runtime_metrics_active`](peerwindow_des::runtime_metrics_active));
    /// otherwise the engine's Noop sink discards everything. Metrics are
    /// write-only observation: the simulation's fingerprint is
    /// byte-identical with metrics on or off.
    pub fn enable_runtime_metrics(&mut self, on: bool) {
        self.engine.set_metrics_enabled(on);
    }

    /// Wall-clock attribution report for the runs so far, labelled
    /// `name`. Empty (zero time, zero counters) when the
    /// `runtime-metrics` feature is compiled out or metrics were never
    /// enabled.
    pub fn runtime_metrics_report(&self, name: &str) -> peerwindow_metrics::runtime::RunReport {
        self.engine.metrics_report(name)
    }

    /// Order-insensitive digest of the entire world, fault-layer totals
    /// included (per-shard counters sum, so the digest stays
    /// shard-count-invariant).
    pub fn fingerprint(&self) -> u64 {
        let c = self.fault_counters();
        self.engine
            .fingerprint()
            .wrapping_add(c.judged.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(c.dropped.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(c.duplicated.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(c.jittered.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Total events processed (speedup accounting).
    pub fn processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Installs a network fault plan in every shard (replacing any
    /// previous model and its counters). Install before the scenario
    /// runs: per-link random streams start fresh. Each directed link is
    /// judged only in its sender's shard, so one plan drives all shards
    /// without coordination — and without breaking shard invariance.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        world::set_fault_plan(self.engine.logics_mut(), Some(plan));
    }

    /// Back-compat shim: uniform per-datagram loss as a degenerate
    /// [`FaultPlan`] (0.0 = reliable network, no model installed).
    pub fn set_loss(&mut self, loss: f64) {
        world::set_loss(self.engine.logics_mut(), self.seed, loss);
    }

    /// Removes the fault model from every shard.
    pub fn clear_faults(&mut self) {
        world::set_fault_plan(self.engine.logics_mut(), None);
    }

    /// Fault-layer totals, summed over shards (zeros when no model is
    /// installed).
    pub fn fault_counters(&self) -> FaultCounters {
        world::fault_counters(self.engine.logics())
    }

    /// Datagrams dropped by the fault layer so far.
    pub fn dropped(&self) -> u64 {
        self.fault_counters().dropped
    }

    /// Read access to `actor`'s machine, in the shard that owns it.
    pub fn machine(&self, actor: u32) -> Option<&NodeMachine> {
        self.engine
            .logic(self.engine.shard_of(actor))
            .machine(actor)
    }

    /// Iterates `(actor, machine)` over machines in actor order
    /// (deterministic regardless of shard layout). A crashed machine is
    /// gone; one that left gracefully or gave up stays in its slot.
    pub fn machines(&self) -> impl Iterator<Item = (u32, &NodeMachine)> + '_ {
        (0..self.capacity as u32).filter_map(move |a| self.machine(a).map(|m| (a, m)))
    }

    /// Machine count across all shards.
    pub fn live_count(&self) -> usize {
        self.machines().count()
    }

    /// Ground-truth live identities (id, level) from the machines.
    pub fn ground_truth(&self) -> Vec<NodeIdentity> {
        world::ground_truth(self.machines())
    }

    /// Peer-list accuracy against ground truth, `(correct, missing,
    /// stale)` — same definition as [`crate::FullSim::accuracy`].
    pub fn accuracy(&self) -> (usize, usize, usize) {
        world::accuracy(self.machines())
    }

    /// Partition-aware settle check (§4.4) over the live machines — see
    /// [`peerwindow_core::parts::audit_parts`].
    pub fn part_audit(&self) -> PartAudit {
        world::part_audit(self.machines())
    }

    /// Turns lock-free snapshot publication on in every shard: each
    /// actor's peer list is mirrored into a per-actor [`Published`] cell
    /// after every handled event. All shards publish into one shared
    /// directory (returned here), so observers resolve readers by actor
    /// id without knowing the shard layout. Call between windows
    /// (before `run_until`). Idempotent — a second call returns the
    /// existing directory.
    ///
    /// Publication is pure observation: the simulation outcome
    /// (fingerprints included) is identical with snapshots on or off,
    /// for every shard count — asserted by the workspace
    /// `query_consistency` tests.
    pub fn enable_snapshots(&mut self) -> std::sync::Arc<SnapshotDirectory> {
        let now_us = self.engine.now().as_micros();
        world::enable_snapshots(self.engine.logics_mut(), now_us)
    }

    /// A lock-free reader over `actor`'s published snapshots. `None`
    /// until [`Self::enable_snapshots`] has run and the actor published.
    pub fn snapshot_reader(&self, actor: u32) -> Option<SnapshotReader> {
        world::snapshot_reader(self.engine.logics(), actor)
    }

    /// Total snapshots published across all shards (0 when off).
    pub fn snapshots_published(&self) -> u64 {
        world::snapshots_published(self.engine.logics())
    }

    /// Turns structured tracing on for every current and future machine,
    /// in every shard. Call between windows (before `run_until`).
    #[cfg(feature = "trace")]
    pub fn enable_tracing(&mut self, on: bool) {
        world::enable_tracing(self.engine.logics_mut(), on);
    }

    /// Collects every shard's records into one canonically ordered log,
    /// clearing the shard buffers. The `(at_us, node, seq)` sort key is a
    /// pure function of the protocol run, so the result is byte-for-byte
    /// identical for any shard count (asserted by the workspace tests).
    #[cfg(feature = "trace")]
    pub fn take_trace(&mut self) -> Vec<peerwindow_trace::TraceRecord> {
        world::take_trace(self.engine.logics_mut())
    }

    /// Samples engine counters plus machine aggregates into a registry.
    #[cfg(feature = "trace")]
    pub fn sample_metrics(&self, reg: &mut peerwindow_trace::CounterRegistry) {
        self.engine.sample_into(reg);
        let active = world::sample_gauges(self.machines(), Some(self.fault_counters()), reg);
        reg.set_gauge("nodes.live", active as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(shards: usize) -> (u64, u64) {
        let protocol = ProtocolConfig {
            probe_interval_us: 2_000_000,
            rpc_timeout_us: 400_000,
            processing_delay_us: 10_000,
            bandwidth_window_us: 8_000_000,
            ..ProtocolConfig::default()
        };
        let n = 48u32;
        let mut sim = ParallelFullSim::new(shards, n as usize, protocol, 20_000, 1_000, 7);
        // Seed at actor 0, then staggered joiners bootstrapping off it.
        let seed_id = NodeId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
        sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
        let boot = Target {
            id: seed_id,
            addr: Addr(0),
            level: Level::TOP,
        };
        for k in 1..n {
            let id =
                NodeId((k as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_0C4A_2B8E_D1A3) | 1);
            sim.start_node(
                SimTime::from_millis(400 * k as u64),
                k,
                id,
                1e9,
                Bytes::new(),
                Some(boot),
            );
        }
        // A couple of crashes and an info change mid-run.
        sim.crash(SimTime::from_secs(30), 5);
        sim.crash(SimTime::from_secs(31), 9);
        sim.command(
            SimTime::from_secs(35),
            3,
            Command::ChangeInfo(Bytes::from_static(b"v2")),
        );
        sim.run_until(SimTime::from_secs(80));
        (sim.fingerprint(), sim.processed())
    }

    #[test]
    fn outcome_is_invariant_across_shard_counts() {
        let (f1, p1) = scenario(1);
        let (f2, p2) = scenario(2);
        let (f4, p4) = scenario(4);
        let (f7, p7) = scenario(7);
        assert_eq!(p1, p2, "processed-event counts differ (1 vs 2 shards)");
        assert_eq!(p1, p4, "processed-event counts differ (1 vs 4 shards)");
        assert_eq!(p1, p7, "processed-event counts differ (1 vs 7 shards)");
        assert_eq!(f1, f2, "world digest differs (1 vs 2 shards)");
        assert_eq!(f1, f4, "world digest differs (1 vs 4 shards)");
        assert_eq!(f1, f7, "world digest differs (1 vs 7 shards)");
    }

    #[test]
    fn scenario_actually_converges() {
        let protocol = ProtocolConfig {
            probe_interval_us: 2_000_000,
            rpc_timeout_us: 400_000,
            processing_delay_us: 10_000,
            bandwidth_window_us: 8_000_000,
            ..ProtocolConfig::default()
        };
        let n = 24u32;
        let mut sim = ParallelFullSim::new(3, n as usize, protocol, 20_000, 1_000, 9);
        let seed_id = NodeId(0xFACE_0000_0000_0000_0000_0000_0000_0001);
        sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
        let boot = Target {
            id: seed_id,
            addr: Addr(0),
            level: Level::TOP,
        };
        for k in 1..n {
            let id = NodeId((k as u128) << 96 | 0xBEEF);
            sim.start_node(
                SimTime::from_millis(500 * k as u64),
                k,
                id,
                1e9,
                Bytes::new(),
                Some(boot),
            );
        }
        sim.run_until(SimTime::from_secs(60));
        // Peek machine states through the fingerprint path: every live
        // machine should know the other 23.
        let mut sizes = Vec::new();
        for shard in 0..3 {
            for (_, m) in sim.engine.logic(shard).machines() {
                sizes.push(m.peers().len());
            }
        }
        assert_eq!(sizes.len(), 24);
        assert!(
            sizes.iter().all(|&s| s == 23),
            "peer lists not converged: {sizes:?}"
        );
    }
}
