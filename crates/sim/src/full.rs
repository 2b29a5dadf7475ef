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
//! [`FullSim`] is a synchronous front over a one-shard
//! [`ParallelFullSim`] that carries the caller's [`NetworkModel`]; every
//! read, switch and counter is the inner sim's, through `Deref`. What is
//! this front's own: nodes spawn at once into the next slot, off a
//! random live bootstrap; commands are scheduled relative to now; and
//! the digest is order-sensitive.

use std::ops::{Deref, DerefMut};

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::DetRng;
use peerwindow_faults::FaultPlan;
use peerwindow_topology::NetworkModel;

pub use crate::world::FullLog;
use crate::ParallelFullSim;

/// One shard has no cross-shard sends, so the lookahead only sets the
/// window width: wide enough that a `run_until` is one window.
const ONE_WINDOW_US: u64 = 1 << 40;

/// A full-fidelity simulation harness.
pub struct FullSim {
    sim: ParallelFullSim,
    /// Draws each spawn's machine seed and each joiner's bootstrap.
    rng: DetRng,
}

impl Deref for FullSim {
    type Target = ParallelFullSim;
    fn deref(&self) -> &ParallelFullSim {
        &self.sim
    }
}

impl DerefMut for FullSim {
    fn deref_mut(&mut self) -> &mut ParallelFullSim {
        &mut self.sim
    }
}

impl FullSim {
    /// Creates an empty world.
    pub fn new(protocol: ProtocolConfig, net: Box<dyn NetworkModel>, seed: u64) -> Self {
        FullSim {
            sim: ParallelFullSim::with_models(0, protocol, vec![net.into()], ONE_WINDOW_US, seed),
            rng: DetRng::for_stream(seed, 0xF00D),
        }
    }

    /// Installs a network fault plan (replacing any previous model,
    /// counters included). Install before running the scenario: the
    /// per-link random streams start fresh.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.sim.set_fault_plan(&plan);
    }

    /// The event log.
    pub fn log(&self) -> &FullLog {
        self.sim.world().log()
    }

    /// Spawns the genesis node (already active at level 0). Returns its
    /// slot.
    pub fn spawn_seed(&mut self, id: NodeId, threshold_bps: f64, info: Bytes) -> u32 {
        self.spawn(id, threshold_bps, info, None)
    }

    /// Spawns a joining node bootstrapping off a random live node (the
    /// `rng.below(n)`-th in id order). Returns its slot, or `None` if
    /// nobody is alive to bootstrap from.
    pub fn spawn_joiner(&mut self, id: NodeId, threshold_bps: f64, info: Bytes) -> Option<u32> {
        let mut live: Vec<&NodeMachine> = self.sim.live().map(|(_, m)| m).collect();
        if live.is_empty() {
            return None;
        }
        let pick = self.rng.below(live.len() as u64) as usize;
        let boot = live
            .select_nth_unstable_by_key(pick, |m| m.id())
            .1
            .as_target();
        Some(self.spawn(id, threshold_bps, info, Some(boot)))
    }

    /// Starts a machine in the next free slot, now.
    fn spawn(
        &mut self,
        id: NodeId,
        threshold_bps: f64,
        info: Bytes,
        bootstrap: Option<Target>,
    ) -> u32 {
        let slot = self.sim.world().slots().len() as u32;
        let seed = self.rng.next_u64();
        self.sim
            .start_now(slot, id, threshold_bps, info, bootstrap, seed);
        slot
    }

    /// Schedules a silent crash of `slot` after `delay_us`.
    pub fn crash_after(&mut self, slot: u32, delay_us: u64) {
        let at = self.now() + delay_us;
        self.sim.crash(at, slot);
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
        let at = self.now() + delay_us;
        self.sim.command(at, slot, cmd);
    }

    /// Advances simulated time by `delta_us` (see
    /// [`ParallelFullSim::run_until`] for the boundary).
    pub fn run_for(&mut self, delta_us: u64) {
        let t = self.now() + delta_us;
        self.sim.run_until(t);
    }

    /// A per-level summary in the same shape as the oracle's report rows
    /// (node counts, list sizes, mean traffic), computed from the active
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
        mix(self.now().as_micros());
        for (slot, m) in self.sim.world().slots().iter().enumerate() {
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
