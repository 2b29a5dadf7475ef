//! The model checker's concrete transition system: real [`NodeMachine`]s
//! stepped by the simulators' own [`World`] over a deterministic event
//! queue, cloneable so the search can branch from any quiescent state,
//! with optional fault-plan injection (every datagram is judged at
//! departure, by the world, exactly as in the full simulators).
//!
//! The checker in [`mod@crate::check`] adds visited-state deduplication and
//! temporal properties on top.

use bytes::Bytes;
use peerwindow_core::config::ProtocolConfig;
use peerwindow_core::id::NodeId;
use peerwindow_core::invariants::InvariantViolation;
use peerwindow_core::level::Level;
use peerwindow_core::messages::Message;
use peerwindow_core::multicast::Target;
use peerwindow_core::node::{Command, NodeMachine, Timer};
use peerwindow_faults::FaultPlan;
use peerwindow_sim::{Event, World};
use peerwindow_topology::UniformNetwork;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One membership operation applied between quiescent states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOp {
    /// Spawn node `k` of the id table, bootstrapping off the
    /// lowest-indexed live node.
    Join(usize),
    /// Graceful shutdown of node `k`.
    Leave(usize),
    /// Silent crash of node `k` (failure detection must clean up).
    Crash(usize),
    /// Pin node `k` to the given level (§4.3 runtime shifting).
    Shift(usize, u8),
}

impl SweepOp {
    /// The id-table slot the operation acts on.
    pub fn slot(&self) -> usize {
        match *self {
            SweepOp::Join(k) | SweepOp::Leave(k) | SweepOp::Crash(k) | SweepOp::Shift(k, _) => k,
        }
    }

    /// Returns the operation re-addressed to `slot`.
    pub fn with_slot(&self, slot: usize) -> SweepOp {
        match *self {
            SweepOp::Join(_) => SweepOp::Join(slot),
            SweepOp::Leave(_) => SweepOp::Leave(slot),
            SweepOp::Crash(_) => SweepOp::Crash(slot),
            SweepOp::Shift(_, l) => SweepOp::Shift(slot, l),
        }
    }
}

/// A violation or unexpected machine death observed while driving the net.
#[derive(Clone, Debug)]
pub enum NetErr {
    /// A protocol invariant failed after a handled event.
    Violation(InvariantViolation),
    /// A machine died on a protocol error (its
    /// [`NodeMachine::fatal_error`]) on a *reliable* network.
    /// The checker only applies well-formed operations, so without
    /// faults any fatal is a protocol bug. (Under a fault plan a fatal
    /// is a legitimate outcome — a joiner whose bootstrap is unreachable
    /// gives up — and is recorded instead of raised.)
    Fatal(NodeId, &'static str),
}

/// Lifecycle a table slot is in, as the checker sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotStatus {
    /// Never spawned.
    Unjoined,
    /// Spawned, join protocol still running.
    Joining,
    /// Fully joined and serving.
    Active,
    /// Graceful departure in progress or completed.
    Left,
    /// Silently crashed by a [`SweepOp::Crash`].
    Crashed,
    /// Died on a protocol error under a fault plan.
    Fatal,
}

/// A small deterministic event loop over real machines, cloneable so the
/// search can branch from any quiescent state.
#[derive(Clone)]
pub struct McNet {
    /// The raw id table; slot `k`'s machine runs with id `table[k]` and
    /// address `Addr(k)` (so fault-plan node selectors address slots).
    table: Vec<u128>,
    /// The machines, and the protocol step the simulators run: every
    /// start, delivery, timer and command goes through [`World::handle`].
    world: World,
    /// The machine the world retired from each slot (a drained leaver, or
    /// one dead on a fatal error), kept so the slot still reads its final
    /// state.
    retired: Vec<Option<NodeMachine>>,
    /// Slots a graceful [`SweepOp::Leave`] was issued to.
    left: Vec<bool>,
    /// Slots killed by [`SweepOp::Crash`]. A crashed slot, and one whose
    /// machine died on a fatal error, silently drops all delivery.
    crashed: Vec<bool>,
    /// Slots that reached the `Active` phase at least once.
    ever_active: Vec<bool>,
    /// Pending events keyed by `(time, seq)` — a BTreeMap so clones
    /// iterate identically. Each event names its destination slot.
    queue: BTreeMap<(u64, u64), Event>,
    seq: u64,
    now: u64,
    events_checked: u64,
    /// DESIGN.md gap-13 mutation switch (regression tests only).
    gap13: bool,
}

impl McNet {
    /// A net over `table` with slot 0 as the already-running seed node.
    pub fn new(
        table: &[u128],
        protocol: &ProtocolConfig,
        plan: Option<&FaultPlan>,
        gap13: bool,
    ) -> Self {
        assert!(!table.is_empty(), "the net needs at least a seed id");
        let n = table.len();
        let latency = Arc::new(UniformNetwork { latency_us: 10_000 });
        let mut world = World::new(protocol.clone(), latency, n);
        world.set_fault_plan(plan);
        let mut net = McNet {
            table: table.to_vec(),
            world,
            retired: vec![None; n],
            left: vec![false; n],
            crashed: vec![false; n],
            ever_active: vec![false; n],
            queue: BTreeMap::new(),
            seq: 0,
            now: 0,
            events_checked: 0,
            gap13,
        };
        net.start(0, None);
        net.ever_active[0] = true;
        net
    }

    /// The raw id table.
    pub fn table(&self) -> &[u128] {
        &self.table
    }

    /// Number of table slots.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true; kept for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Current simulated time, microseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Machine events handled (and local-invariant-checked) so far.
    pub fn events_checked(&self) -> u64 {
        self.events_checked
    }

    /// The live machine in `slot`, if any.
    pub fn machine(&self, slot: usize) -> Option<&NodeMachine> {
        self.spawned(slot).filter(|_| !self.is_dead(slot))
    }

    /// The machine ever started in `slot`, dead or retired ones included.
    fn spawned(&self, slot: usize) -> Option<&NodeMachine> {
        self.world
            .machine(slot as u32)
            .or(self.retired[slot].as_ref())
    }

    /// Whether `slot` was crashed or its machine died on a fatal error.
    fn is_dead(&self, slot: usize) -> bool {
        self.crashed[slot] || self.is_fatal(slot)
    }

    /// Whether `slot`'s machine died on a fatal error.
    fn is_fatal(&self, slot: usize) -> bool {
        self.spawned(slot)
            .is_some_and(|m| m.fatal_error().is_some())
    }

    /// Live, fully-joined machines.
    pub fn active(&self) -> impl Iterator<Item = &NodeMachine> + '_ {
        (0..self.len()).filter_map(|s| self.machine(s).filter(|m| m.is_active()))
    }

    /// The checker's view of `slot`'s lifecycle.
    pub fn status(&self, slot: usize) -> SlotStatus {
        if self.is_fatal(slot) {
            return SlotStatus::Fatal;
        }
        if self.crashed[slot] {
            return SlotStatus::Crashed;
        }
        let m = self.spawned(slot);
        if self.left[slot] || m.is_some_and(NodeMachine::has_left) {
            return SlotStatus::Left;
        }
        match m {
            None => SlotStatus::Unjoined,
            Some(m) if m.is_active() => SlotStatus::Active,
            Some(_) => SlotStatus::Joining,
        }
    }

    /// A *correct* node never crashed, never left, and never died: the
    /// subjects of the no-permanent-expungement liveness property.
    pub fn is_correct(&self, slot: usize) -> bool {
        !self.crashed[slot] && !self.left[slot] && !self.is_fatal(slot)
    }

    /// Whether `slot` ever completed the join protocol.
    pub fn ever_active(&self, slot: usize) -> bool {
        self.ever_active[slot]
    }

    /// The latest finite deactivation time over the installed plan's
    /// rules — the instant after which the network is permanently clean
    /// (never-healing rules are excluded: they cannot be waited out).
    pub fn fault_horizon_us(&self) -> u64 {
        self.fault_rule_windows()
            .map(|(_, until_us)| until_us)
            .filter(|&until_us| until_us != u64::MAX)
            .max()
            .unwrap_or(0)
    }

    /// The `(from_us, until_us)` activation window of every installed
    /// fault rule, in plan order (empty without a plan). The canonical
    /// encoding folds each rule's *phase* relative to the current clock
    /// into the state so pending faults distinguish futures.
    pub fn fault_rule_windows(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.world
            .fault_plan()
            .into_iter()
            .flat_map(|p| p.rules.iter().map(|r| (r.from_us, r.until_us)))
    }

    /// Pending queue shape: `(destination slot, event tag)` per entry,
    /// in delivery order. Tags identify the timer/message kind only —
    /// tokens and payloads are deliberately excluded so the canonical
    /// projection quotients over them.
    pub fn queue_shape(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.queue
            .values()
            .map(|event| (event.actor() as usize, event_tag(event)))
    }

    /// Starts slot `k`'s machine, joining via `bootstrap` (`None`: the
    /// seed). Not an event the checker counts or checks.
    fn start(&mut self, k: usize, bootstrap: Option<Target>) {
        self.world_step(Event::Start {
            actor: k as u32,
            id: NodeId(self.table[k]),
            threshold_bps: 1e9,
            info: Bytes::new(),
            bootstrap,
            seed: k as u64 + 1,
        });
        if self.gap13 {
            let m = self.world.machine_mut(k as u32).expect("just started");
            m.reintroduce_gap13_false_obituary_bug();
        }
    }

    /// Hands `event` to the world at the current time: its follow-ups
    /// join the queue, and a machine it retires is kept in `retired`.
    fn world_step(&mut self, event: Event) {
        let slot = event.actor() as usize;
        let (queue, seq, now) = (&mut self.queue, &mut self.seq, self.now);
        let retired = self.world.handle(now, event, |delay_us, e| {
            *seq += 1;
            queue.insert((now + delay_us, *seq), e);
        });
        if retired.is_some() {
            self.retired[slot] = retired;
        }
    }

    /// Drives one event into its slot, checking local invariants
    /// afterwards. A slot never started drops it.
    fn step(&mut self, event: Event) -> Result<(), NetErr> {
        let slot = event.actor() as usize;
        if self.spawned(slot).is_none() {
            return Ok(());
        }
        self.world_step(event);
        let m = self
            .spawned(slot)
            .expect("a started slot keeps its machine");
        m.check_invariants().map_err(NetErr::Violation)?;
        let (active, fatal) = (m.is_active(), m.fatal_error().map(|e| (m.id(), e.as_str())));
        self.ever_active[slot] |= active;
        self.events_checked += 1;
        match fatal {
            // Under faults a machine may legitimately give up (e.g. a
            // joiner whose bootstrap is unreachable): its slot is dead
            // from now on, and liveness properties decide whether that
            // matters.
            Some((id, reason)) if self.world.fault_plan().is_none() => {
                Err(NetErr::Fatal(id, reason))
            }
            _ => Ok(()),
        }
    }

    /// Delivers everything due up to `t_us`, then advances the clock.
    pub fn run_until(&mut self, t_us: u64) -> Result<(), NetErr> {
        while let Some(entry) = self.queue.first_entry() {
            if entry.key().0 > t_us {
                break;
            }
            let ((at, _), event) = entry.remove_entry();
            self.now = at;
            if self.is_dead(event.actor() as usize) {
                continue;
            }
            self.step(event)?;
        }
        self.now = t_us;
        Ok(())
    }

    /// Applies one operation and settles for `settle_us`.
    pub fn apply_op(&mut self, op: SweepOp, settle_us: u64) -> Result<(), NetErr> {
        let cmd = |k: usize, cmd| Event::Cmd {
            actor: k as u32,
            cmd,
        };
        match op {
            SweepOp::Join(k) => {
                // Re-joining or joining over a live slot is a no-op (the
                // shrinker replays arbitrary op subsets; `legal_ops`
                // never emits it).
                let boot = self.active().next().map(|m| m.as_target());
                if let (None, Some(boot)) = (self.spawned(k), boot) {
                    self.start(k, Some(boot));
                }
            }
            SweepOp::Leave(k) => {
                if self.machine(k).is_some() {
                    self.left[k] = true;
                    self.step(cmd(k, Command::Shutdown))?;
                }
            }
            SweepOp::Crash(k) => {
                if self.spawned(k).is_some() {
                    self.crashed[k] = true;
                }
            }
            SweepOp::Shift(k, l) => {
                if self.machine(k).is_some() {
                    self.step(cmd(k, Command::SetLevel(Level::new(l))))?;
                }
            }
        }
        let deadline = self.now + settle_us;
        self.run_until(deadline)
    }

    /// Enumerates the well-formed operations available from a quiescent
    /// state. Legality keeps the system well-formed (these are
    /// environment constraints, not protocol assumptions): each id joins
    /// at most once, at least one live node always remains, and the last
    /// active top-level node can neither depart nor shift down (a
    /// partition with no top is outside the protocol's §4 envelope).
    pub fn legal_ops(&self, joined: &[bool], levels: &[u8], allow_crash: bool) -> Vec<SweepOp> {
        let mut ops = Vec::new();
        let live: Vec<usize> = (0..self.len())
            .filter(|&s| self.machine(s).is_some_and(NodeMachine::is_active))
            .collect();
        let tops: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&s| self.machine(s).is_some_and(|m| m.level().is_top()))
            .collect();

        // Joins: any id not yet spawned, while a bootstrap exists.
        if !live.is_empty() {
            for (k, &already) in joined.iter().enumerate() {
                if !already {
                    ops.push(SweepOp::Join(k));
                }
            }
        }

        for &k in &live {
            let is_last_top = tops.len() == 1 && tops[0] == k;
            // Departures: keep at least one live node, and never remove
            // the last top-level node.
            if live.len() > 1 && !is_last_top {
                ops.push(SweepOp::Leave(k));
                if allow_crash {
                    ops.push(SweepOp::Crash(k));
                }
            }
            // Shifts: to any configured level other than the current one;
            // the last top may not shift off level 0.
            let cur = self
                .machine(k)
                .map(|m| m.level().value())
                .unwrap_or(u8::MAX);
            for &l in levels {
                if l != cur && !(is_last_top && l != 0) {
                    ops.push(SweepOp::Shift(k, l));
                }
            }
        }
        ops
    }

    /// Order-insensitive digest of the quiescent membership view, for
    /// counting distinct raw states (FNV-1a over machine summaries in
    /// slot order — the PR 2 fingerprint, kept for continuity).
    pub fn membership_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in 0..self.len() {
            match self.machine(s) {
                Some(m) if m.is_active() => {
                    mix(&m.id().raw().to_le_bytes());
                    mix(&[m.level().value()]);
                    for p in m.peers().iter() {
                        mix(&p.id.raw().to_le_bytes());
                        mix(&[p.level.value()]);
                    }
                    mix(&[0xfe]);
                }
                _ => mix(&[0xff]),
            }
        }
        h
    }
}

/// A small stable tag per queued event kind. Payloads, RPC tokens, and
/// exact due times are deliberately not part of the tag: the canonical
/// projection wants the *shape* of the in-flight queue, quotiented over
/// everything that varies between permutation-equivalent runs.
fn event_tag(event: &Event) -> u64 {
    match event {
        Event::Timer { timer, .. } => match timer {
            Timer::Probe => 1,
            Timer::RpcTimeout(_) => 2,
            Timer::Adapt => 3,
            Timer::Refresh => 4,
            Timer::Expire => 5,
            Timer::Reconcile => 6,
        },
        Event::Net { msg, .. } => match msg {
            Message::Probe => 10,
            Message::ProbeAck => 11,
            Message::Report { .. } => 12,
            Message::ReportAck { .. } => 13,
            Message::Multicast { .. } => 14,
            Message::MulticastAck { .. } => 15,
            Message::FindTop { .. } => 16,
            Message::FindTopReply { .. } => 17,
            Message::LevelQuery => 18,
            Message::LevelQueryReply { .. } => 19,
            Message::Download { .. } => 20,
            Message::DownloadReply { .. } => 21,
            Message::TopListRequest => 22,
            Message::TopListReply { .. } => 23,
        },
        // Starts and commands are applied at once, never queued; the
        // checker crashes a slot by flag.
        Event::Start { .. } | Event::Crash { .. } | Event::Cmd { .. } => 30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::mc_protocol_config;

    const A: u128 = 0x2000_0000_0000_0000_0000_0000_0000_0000;
    const B: u128 = 0x6000_0000_0000_0000_0000_0000_0000_0000;

    #[test]
    fn seed_settles_and_is_active() {
        let mut net = McNet::new(&[A, B], &mc_protocol_config(), None, false);
        net.run_until(10_000_000).unwrap();
        assert_eq!(net.status(0), SlotStatus::Active);
        assert_eq!(net.status(1), SlotStatus::Unjoined);
        assert!(net.is_correct(0));
    }

    #[test]
    fn join_and_crash_lifecycle() {
        let mut net = McNet::new(&[A, B], &mc_protocol_config(), None, false);
        net.run_until(10_000_000).unwrap();
        net.apply_op(SweepOp::Join(1), 10_000_000).unwrap();
        assert_eq!(net.status(1), SlotStatus::Active);
        assert!(net.ever_active(1));
        net.apply_op(SweepOp::Crash(1), 10_000_000).unwrap();
        assert_eq!(net.status(1), SlotStatus::Crashed);
        assert!(!net.is_correct(1));
        // The seed must have detected the crash and cleaned up.
        assert!(net.machine(0).unwrap().peers().is_empty());
    }

    #[test]
    fn a_drained_leaver_reads_as_the_machine_the_world_retired() {
        let mut net = McNet::new(&[A, B], &mc_protocol_config(), None, false);
        net.run_until(10_000_000).unwrap();
        net.apply_op(SweepOp::Join(1), 10_000_000).unwrap();
        net.apply_op(SweepOp::Leave(1), 10_000_000).unwrap();
        assert!(
            net.world.machine(1).is_none(),
            "the world reaped the leaver"
        );
        assert_eq!(net.status(1), SlotStatus::Left);
        let m = net.machine(1).expect("the retired machine stays readable");
        assert!(m.has_left());
        assert!(m.peers().contains(NodeId(A)));
    }

    #[test]
    fn fault_plan_blackhole_stops_join() {
        let plan = FaultPlan::reliable(7).with_rule(peerwindow_faults::FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: peerwindow_faults::LinkSel::all(),
            condition: peerwindow_faults::Condition::Blackhole,
        });
        let mut net = McNet::new(&[A, B], &mc_protocol_config(), Some(&plan), false);
        net.run_until(10_000_000).unwrap();
        net.apply_op(SweepOp::Join(1), 30_000_000).unwrap();
        // The joiner can never reach its bootstrap: its join RPC runs out
        // of retries and the machine dies on `NoReachableTop`, read from
        // the machine itself.
        assert_eq!(net.status(1), SlotStatus::Fatal);
        assert!(!net.is_correct(1));
        assert!(net.machine(1).is_none(), "a dead slot has no live machine");
    }
}
