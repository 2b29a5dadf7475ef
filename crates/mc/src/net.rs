//! The model checker's concrete transition system: real [`NodeMachine`]s
//! over a deterministic mini event loop, cloneable so the search can
//! branch from any quiescent state, with optional fault-plan injection
//! (every datagram is judged by a [`LinkConditioner`] exactly like the
//! full simulators do it).
//!
//! This subsumes the PR 2 `SweepNet` that used to live in
//! `peerwindow_core::invariants`; the checker in [`crate::check`] adds
//! visited-state deduplication and temporal properties on top.

use bytes::Bytes;
use peerwindow_core::config::ProtocolConfig;
use peerwindow_core::id::NodeId;
use peerwindow_core::invariants::InvariantViolation;
use peerwindow_core::level::Level;
use peerwindow_core::messages::Message;
use peerwindow_core::node::{Command, Input, NodeMachine, Output, Timer};
use peerwindow_core::pointer::Addr;
use peerwindow_faults::{FaultPlan, LinkConditioner, Verdict};
use std::collections::BTreeMap;

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
    /// One slot per id-table entry; `None` until spawned.
    slots: Vec<Option<NodeMachine>>,
    /// Slots a graceful [`SweepOp::Leave`] was issued to.
    left: Vec<bool>,
    /// Slots killed by [`SweepOp::Crash`]. A crashed slot, and one whose
    /// machine died on a fatal error, silently drops all delivery.
    crashed: Vec<bool>,
    /// Slots that reached the `Active` phase at least once.
    ever_active: Vec<bool>,
    /// Pending deliveries keyed by `(time, seq)` — a BTreeMap so clones
    /// iterate identically. Values carry the destination slot.
    queue: BTreeMap<(u64, u64), (usize, Input)>,
    seq: u64,
    now: u64,
    latency_us: u64,
    events_checked: u64,
    /// Judges every datagram when a plan is installed.
    cond: Option<LinkConditioner>,
    protocol: ProtocolConfig,
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
        let mut net = McNet {
            table: table.to_vec(),
            slots: vec![None; n],
            left: vec![false; n],
            crashed: vec![false; n],
            ever_active: vec![false; n],
            queue: BTreeMap::new(),
            seq: 0,
            now: 0,
            latency_us: 10_000,
            events_checked: 0,
            cond: plan.map(|p| LinkConditioner::new(p.clone())),
            protocol: protocol.clone(),
            gap13,
        };
        let (mut m, outs) = NodeMachine::new_seed(
            protocol.clone(),
            NodeId(table[0]),
            Addr(0),
            Bytes::new(),
            1e9,
            1,
        );
        if gap13 {
            m.reintroduce_gap13_false_obituary_bug();
        }
        net.slots[0] = Some(m);
        net.ever_active[0] = true;
        net.enqueue(0, outs);
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
        match &self.slots[slot] {
            Some(m) if !self.is_dead(slot) => Some(m),
            _ => None,
        }
    }

    /// Whether `slot` was crashed or its machine died on a fatal error.
    fn is_dead(&self, slot: usize) -> bool {
        self.crashed[slot] || self.is_fatal(slot)
    }

    /// Whether `slot`'s machine died on a fatal error.
    fn is_fatal(&self, slot: usize) -> bool {
        self.slots[slot]
            .as_ref()
            .is_some_and(|m| m.fatal_error().is_some())
    }

    /// Live, fully-joined machines.
    pub fn active(&self) -> impl Iterator<Item = &NodeMachine> + '_ {
        (0..self.slots.len()).filter_map(|s| self.machine(s).filter(|m| m.is_active()))
    }

    /// The checker's view of `slot`'s lifecycle.
    pub fn status(&self, slot: usize) -> SlotStatus {
        if self.is_fatal(slot) {
            return SlotStatus::Fatal;
        }
        if self.crashed[slot] {
            return SlotStatus::Crashed;
        }
        if self.left[slot] || self.slots[slot].as_ref().is_some_and(NodeMachine::has_left) {
            return SlotStatus::Left;
        }
        match &self.slots[slot] {
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
        match &self.cond {
            None => 0,
            Some(c) => c
                .plan()
                .rules
                .iter()
                .filter(|r| r.until_us != u64::MAX)
                .map(|r| r.until_us)
                .max()
                .unwrap_or(0),
        }
    }

    /// The `(from_us, until_us)` activation window of every installed
    /// fault rule, in plan order (empty without a plan). The canonical
    /// encoding folds each rule's *phase* relative to the current clock
    /// into the state so pending faults distinguish futures.
    pub fn fault_rule_windows(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.cond
            .iter()
            .flat_map(|c| c.plan().rules.iter().map(|r| (r.from_us, r.until_us)))
    }

    /// Pending queue shape: `(destination slot, input tag)` per entry,
    /// in delivery order. Tags identify the timer/message kind only —
    /// tokens and payloads are deliberately excluded so the canonical
    /// projection quotients over them.
    pub fn queue_shape(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.queue
            .values()
            .map(|(dest, input)| (*dest, input_tag(input)))
    }

    fn enqueue(&mut self, from: usize, outs: Vec<Output>) {
        for o in outs {
            match o {
                Output::Send { to, msg, delay_us } => {
                    let dest = to.addr.0 as usize;
                    let sender = self.slots[from].as_ref();
                    let (id, addr) = match sender {
                        Some(m) => (m.id(), m.addr()),
                        None => continue,
                    };
                    let depart = self.now + delay_us;
                    // Judged once at departure, exactly like the sims.
                    let verdict = match &mut self.cond {
                        Some(c) => c.judge(depart, from as u32, dest as u32),
                        None => Verdict::Deliver { extra_delay_us: 0 },
                    };
                    let input = Input::Message {
                        from: id,
                        from_addr: addr,
                        msg,
                    };
                    let at = depart + self.latency_us;
                    let [dup, original] = verdict.delays();
                    if let Some(extra) = dup {
                        self.seq += 1;
                        self.queue
                            .insert((at + extra, self.seq), (dest, input.clone()));
                    }
                    if let Some(extra) = original {
                        self.seq += 1;
                        self.queue.insert((at + extra, self.seq), (dest, input));
                    }
                }
                Output::SetTimer { delay_us, timer } => {
                    self.seq += 1;
                    self.queue
                        .insert((self.now + delay_us, self.seq), (from, Input::Timer(timer)));
                }
                Output::Joined | Output::FailureDetected { .. } | Output::LevelShifted { .. } => {}
            }
        }
    }

    /// Drives one input into `slot`, checking local invariants afterwards.
    fn step(&mut self, slot: usize, input: Input) -> Result<(), NetErr> {
        let Some(m) = self.slots[slot].as_mut() else {
            return Ok(());
        };
        let outs = m.handle(self.now, input);
        m.check_invariants().map_err(NetErr::Violation)?;
        if m.is_active() {
            self.ever_active[slot] = true;
        }
        self.events_checked += 1;
        let fatal = m.fatal_error().map(|err| (m.id(), err.as_str()));
        self.enqueue(slot, outs);
        match fatal {
            // Under faults a machine may legitimately give up (e.g. a
            // joiner whose bootstrap is unreachable): its slot is dead
            // from now on, and liveness properties decide whether that
            // matters.
            Some((id, reason)) if self.cond.is_none() => Err(NetErr::Fatal(id, reason)),
            _ => Ok(()),
        }
    }

    /// Delivers everything due up to `t_us`, then advances the clock.
    pub fn run_until(&mut self, t_us: u64) -> Result<(), NetErr> {
        while let Some((&(at, _), _)) = self.queue.first_key_value() {
            if at > t_us {
                break;
            }
            let Some(((at, _), (dest, input))) = self.queue.pop_first() else {
                break;
            };
            self.now = at;
            if self.is_dead(dest) {
                continue;
            }
            self.step(dest, input)?;
        }
        self.now = t_us;
        Ok(())
    }

    /// Applies one operation and settles for `settle_us`.
    pub fn apply_op(&mut self, op: SweepOp, settle_us: u64) -> Result<(), NetErr> {
        match op {
            SweepOp::Join(k) => {
                // Re-joining or joining over a live slot is a no-op (the
                // shrinker replays arbitrary op subsets; `legal_ops`
                // never emits it).
                if self.slots[k].is_none() {
                    let boot = self.active().next().map(|m| m.as_target());
                    if let Some(boot) = boot {
                        let (mut m, outs) = NodeMachine::new_joining(
                            self.protocol.clone(),
                            NodeId(self.table[k]),
                            Addr(k as u64),
                            Bytes::new(),
                            1e9,
                            boot,
                            k as u64 + 1,
                        );
                        if self.gap13 {
                            m.reintroduce_gap13_false_obituary_bug();
                        }
                        self.slots[k] = Some(m);
                        self.enqueue(k, outs);
                    }
                }
            }
            SweepOp::Leave(k) => {
                if self.machine(k).is_some() {
                    self.left[k] = true;
                    self.step(k, Input::Command(Command::Shutdown))?;
                }
            }
            SweepOp::Crash(k) => {
                if self.slots[k].is_some() {
                    self.crashed[k] = true;
                }
            }
            SweepOp::Shift(k, l) => {
                if self.machine(k).is_some() {
                    self.step(k, Input::Command(Command::SetLevel(Level::new(l))))?;
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
        let live: Vec<usize> = (0..self.slots.len())
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
        for s in 0..self.slots.len() {
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

/// A small stable tag per queued input kind. Payloads, RPC tokens, and
/// exact due times are deliberately not part of the tag: the canonical
/// projection wants the *shape* of the in-flight queue, quotiented over
/// everything that varies between permutation-equivalent runs.
fn input_tag(input: &Input) -> u64 {
    match input {
        Input::Timer(t) => match t {
            Timer::Probe => 1,
            Timer::RpcTimeout(_) => 2,
            Timer::Adapt => 3,
            Timer::Refresh => 4,
            Timer::Expire => 5,
            Timer::Reconcile => 6,
        },
        Input::Message { msg, .. } => match msg {
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
        Input::Command(_) => 30,
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
