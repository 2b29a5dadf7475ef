//! The protocol world both simulation engines drive.
//!
//! A [`World`] owns everything about a set of [`NodeMachine`]s that does
//! not depend on how events are ordered: the machines, the latency model,
//! the network fault model, snapshot publication and the trace buffer.
//! Its one step, [`World::handle`], turns one [`Event`] into follow-up
//! events handed to an `emit(delay_us, event)` closure — a closure over
//! `Scheduler::schedule` in [`crate::FullSim`], over `Outbox::send` in
//! [`crate::ParallelFullSim`]. The engines only order events; the crate's
//! one interpreter of [`Output`] is here. A machine's fate is not an
//! output: after each input the world reads `has_left()` (reap it) and
//! `fatal_error()` (log why).
//!
//! `FullSim` drives one world, `ParallelFullSim` one per shard. What
//! reads or configures a run (accuracy, the partition audit, fault and
//! snapshot and trace switches, their counters) is written once below,
//! over machines or over a set of worlds.

use std::sync::Arc;

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_faults::{FaultCounters, FaultPlan, LinkConditioner, Verdict};
use peerwindow_topology::NetworkModel;

use crate::snaphub::SnapshotHub;

/// Everything that can happen to the node in slot `actor`. The actor
/// travels inside each variant: the enum is 128 bytes either way, an
/// `(actor, event)` pair in the sequential engine's queue would be 144.
pub(crate) enum Event {
    /// Bring the node up: no `bootstrap` = genesis node, `Some(target)` =
    /// join via it. `seed` feeds the machine's own random stream.
    Start {
        actor: u32,
        id: NodeId,
        threshold_bps: f64,
        info: Bytes,
        bootstrap: Option<Target>,
        seed: u64,
    },
    /// A datagram that made it: loss, duplication and jitter were decided
    /// when it was sent.
    Net {
        actor: u32,
        from: NodeId,
        from_addr: Addr,
        msg: Message,
    },
    /// A machine timer fires.
    Timer { actor: u32, timer: Timer },
    /// Silent departure: the slot just stops responding.
    Crash { actor: u32 },
    /// Application command (info change, threshold, level pin, shutdown).
    Cmd { actor: u32, cmd: Command },
}

const _: () = assert!(std::mem::size_of::<Event>() <= 128);

impl Event {
    /// The slot the event is addressed to.
    pub(crate) fn actor(&self) -> u32 {
        match *self {
            Event::Start { actor, .. }
            | Event::Net { actor, .. }
            | Event::Timer { actor, .. }
            | Event::Crash { actor }
            | Event::Cmd { actor, .. } => actor,
        }
    }
}

/// Notable things that happened (for tests and reports).
#[derive(Clone, Debug, Default)]
pub struct FullLog {
    /// Slots that completed joining.
    pub joined: Vec<u32>,
    /// `(detector slot, dead id)` failure detections.
    pub failures: Vec<(u32, NodeId)>,
    /// Fatal errors `(slot, reason)`, one per machine, logged on the
    /// event that killed it (from [`NodeMachine::fatal_error`]).
    pub fatals: Vec<(u32, &'static str)>,
    /// Level shifts `(slot, from, to)`.
    pub shifts: Vec<(u32, Level, Level)>,
    /// Local invariant violations `(slot, description)` — only populated
    /// when the `invariants` feature is on (every machine is checked
    /// after every handled event).
    pub invariant_violations: Vec<(u32, String)>,
}

/// Machines in slots, and what surrounds them on every event.
pub(crate) struct World<N> {
    protocol: ProtocolConfig,
    net: N,
    machines: Vec<Option<NodeMachine>>,
    /// Slot policy, fixed at construction: whether a machine that has
    /// left (died on a fatal error or finished draining its departure) is
    /// taken out of its slot. `FullSim` reaps, so `machines()` never
    /// yields a departed node's stale state; `ParallelFullSim` leaves the
    /// machine in place (its digest folds departed machines in).
    reap_departed: bool,
    /// Network fault model ("Internet asynchrony", §4.6, generalised to
    /// burst loss / jitter / duplication / partitions). `None` means a
    /// perfectly reliable network with zero per-datagram overhead. Stored
    /// concretely (not boxed) so the reliable fast path inlines into the
    /// send loop. In a sharded run each directed link is
    /// judged only in its sender's world, so per-world conditioners touch
    /// disjoint link states, their counters sum, and every verdict is
    /// shard-count-invariant.
    faults: Option<LinkConditioner>,
    /// Lock-free snapshot publication (the serving layer): when enabled,
    /// every machine's peer list is mirrored into a `Published` cell
    /// after every handled event. Pure observation — generation-gated,
    /// never touches the machines, fingerprint-invariant. The worlds of a
    /// sharded run own their publishers but share one directory.
    snapshots: Option<SnapshotHub>,
    log: FullLog,
    /// Whether structured tracing is on (applied to existing machines and
    /// inherited by later starts).
    #[cfg(feature = "trace")]
    tracing: bool,
    /// Per-slot counter for harness-emitted fault records' `seq` field
    /// (kept in a reserved high-bit space; see `trace_fault`).
    #[cfg(feature = "trace")]
    fault_seq: Vec<u64>,
    /// Collected trace records (drained from machines after every event).
    /// Only the thread driving this world touches it.
    #[cfg(feature = "trace")]
    trace_log: Vec<peerwindow_trace::TraceRecord>,
}

impl<N: NetworkModel> World<N> {
    /// An empty world with `capacity` vacant slots (it grows on demand).
    pub(crate) fn new(
        protocol: ProtocolConfig,
        net: N,
        capacity: usize,
        reap_departed: bool,
    ) -> Self {
        World {
            protocol,
            net,
            machines: (0..capacity).map(|_| None).collect(),
            reap_departed,
            faults: None,
            snapshots: None,
            log: FullLog::default(),
            #[cfg(feature = "trace")]
            tracing: false,
            #[cfg(feature = "trace")]
            fault_seq: Vec::new(),
            #[cfg(feature = "trace")]
            trace_log: Vec::new(),
        }
    }

    /// Handles one event at `now_us`; follow-up events go to
    /// `emit(delay_us, event)`. Returns the id of a machine that left its
    /// slot during the step (crashed, or reaped under the slot policy).
    ///
    /// In order: the machine handles the input (a fatal error is logged)
    /// → its trace buffer is drained → its invariants are checked → its
    /// outputs are interpreted → the slot policy reaps it if it has left
    /// → its snapshot is published.
    pub(crate) fn handle(
        &mut self,
        now_us: u64,
        event: Event,
        mut emit: impl FnMut(u64, Event),
    ) -> Option<NodeId> {
        let actor = event.actor();
        let outs = match event {
            Event::Start {
                id,
                threshold_bps,
                info,
                bootstrap,
                seed,
                ..
            } => {
                let (protocol, addr) = (self.protocol.clone(), Addr(actor as u64));
                #[allow(unused_mut)] // mutated only when tracing is compiled in
                let (mut m, outs) = match bootstrap {
                    None => NodeMachine::new_seed(protocol, id, addr, info, threshold_bps, seed),
                    Some(b) => {
                        NodeMachine::new_joining(protocol, id, addr, info, threshold_bps, b, seed)
                    }
                };
                // Records emitted by the constructor (a joiner's initial
                // FindTop) predate the machine entering the world and are
                // not captured.
                #[cfg(feature = "trace")]
                m.set_tracing(self.tracing);
                if self.machines.len() <= actor as usize {
                    self.machines.resize_with(actor as usize + 1, || None);
                }
                self.machines[actor as usize] = Some(m);
                outs
            }
            Event::Crash { .. } => {
                #[cfg(feature = "trace")]
                self.drain_trace(actor);
                let slot = self.machines.get_mut(actor as usize)?;
                return slot.take().map(|m| m.id());
            }
            Event::Net {
                from,
                from_addr,
                msg,
                ..
            } => {
                let input = Input::Message {
                    from,
                    from_addr,
                    msg,
                };
                self.input(now_us, actor, input)?
            }
            Event::Timer { timer, .. } => self.input(now_us, actor, Input::Timer(timer))?,
            Event::Cmd { cmd, .. } => self.input(now_us, actor, Input::Command(cmd))?,
        };
        // Drain before anything can take the machine out of its slot: the
        // records of its last handled event must survive it.
        #[cfg(feature = "trace")]
        self.drain_trace(actor);
        let machine = self.machines[actor as usize].as_ref()?;
        #[cfg(feature = "invariants")]
        if let Err(v) = machine.check_invariants() {
            self.log.invariant_violations.push((actor, v.to_string()));
        }
        let (from, from_addr) = (machine.id(), machine.addr());
        #[cfg(feature = "trace")]
        let from_level = machine.level().value();
        for o in outs {
            match o {
                Output::Send { to, msg, delay_us } => {
                    let dest = to.addr.0 as u32;
                    let base = delay_us + self.net.latency_us(actor, dest);
                    // Judged once, here, with the time the sender handled
                    // its event — not the departure time `now + delay`.
                    let verdict = match self.faults.as_mut() {
                        Some(f) => f.judge(now_us, actor, dest),
                        None => Verdict::Deliver { extra_delay_us: 0 },
                    };
                    #[cfg(feature = "trace")]
                    self.trace_fault(now_us, actor, from, from_level, to.id, verdict);
                    // The copy goes first, then the original (see
                    // `Verdict::delays`); they carry the same datagram.
                    let [dup, original] = verdict.delays();
                    let net = |msg| Event::Net {
                        actor: dest,
                        from,
                        from_addr,
                        msg,
                    };
                    if let Some(extra) = dup {
                        emit(base + extra, net(msg.clone()));
                    }
                    if let Some(extra) = original {
                        emit(base + extra, net(msg));
                    }
                }
                Output::SetTimer { delay_us, timer } => {
                    emit(delay_us, Event::Timer { actor, timer });
                }
                Output::Joined => self.log.joined.push(actor),
                Output::FailureDetected { dead } => self.log.failures.push((actor, dead)),
                Output::LevelShifted { from, to } => self.log.shifts.push((actor, from, to)),
            }
        }
        // A graceful leaver stays in its slot while it drains its
        // departure announcement (retries, redirects); once the machine
        // reports Left — drained, or dead on a fatal error — it is gone.
        let slot = &mut self.machines[actor as usize];
        if self.reap_departed && slot.as_ref().is_some_and(NodeMachine::has_left) {
            *slot = None;
            return Some(from);
        }
        // Serving layer: mirror the (possibly changed) peer list into the
        // slot's published cell. After the reap, so a departed node never
        // publishes again — readers keep its last live epoch.
        if let (Some(hub), Some(m)) = (self.snapshots.as_mut(), slot.as_ref()) {
            hub.publish(actor, m, now_us);
        }
        None
    }

    /// Feeds `input` to the machine in `actor`'s slot. `None` when the
    /// slot is vacant (crashed or never started): a silent drop. A
    /// machine that dies on this input is logged in `fatals`, once: a
    /// machine that has left ignores every later input.
    fn input(&mut self, now_us: u64, actor: u32, input: Input) -> Option<Vec<Output>> {
        let m = self.machines.get_mut(actor as usize)?.as_mut()?;
        let was_left = m.has_left();
        let outs = m.handle(now_us, input);
        if let (false, Some(err)) = (was_left, m.fatal_error()) {
            self.log.fatals.push((actor, err.as_str()));
        }
        Some(outs)
    }
}

impl<N> World<N> {
    /// Read access to the machine in `actor`'s slot.
    pub(crate) fn machine(&self, actor: u32) -> Option<&NodeMachine> {
        self.machines.get(actor as usize)?.as_ref()
    }

    /// Every slot, vacant ones included, in slot order.
    pub(crate) fn slots(&self) -> &[Option<NodeMachine>] {
        &self.machines
    }

    /// Iterates `(slot, machine)` over occupied slots.
    pub(crate) fn machines(&self) -> impl Iterator<Item = (u32, &NodeMachine)> + '_ {
        self.machines
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (i as u32, m)))
    }

    /// The event log.
    pub(crate) fn log(&self) -> &FullLog {
        &self.log
    }

    /// Totals of the installed fault model, `None` without one.
    pub(crate) fn installed_fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(|f| f.counters())
    }

    /// Moves `actor`'s buffered records into the world's buffer.
    #[cfg(feature = "trace")]
    fn drain_trace(&mut self, actor: u32) {
        if !self.tracing {
            return;
        }
        if let Some(m) = self
            .machines
            .get_mut(actor as usize)
            .and_then(Option::as_mut)
        {
            m.take_trace(&mut self.trace_log);
        }
    }

    /// Moves every machine's buffered records into the world's buffer.
    #[cfg(feature = "trace")]
    fn flush_trace(&mut self) {
        for actor in 0..self.machines.len() as u32 {
            self.drain_trace(actor);
        }
    }

    /// Records what the fault layer did to one datagram `from → to`
    /// (nothing for a plain delivery). Harness records use the sender as
    /// `node` and a `seq` with the high bit set: machine seqs are emission
    /// counters (nowhere near 2^63), so the `(at_us, node, seq)` canonical
    /// key stays collision-free without the machine knowing the harness
    /// exists — and, because each sender's verdicts happen in its own
    /// world in event order, byte-identical across shard counts after the
    /// canonical sort.
    #[cfg(feature = "trace")]
    fn trace_fault(
        &mut self,
        now_us: u64,
        actor: u32,
        from: NodeId,
        level: u8,
        to: NodeId,
        verdict: Verdict,
    ) {
        let fault = match verdict {
            Verdict::Deliver { .. } => return,
            Verdict::Drop => peerwindow_trace::FaultClass::Dropped,
            Verdict::Duplicate { .. } => peerwindow_trace::FaultClass::Duplicated,
        };
        if !self.tracing {
            return;
        }
        if self.fault_seq.len() <= actor as usize {
            self.fault_seq.resize(actor as usize + 1, 0);
        }
        let seq = (1 << 63) | self.fault_seq[actor as usize];
        self.fault_seq[actor as usize] += 1;
        self.trace_log.push(peerwindow_trace::TraceRecord {
            at_us: now_us,
            node: from.raw(),
            seq,
            level,
            cause: peerwindow_trace::CauseId::NONE,
            kind: peerwindow_trace::TraceEventKind::NetFault {
                to: to.raw(),
                fault,
            },
        });
    }
}

// ---- Reads over the machines of a run -------------------------------------

fn active<'a>(
    machines: impl Iterator<Item = (u32, &'a NodeMachine)>,
) -> impl Iterator<Item = &'a NodeMachine> {
    machines.map(|(_, m)| m).filter(|m| m.is_active())
}

fn identity(m: &NodeMachine) -> NodeIdentity {
    NodeIdentity::new(m.id(), m.level())
}

/// Ground-truth live identities (id, level) from the machines themselves.
pub(crate) fn ground_truth<'a>(
    machines: impl Iterator<Item = (u32, &'a NodeMachine)>,
) -> Vec<NodeIdentity> {
    active(machines).map(identity).collect()
}

/// Peer-list accuracy of every active machine against ground truth:
/// `(total_correct_entries, missing, stale)` summed over machines.
/// `missing` = live in-scope nodes absent from the list; `stale` = listed
/// nodes that are no longer live.
pub(crate) fn accuracy<'a>(
    machines: impl Iterator<Item = (u32, &'a NodeMachine)>,
) -> (usize, usize, usize) {
    let active: Vec<&NodeMachine> = active(machines).collect();
    let truth: Vec<NodeIdentity> = active.iter().map(|m| identity(m)).collect();
    let live: std::collections::BTreeSet<NodeId> = truth.iter().map(|n| n.id).collect();
    let mut correct = 0;
    let mut missing = 0;
    let mut stale = 0;
    for m in active {
        let scope = m.eigenstring();
        for t in &truth {
            if t.id != m.id() && scope.contains(t.id) {
                correct += 1;
                if !m.peers().contains(t.id) {
                    missing += 1;
                }
            }
        }
        for p in m.peers().iter() {
            if !live.contains(&p.id) {
                stale += 1;
            }
        }
    }
    (correct, missing, stale)
}

/// Partition-aware settle check (§4.4): audits every active machine's
/// peer list against the part structure of the current ground truth —
/// see [`peerwindow_core::parts::audit_parts`]. After a network partition
/// heals, a recovered system returns to `parts == 1` with
/// [`PartAudit::is_settled`].
pub(crate) fn part_audit<'a>(machines: impl Iterator<Item = (u32, &'a NodeMachine)>) -> PartAudit {
    let views: Vec<(NodeIdentity, Vec<NodeId>)> = active(machines)
        .map(|m| (identity(m), m.peers().iter().map(|p| p.id).collect()))
        .collect();
    audit_parts(&views)
}

// ---- Switches and counters over the worlds of a run -----------------------

/// Installs `plan` in every world (replacing any previous model, counters
/// included), or removes the model with `None`. Per-link random streams
/// start fresh, so install before the scenario runs.
pub(crate) fn set_fault_plan<'a, N: 'a>(
    worlds: impl Iterator<Item = &'a mut World<N>>,
    plan: Option<&FaultPlan>,
) {
    for w in worlds {
        w.faults = plan.map(|p| LinkConditioner::new(p.clone()));
    }
}

/// Back-compat shim: uniform per-datagram loss as the degenerate
/// [`FaultPlan`] (0.0 = reliable network, no model installed), seeded
/// from the harness seed.
pub(crate) fn set_loss<'a, N: 'a>(
    worlds: impl Iterator<Item = &'a mut World<N>>,
    harness_seed: u64,
    loss: f64,
) {
    let loss = loss.clamp(0.0, 1.0);
    let plan = (loss > 0.0).then(|| FaultPlan::uniform_loss(harness_seed ^ 0xFA_0175, loss));
    set_fault_plan(worlds, plan.as_ref());
}

/// Fault-layer totals summed over worlds (zeros when no model is
/// installed).
pub(crate) fn fault_counters<'a, N: 'a>(
    worlds: impl Iterator<Item = &'a World<N>>,
) -> FaultCounters {
    let mut total = FaultCounters::default();
    for c in worlds.filter_map(World::installed_fault_counters) {
        total.merge(&c);
    }
    total
}

/// Turns snapshot publication on in every world, all publishing into one
/// shared directory (returned), and publishes every current machine.
/// Idempotent: generation gating makes a repeated call publish nothing.
pub(crate) fn enable_snapshots<'a, N: 'a>(
    worlds: impl Iterator<Item = &'a mut World<N>>,
    now_us: u64,
) -> Arc<SnapshotDirectory> {
    let mut dir: Option<Arc<SnapshotDirectory>> = None;
    for w in worlds {
        let dir = dir.get_or_insert_with(|| match w.snapshots.as_ref() {
            Some(hub) => hub.directory(),
            None => Arc::new(SnapshotDirectory::new()),
        });
        let hub = w
            .snapshots
            .get_or_insert_with(|| SnapshotHub::new(Arc::clone(dir)));
        for (actor, m) in w.machines.iter().enumerate() {
            if let Some(m) = m.as_ref() {
                hub.publish(actor as u32, m, now_us);
            }
        }
    }
    dir.expect("a run has at least one world")
}

/// A lock-free reader over `actor`'s published snapshots: `None` until
/// publication is on and the actor has published. Any world answers — the
/// directory is shared.
pub(crate) fn snapshot_reader<'a, N: 'a>(
    mut worlds: impl Iterator<Item = &'a World<N>>,
    actor: u32,
) -> Option<SnapshotReader> {
    worlds.next()?.snapshots.as_ref()?.reader(actor)
}

/// Total snapshots published across worlds (0 when publication is off).
pub(crate) fn snapshots_published<'a, N: 'a>(worlds: impl Iterator<Item = &'a World<N>>) -> u64 {
    worlds
        .filter_map(|w| w.snapshots.as_ref())
        .map(SnapshotHub::published)
        .sum()
}

/// Turns structured tracing on or off for every current and future
/// machine of every world.
#[cfg(feature = "trace")]
pub(crate) fn enable_tracing<'a, N: 'a>(worlds: impl Iterator<Item = &'a mut World<N>>, on: bool) {
    for w in worlds {
        w.tracing = on;
        for m in w.machines.iter_mut().flatten() {
            m.set_tracing(on);
        }
    }
}

/// Flushes every machine's buffer and returns all collected records in
/// canonical `(at_us, node, seq)` order, clearing the worlds' buffers.
/// The sort key is a pure function of the protocol run, so the result is
/// byte-for-byte identical for any shard count.
#[cfg(feature = "trace")]
pub(crate) fn take_trace<'a, N: 'a>(
    worlds: impl Iterator<Item = &'a mut World<N>>,
) -> Vec<peerwindow_trace::TraceRecord> {
    let mut log = Vec::new();
    for w in worlds {
        w.flush_trace();
        log.append(&mut w.trace_log);
    }
    peerwindow_trace::canonical_sort(&mut log);
    log
}
