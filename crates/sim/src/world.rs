//! The protocol step of every in-process executor.
//!
//! A [`World`] owns everything about a set of [`NodeMachine`]s that does
//! not depend on how events are ordered: the machines, the latency model,
//! the network fault model, snapshot publication and the trace buffer.
//! Its one step, [`World::handle`], turns one [`Event`] into follow-up
//! events handed to an `emit(delay_us, event)` closure. Each world is one
//! shard of [`crate::ParallelFullSim`] (and [`crate::FullSim`] runs one
//! such shard), and the model checker's `McNet` steps one world through
//! its own queue; the executor only orders events, and the one simulated
//! interpreter of [`Output`] is here. A machine's fate is not an output:
//! after each input the world reads `has_left()` (reap it, and hand it
//! to the caller) and `fatal_error()` (log why).
//!
//! What reads or configures a run across its worlds (accuracy, the
//! partition audit, fault and snapshot and trace switches, their
//! counters) is written once, in [`crate::ParallelFullSim`].

use std::sync::Arc;

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_faults::{FaultCounters, FaultPlan, LinkConditioner, Verdict};
use peerwindow_topology::NetworkModel;

use crate::snaphub::SnapshotHub;

/// Everything that can happen to the node in slot `actor`. The actor
/// travels inside each variant (the enum is 128 bytes either way), so an
/// emitted event names the slot it is for.
#[derive(Clone)]
pub enum Event {
    /// Bring the node up: no `bootstrap` = genesis node, `Some(target)` =
    /// join via it. The machine's address is `Addr(actor)`.
    Start {
        /// The slot to start the node in.
        actor: u32,
        /// The node's id.
        id: NodeId,
        /// Its bandwidth budget for node collection, bps.
        threshold_bps: f64,
        /// Its application info.
        info: Bytes,
        /// Whom to join through; `None` starts a genesis node.
        bootstrap: Option<Target>,
        /// Seeds the machine's own random stream.
        seed: u64,
    },
    /// A datagram that made it: loss, duplication and jitter were decided
    /// when it was sent.
    Net {
        /// The receiving slot.
        actor: u32,
        /// The sender's id.
        from: NodeId,
        /// The sender's address.
        from_addr: Addr,
        /// The datagram.
        msg: Message,
    },
    /// A machine timer fires.
    Timer {
        /// The slot whose timer fires.
        actor: u32,
        /// Which timer.
        timer: Timer,
    },
    /// Silent departure: the slot just stops responding.
    Crash {
        /// The slot that crashes.
        actor: u32,
    },
    /// Application command (info change, threshold, level pin, shutdown).
    Cmd {
        /// The slot the command is for.
        actor: u32,
        /// The command.
        cmd: Command,
    },
}

const _: () = assert!(std::mem::size_of::<Event>() <= 128);

impl Event {
    /// The slot the event is addressed to.
    pub fn actor(&self) -> u32 {
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

/// Machines in slots, and what surrounds them on every event. A clone is
/// a branch point for the model checker's search; a world that publishes
/// snapshots cannot be cloned.
#[derive(Clone)]
pub struct World {
    protocol: ProtocolConfig,
    net: Arc<dyn NetworkModel>,
    /// A machine that has left (died on a fatal error or finished
    /// draining its departure) is taken out of its slot, so no read ever
    /// yields a departed node's stale state.
    machines: Vec<Option<NodeMachine>>,
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

impl World {
    /// An empty world with `capacity` vacant slots (it grows on demand).
    pub fn new(protocol: ProtocolConfig, net: Arc<dyn NetworkModel>, capacity: usize) -> Self {
        World {
            protocol,
            net,
            machines: (0..capacity).map(|_| None).collect(),
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
    /// `emit(delay_us, event)`. Returns the machine this event retired,
    /// if any.
    ///
    /// In order: the machine handles the input (a fatal error is logged)
    /// → its trace buffer is drained → its invariants are checked → its
    /// outputs are interpreted → it is reaped if it has left, or else its
    /// snapshot is published.
    pub fn handle(
        &mut self,
        now_us: u64,
        event: Event,
        mut emit: impl FnMut(u64, Event),
    ) -> Option<NodeMachine> {
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
                if let Some(slot) = self.machines.get_mut(actor as usize) {
                    *slot = None;
                }
                return None;
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
                    // Judged once, at departure (`now + delay`), as
                    // `mc::net` and the UDP shim judge it. A fault record
                    // keeps the time the sender handled its event.
                    let verdict = match self.faults.as_mut() {
                        Some(f) => f.judge(now_us + delay_us, actor, dest),
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
        // reports Left — drained, or dead on a fatal error — it is gone,
        // and never publishes again: readers keep its last live epoch.
        let slot = &mut self.machines[actor as usize];
        if slot.as_ref().is_some_and(NodeMachine::has_left) {
            return slot.take();
        }
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

    /// Read access to the machine in `actor`'s slot.
    pub fn machine(&self, actor: u32) -> Option<&NodeMachine> {
        self.machines.get(actor as usize)?.as_ref()
    }

    /// Write access to the machine in `actor`'s slot (test switches).
    pub fn machine_mut(&mut self, actor: u32) -> Option<&mut NodeMachine> {
        self.machines.get_mut(actor as usize)?.as_mut()
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

    /// Installs `plan` (replacing any previous model, counters included),
    /// or removes the model with `None`. Per-link random streams start
    /// fresh.
    pub fn set_fault_plan(&mut self, plan: Option<&FaultPlan>) {
        self.faults = plan.map(|p| LinkConditioner::new(p.clone()));
    }

    /// The installed fault plan, `None` on a reliable network.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(LinkConditioner::plan)
    }

    /// Totals of the installed fault model, `None` without one.
    pub(crate) fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(|f| f.counters())
    }

    /// The snapshot hub, once publication is on.
    pub(crate) fn snapshots(&self) -> Option<&SnapshotHub> {
        self.snapshots.as_ref()
    }

    /// Turns snapshot publication on, into `dir` unless a hub already
    /// exists, and publishes every current machine (generation gating
    /// makes a repeated call publish nothing).
    pub(crate) fn enable_snapshots(&mut self, dir: &Arc<SnapshotDirectory>, now_us: u64) {
        let hub = self
            .snapshots
            .get_or_insert_with(|| SnapshotHub::new(Arc::clone(dir)));
        for (actor, m) in self.machines.iter().enumerate() {
            if let Some(m) = m.as_ref() {
                hub.publish(actor as u32, m, now_us);
            }
        }
    }

    /// Turns structured tracing on or off for every current and future
    /// machine.
    #[cfg(feature = "trace")]
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for m in self.machines.iter_mut().flatten() {
            m.set_tracing(on);
        }
    }

    /// Flushes every machine's buffer and moves all collected records,
    /// unsorted, onto `log`.
    #[cfg(feature = "trace")]
    pub(crate) fn take_trace(&mut self, log: &mut Vec<peerwindow_trace::TraceRecord>) {
        for actor in 0..self.machines.len() as u32 {
            self.drain_trace(actor);
        }
        log.append(&mut self.trace_log);
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
