//! The PeerWindow node — a sans-IO protocol state machine.
//!
//! [`NodeMachine`] implements the complete protocol of §4. It performs no
//! I/O and reads no clock: the embedder (a real UDP transport, or the
//! discrete-event simulator in `peerwindow-sim`) feeds it `(now, Input)`
//! pairs through [`NodeMachine::handle`], its only entry, and executes the
//! returned [`Output`]s. This makes every protocol decision deterministic
//! and unit-testable.
//!
//! This file holds the public types, the machine's state, construction,
//! accessors and the three dispatchers (`on_message`, `on_timer`,
//! `on_command`). Each operation lives in a child module:
//!
//! * `detect` — ring-probing failure detection and false-obituary
//!   refutation (§4.1);
//! * `dissem` — the dedup horizon, event application, report routing and
//!   the tree multicast (§4.2, §4.4);
//! * `join` — the four-step join, level-raise downloads, reconciliation,
//!   the graceful leave (§4.3) and the top-node-list plumbing (§4.5);
//! * `adapt` — the bandwidth meter and autonomic level shifts (§2, §4.3);
//! * `refresh` — observed lifetimes, self-refresh and expiry (§4.6);
//! * `rpc` — sends, the pending-call table, retries and give-ups.
//!
//! Two orders are part of the simulated outcome, so no refactor may move a
//! statement across another inside a function body: `rand_below` keys off
//! `next_token`, which every `send_rpc` advances, and the order of `outs`
//! is the simulators' FIFO tie-break between same-time deliveries.

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::event::StateEvent;
use crate::id::{NodeId, Prefix};
use crate::level::Level;
use crate::messages::Message;
use crate::multicast::Target;
use crate::peer_list::PeerList;
use crate::pointer::Addr;
use crate::top_list::TopList;
use adapt::BandwidthMeter;
use bytes::Bytes;
use dissem::Dedup;
use refresh::LifetimeStats;
// Protocol state lives in ordered collections only: iteration order must
// be a pure function of the contents, never of a hasher seed, or two
// identically-seeded simulations diverge (see DESIGN.md, "Determinism &
// invariant contract").
use std::collections::BTreeMap;

#[cfg(feature = "trace")]
use crate::event::EventKind;
#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, EventClass, NodeTrace, TraceEventKind};

mod adapt;
mod detect;
mod dissem;
mod join;
mod refresh;
mod rpc;

use rpc::{PendingRpc, RpcKind};

/// Sequence number used for leave events (reported by detectors who do not
/// know the subject's own counter; terminal, so "largest wins" is safe).
pub const LEAVE_SEQ: u64 = u64::MAX;

/// External stimulus for the machine.
#[derive(Clone, Debug)]
pub enum Input {
    /// A message arrived from the network.
    Message {
        /// Sender id.
        from: NodeId,
        /// Sender address (for replies to nodes not in the peer list).
        from_addr: Addr,
        /// The message.
        msg: Message,
    },
    /// A timer set via [`Output::SetTimer`] fired.
    Timer(Timer),
    /// An application command.
    Command(Command),
}

/// Application-level commands.
#[derive(Clone, Debug)]
pub enum Command {
    /// Change the attached info (§3) and announce it.
    ChangeInfo(Bytes),
    /// Change the bandwidth threshold (autonomy: the user retunes the
    /// budget at runtime).
    SetThreshold(f64),
    /// Pin the node to an explicit level (§4.3 runtime shifting, driven
    /// directly rather than through the bandwidth controller). Lowering
    /// drops out-of-scope pointers immediately; raising downloads the
    /// wider list from a top node first.
    SetLevel(Level),
    /// Leave gracefully: announce departure before stopping.
    Shutdown,
}

/// Timers the machine asks its embedder to schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timer {
    /// Periodic ring probe (§4.1).
    Probe,
    /// Timeout of the pending RPC with this token.
    RpcTimeout(u64),
    /// Periodic bandwidth measurement / level adaptation.
    Adapt,
    /// §4.6 self-refresh multicast.
    Refresh,
    /// §4.6 stale-pointer expiry sweep.
    Expire,
    /// One-shot post-join reconciliation: re-download our scope once the
    /// join multicast has settled, closing the blind window between the
    /// §4.3 step-3 snapshot and our appearance in other nodes' lists.
    /// (Implementation addition in the spirit of the §4.3 warm-up's
    /// background download; without it, events originating during the
    /// joining round-trips would leave permanent absent pointers until
    /// the §4.6 refresh.)
    Reconcile,
}

/// Effects the embedder must execute.
#[derive(Clone, Debug)]
pub enum Output {
    /// Transmit `msg` to `to` after `delay_us` of local processing
    /// (§5.1 charges 1 s per multicast hop for receive/compute/send).
    Send {
        /// Destination.
        to: Target,
        /// Payload.
        msg: Message,
        /// Local processing delay before the message leaves the node.
        delay_us: u64,
    },
    /// Schedule `timer` to fire after `delay_us`.
    SetTimer {
        /// Delay from now.
        delay_us: u64,
        /// Which timer.
        timer: Timer,
    },
    /// The joining process completed; the node is active.
    Joined,
    /// The node detected the silent failure of `dead` (informational).
    FailureDetected {
        /// The departed neighbor.
        dead: NodeId,
    },
    /// The node shifted level (informational).
    LevelShifted {
        /// Previous level.
        from: Level,
        /// New level.
        to: Level,
    },
    /// The machine cannot make progress (e.g. its bootstrap node died
    /// before answering). The embedder should discard the node.
    Fatal(&'static str),
}

impl Output {
    fn timer(delay_us: u64, timer: Timer) -> Output {
        Output::SetTimer { delay_us, timer }
    }
}

/// Lifecycle of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// §4.3 step 1: locating a top node of our part.
    FindingTop,
    /// §4.3 step 2: estimating our level.
    EstimatingLevel,
    /// §4.3 step 3: downloading the peer list and top-node list.
    Downloading,
    /// Steady state.
    Active,
    /// Announced a graceful departure and now draining the announcement:
    /// only the Leave multicast's RPC plumbing (acks, retries,
    /// redirects) is still processed, until nothing is pending.
    Leaving,
    /// Departed (gracefully or by command); ignores further input.
    Left,
}

/// Aggregate traffic and protocol counters, readable by the embedder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Bits received (all messages).
    pub rx_bits: u64,
    /// Bits sent (all messages).
    pub tx_bits: u64,
    /// Messages received.
    pub rx_msgs: u64,
    /// Messages sent.
    pub tx_msgs: u64,
    /// Fresh events applied to the peer list.
    pub events_applied: u64,
    /// Duplicate events discarded.
    pub events_duped: u64,
    /// Multicast forwards initiated.
    pub forwards: u64,
    /// Ring probes sent (§4.1).
    pub probes_sent: u64,
    /// Silent failures detected by probing.
    pub failures_detected: u64,
    /// Pointers dropped after unanswered multicast sends.
    pub stale_dropped: u64,
    /// Pointers dropped by §4.6 expiry.
    pub expired: u64,
    /// RPC re-sends after an unanswered attempt (not counting give-ups).
    pub rpc_retries: u64,
}

/// The PeerWindow protocol state machine for one node.
#[derive(Clone, Debug)]
pub struct NodeMachine {
    cfg: ProtocolConfig,
    me: NodeId,
    addr: Addr,
    info: Bytes,
    level: Level,
    peers: PeerList,
    tops: TopList,
    threshold_bps: f64,
    phase: Phase,
    seq: u64,
    /// Events already handled: the dedup horizon and the report cycle
    /// guard (see [`Dedup`]).
    dedup: Dedup,
    pending: BTreeMap<u64, PendingRpc>,
    next_token: u64,
    meter: BandwidthMeter,
    lifetimes: LifetimeStats,
    stats: NodeStats,
    rng: u64,
    /// Tops already tried (and failed) for the current report.
    report_dead: Vec<NodeId>,
    /// The event whose report waits on the pending §4.5 top-list fetch
    /// (at most one fetch is in flight; see `fetch_top_list`).
    parked_report: Option<StateEvent>,
    /// When we last announced our own state (join, refresh, shift). The
    /// §4.6 refresh fires when `now − last` exceeds `2 · LT_level`.
    last_self_refresh_us: u64,
    /// When we last shifted level. Adaptation pauses for one full
    /// measurement window afterwards: the sliding window still contains
    /// traffic from the old level, and acting on it overshoots.
    last_shift_us: u64,
    /// Adaptation debounce (see `adapt_level`): consecutive over-budget
    /// (+) or raise-eligible (−) windows.
    adapt_pressure: i8,
    /// The error that terminated the machine, if any (see [`ProtocolError`]).
    fatal_error: Option<ProtocolError>,
    /// Model-checker mutation switch: when set, the DESIGN.md gap-13 fix
    /// (obituary courtesy copy + immediate self-refutation) is disabled,
    /// restoring the refutation-invisible false-obituary bug so the
    /// checker's regression tests can prove the bug is still caught.
    #[cfg(any(test, feature = "invariants"))]
    gap13_bug_reintroduced: bool,
    /// Structured event sink; the embedder drains it via
    /// [`NodeMachine::take_trace`] after every handled input.
    #[cfg(feature = "trace")]
    trace: NodeTrace,
}

impl NodeMachine {
    /// Creates a *seed* node: already active, alone, at level 0 — the
    /// genesis of a new system. Returns the machine and its start-up
    /// outputs (the periodic timers).
    pub fn new_seed(
        cfg: ProtocolConfig,
        me: NodeId,
        addr: Addr,
        info: Bytes,
        threshold_bps: f64,
        seed: u64,
    ) -> (Self, Vec<Output>) {
        let mut n = Self::bare(cfg, me, addr, info, threshold_bps, seed);
        n.phase = Phase::Active;
        n.level = Level::TOP;
        n.peers = PeerList::new(Prefix::EMPTY);
        let mut outs = n.startup_timers();
        // Joiners arm the reconcile chain post-join; a seed must arm it
        // here or it never participates in §4.5 anti-entropy — and a
        // seed erased from every list by an asymmetric link failure can
        // only re-announce itself through this chain.
        if n.cfg.reconcile_interval_us > 0 {
            outs.push(Output::timer(n.cfg.reconcile_interval_us, Timer::Reconcile));
        }
        (n, outs)
    }

    /// Creates a joining node and emits §4.3 step 1 (contact the
    /// bootstrap node).
    pub fn new_joining(
        cfg: ProtocolConfig,
        me: NodeId,
        addr: Addr,
        info: Bytes,
        threshold_bps: f64,
        bootstrap: Target,
        seed: u64,
    ) -> (Self, Vec<Output>) {
        let mut n = Self::bare(cfg, me, addr, info, threshold_bps, seed);
        n.phase = Phase::FindingTop;
        let mut outs = Vec::new();
        let msg = Message::FindTop { joiner: me };
        n.send_rpc(&mut outs, bootstrap, msg, RpcKind::JoinFindTop, 0);
        (n, outs)
    }

    fn bare(
        cfg: ProtocolConfig,
        me: NodeId,
        addr: Addr,
        info: Bytes,
        threshold_bps: f64,
        seed: u64,
    ) -> Self {
        let window = cfg.bandwidth_window_us;
        let t = cfg.top_list_size;
        NodeMachine {
            cfg,
            me,
            addr,
            info,
            level: Level::MAX,
            peers: PeerList::new(Prefix::EMPTY),
            tops: TopList::new(t),
            threshold_bps,
            phase: Phase::FindingTop,
            seq: 0,
            dedup: Dedup::default(),
            pending: BTreeMap::new(),
            next_token: 1,
            meter: BandwidthMeter::new(window),
            lifetimes: LifetimeStats::default(),
            stats: NodeStats::default(),
            rng: seed | 1,
            report_dead: Vec::new(),
            parked_report: None,
            last_self_refresh_us: 0,
            last_shift_us: 0,
            adapt_pressure: 0,
            fatal_error: None,
            #[cfg(any(test, feature = "invariants"))]
            gap13_bug_reintroduced: false,
            #[cfg(feature = "trace")]
            trace: NodeTrace::new(me.0),
        }
    }

    /// The periodic timers an active node runs (armed once, on becoming
    /// active; each re-arms itself in `on_timer`).
    fn startup_timers(&self) -> Vec<Output> {
        vec![
            Output::timer(self.cfg.probe_interval_us, Timer::Probe),
            Output::timer(self.cfg.bandwidth_window_us, Timer::Adapt),
            Output::timer(self.cfg.bandwidth_window_us, Timer::Refresh),
            Output::timer(self.cfg.bandwidth_window_us, Timer::Expire),
        ]
    }

    /// Deliberately reintroduces the DESIGN.md gap-13 bug (the
    /// refutation-invisible false obituary): the failure detector stops
    /// sending the condemned node its courtesy obituary copy, and a node
    /// that somehow hears its own removal forwards it instead of
    /// refuting. Only exists for the model checker's regression tests —
    /// `peerwindow-mc` must keep catching this bug with a shrunk trace.
    #[cfg(any(test, feature = "invariants"))]
    pub fn reintroduce_gap13_false_obituary_bug(&mut self) {
        self.gap13_bug_reintroduced = true;
    }

    /// Whether the gap-13 mutation switch is set (always false in
    /// production builds, where the switch is compiled out).
    #[inline]
    fn gap13_suppressed(&self) -> bool {
        #[cfg(any(test, feature = "invariants"))]
        {
            self.gap13_bug_reintroduced
        }
        #[cfg(not(any(test, feature = "invariants")))]
        {
            false
        }
    }

    /// Turns structured tracing on or off. Machines start with tracing
    /// off so embedders that never drain don't grow the buffer.
    #[cfg(feature = "trace")]
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Drains buffered trace records into `out`.
    #[cfg(feature = "trace")]
    pub fn take_trace(&mut self, out: &mut Vec<peerwindow_trace::TraceRecord>) {
        self.trace.drain_into(out);
    }

    /// Emits one trace record at the machine's current level.
    #[cfg(feature = "trace")]
    #[inline]
    fn tr(&mut self, cause: CauseId, kind: TraceEventKind) {
        if self.trace.is_enabled() {
            self.trace.emit(self.level.0, kind, cause);
        }
    }

    /// The causality id carried by an event-bearing message, if any.
    #[cfg(feature = "trace")]
    fn trace_cause(msg: &Message) -> CauseId {
        match msg {
            Message::Report { event } | Message::Multicast { event, .. } => {
                CauseId::new(event.subject.0, event.seq)
            }
            Message::ReportAck { key, .. } | Message::MulticastAck { key } => {
                CauseId::new(key.0 .0, key.1)
            }
            _ => CauseId::NONE,
        }
    }

    /// The trace class of a state-event kind.
    #[cfg(feature = "trace")]
    fn trace_event_class(kind: &EventKind) -> EventClass {
        match kind {
            EventKind::Join => EventClass::Join,
            EventKind::Leave => EventClass::Leave,
            EventKind::LevelShift { .. } => EventClass::LevelShift,
            EventKind::InfoChange => EventClass::InfoChange,
            EventKind::Refresh => EventClass::Refresh,
        }
    }

    /// Terminates the machine with a typed error: records it, emits
    /// [`Output::Fatal`], and stops accepting input.
    fn fail(&mut self, outs: &mut Vec<Output>, err: ProtocolError) {
        self.fatal_error = Some(err);
        outs.push(Output::Fatal(err.as_str()));
        self.phase = Phase::Left;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// This node's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Current level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Current eigenstring.
    pub fn eigenstring(&self) -> Prefix {
        self.level.eigenstring(self.me)
    }

    /// The peer list (read-only).
    pub fn peers(&self) -> &PeerList {
        &self.peers
    }

    /// The top-node list (read-only).
    pub fn tops(&self) -> &TopList {
        &self.tops
    }

    /// Whether the node has completed joining and not left.
    pub fn is_active(&self) -> bool {
        self.phase == Phase::Active
    }

    /// Whether the node has left the system (gracefully, after draining
    /// its departure announcement, or terminally on a fatal error). A
    /// left machine ignores all further input; harnesses may reap it.
    pub fn has_left(&self) -> bool {
        self.phase == Phase::Left
    }

    /// The typed error that terminated the machine, if it died on one.
    pub fn fatal_error(&self) -> Option<ProtocolError> {
        self.fatal_error
    }

    /// Whether the node believes it is a top node of its part: no
    /// *covering* entry of its top list (one whose eigenstring prefixes
    /// our id) is stronger than us. Non-covering entries belong to other
    /// parts and say nothing about our own part's hierarchy.
    pub fn believes_top(&self) -> bool {
        self.tops
            .entries()
            .iter()
            .filter(|t| t.id != self.me && t.id.prefix(t.level.value()).contains(self.me))
            .all(|t| self.level.at_least_as_strong_as(t.level))
    }

    /// Traffic counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Attached application info.
    pub fn info(&self) -> &Bytes {
        &self.info
    }

    /// Current bandwidth threshold (bps).
    pub fn threshold_bps(&self) -> f64 {
        self.threshold_bps
    }

    /// Number of outstanding RPCs (diagnostics / quiescence detection).
    pub fn pending_rpc_count(&self) -> usize {
        self.pending.len()
    }

    /// The target of the outstanding ring probe, if any (diagnostics).
    pub fn pending_probe_target(&self) -> Option<NodeId> {
        self.pending
            .values()
            .find(|p| matches!(p.kind, RpcKind::Probe))
            .map(|p| p.target.id)
    }

    /// This node as a multicast [`Target`].
    pub fn as_target(&self) -> Target {
        Target {
            id: self.me,
            addr: self.addr,
            level: self.level,
        }
    }

    // ------------------------------------------------------------------
    // Entry point and dispatch
    // ------------------------------------------------------------------

    /// Feeds one input at protocol time `now_us`, returning the effects.
    pub fn handle(&mut self, now_us: u64, input: Input) -> Vec<Output> {
        if self.phase == Phase::Left {
            return Vec::new();
        }
        if self.phase == Phase::Leaving && !self.drains(&input) {
            return Vec::new();
        }
        #[cfg(feature = "trace")]
        self.trace.set_now(now_us);
        let mut outs = Vec::new();
        match input {
            Input::Message {
                from,
                from_addr,
                msg,
            } => {
                self.stats.rx_msgs += 1;
                let bits = msg.wire_bits(&self.cfg);
                self.stats.rx_bits += bits;
                #[cfg(feature = "trace")]
                self.tr(
                    Self::trace_cause(&msg),
                    TraceEventKind::MsgRecv {
                        from: from.0,
                        class: msg.trace_class(),
                        bits,
                    },
                );
                // The adaptation meter tracks the *steady* maintenance
                // flow the level controls (§2's W). One-off bulk
                // transfers (peer-list downloads) would spike the window
                // and make every raise immediately un-raise itself; and
                // the §4.1 probe heartbeat (one probe per interval, plus
                // whatever probes others aim at us) is level-independent
                // load a node cannot shed by descending, so counting it
                // pins a small-budget node at the bottom forever once
                // probe traffic alone exceeds its grow threshold.
                if !matches!(
                    msg,
                    Message::DownloadReply { .. } | Message::Probe | Message::ProbeAck
                ) {
                    self.meter.note(now_us, bits);
                }
                self.on_message(now_us, from, from_addr, msg, &mut outs);
            }
            Input::Timer(t) => self.on_timer(now_us, t, &mut outs),
            Input::Command(c) => self.on_command(now_us, c, &mut outs),
        }
        if self.phase == Phase::Leaving && self.pending.is_empty() {
            self.phase = Phase::Left;
        }
        outs
    }

    /// Inputs a gracefully-leaving node still processes: the RPC plumbing
    /// that carries its own departure announcement to completion —
    /// replies that resolve pending calls, and the timeouts that retry or
    /// redirect them. Everything else (new probes, commands, serving
    /// queries) is refused; the node has already announced it is gone.
    fn drains(&self, input: &Input) -> bool {
        match input {
            Input::Timer(t) => matches!(t, Timer::RpcTimeout(_)),
            Input::Message { msg, .. } => matches!(
                msg,
                Message::MulticastAck { .. }
                    | Message::ReportAck { .. }
                    | Message::ProbeAck
                    | Message::TopListReply { .. }
            ),
            Input::Command(_) => false,
        }
    }

    fn on_message(
        &mut self,
        now_us: u64,
        from: NodeId,
        from_addr: Addr,
        msg: Message,
        outs: &mut Vec<Output>,
    ) {
        let reply_to = Target {
            id: from,
            addr: from_addr,
            level: Level::MAX, // unknown; replies do not need it
        };
        match msg {
            Message::Probe => self.send(outs, reply_to, Message::ProbeAck, 0),
            Message::ProbeAck => self.on_probe_ack(from),
            Message::Report { event } => self.on_report(now_us, reply_to, event, outs),
            Message::ReportAck { key, tops } => self.on_report_ack(key, tops),
            Message::Multicast { event, step } => {
                self.on_multicast(now_us, reply_to, event, step, outs)
            }
            Message::MulticastAck { key } => self.on_multicast_ack(from, key),
            Message::FindTop { joiner } => self.on_find_top(reply_to, joiner, outs),
            Message::FindTopReply { tops } => self.on_find_top_reply(tops, outs),
            Message::LevelQuery => self.on_level_query(now_us, reply_to, outs),
            Message::LevelQueryReply { level, cost_bps } => {
                self.on_level_query_reply(level, cost_bps, outs)
            }
            Message::Download { scope } => self.on_download(now_us, reply_to, scope, outs),
            Message::DownloadReply {
                scope,
                pointers,
                tops,
            } => self.on_download_reply(now_us, scope, pointers, tops, outs),
            Message::TopListRequest => self.send(
                outs,
                reply_to,
                Message::TopListReply {
                    tops: self.piggyback_tops(),
                },
                0,
            ),
            Message::TopListReply { tops } => self.on_top_list_reply(now_us, tops, outs),
        }
    }

    /// Periodic timers run their operation on an active node only, and
    /// re-arm in any phase (`Reconcile` only when its interval is set).
    fn on_timer(&mut self, now_us: u64, timer: Timer, outs: &mut Vec<Output>) {
        let active = self.phase == Phase::Active;
        match timer {
            Timer::Probe => {
                if active {
                    self.probe_successor(outs);
                }
                outs.push(Output::timer(self.cfg.probe_interval_us, timer));
            }
            Timer::RpcTimeout(token) => self.on_rpc_timeout(now_us, token, outs),
            Timer::Adapt => {
                if active {
                    self.adapt_level(now_us, outs);
                }
                outs.push(Output::timer(self.cfg.bandwidth_window_us, timer));
            }
            Timer::Refresh => {
                if active {
                    self.refresh_if_due(now_us, outs);
                }
                outs.push(Output::timer(self.cfg.bandwidth_window_us, timer));
            }
            Timer::Expire => {
                if active {
                    self.expire_stale(now_us);
                }
                outs.push(Output::timer(self.cfg.bandwidth_window_us, timer));
            }
            Timer::Reconcile => {
                if self.cfg.reconcile_interval_us > 0 {
                    outs.push(Output::timer(self.cfg.reconcile_interval_us, timer));
                }
                if active {
                    self.reconcile(now_us, outs);
                }
            }
        }
    }

    fn on_command(&mut self, now_us: u64, cmd: Command, outs: &mut Vec<Output>) {
        match cmd {
            Command::ChangeInfo(info) => self.change_info(now_us, info, outs),
            Command::SetThreshold(bps) => self.threshold_bps = bps,
            Command::SetLevel(target) => self.set_level(now_us, target, outs),
            Command::Shutdown => self.shutdown(now_us, outs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::pointer::Pointer;
    #[cfg(feature = "trace")]
    use peerwindow_trace::JoinPhase;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// A deliberately tiny event loop: enough to drive a handful of
    /// machines end-to-end without the full simulator.
    struct MiniNet {
        machines: Vec<NodeMachine>,
        queue: BinaryHeap<std::cmp::Reverse<(u64, u64, usize, MiniInput)>>,
        seq: u64,
        now: u64,
        latency_us: u64,
        /// Addresses that silently drop all traffic (crashed nodes).
        dead: Vec<bool>,
        outputs: Vec<(usize, Output)>,
        /// Message payloads, parked outside the ordered queue key.
        parked: Vec<(NodeId, Addr, Message)>,
        /// Every send, in emission order: sender index, target, message.
        sent: Vec<(usize, Target, Message)>,
        /// `MulticastAck`s from the first machine to the second are lost.
        lost_acks: Option<(usize, usize)>,
    }

    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum MiniInput {
        Msg { from: usize, msg_idx: usize },
        Timer(u8, u64), // discriminant, token
    }

    impl MiniNet {
        fn new() -> Self {
            MiniNet {
                machines: Vec::new(),
                queue: BinaryHeap::new(),
                seq: 0,
                now: 0,
                latency_us: 10_000, // 10 ms
                dead: Vec::new(),
                outputs: Vec::new(),
                parked: Vec::new(),
                sent: Vec::new(),
                lost_acks: None,
            }
        }

        fn cfg() -> ProtocolConfig {
            ProtocolConfig {
                probe_interval_us: 1_000_000,
                rpc_timeout_us: 300_000,
                processing_delay_us: 1_000,
                bandwidth_window_us: 5_000_000,
                ..ProtocolConfig::default()
            }
        }

        fn add_seed(&mut self, raw_id: u128) -> usize {
            let idx = self.machines.len();
            let (m, outs) = NodeMachine::new_seed(
                Self::cfg(),
                NodeId(raw_id),
                Addr(idx as u64),
                Bytes::new(),
                1e9,
                idx as u64 + 1,
            );
            self.machines.push(m);
            self.dead.push(false);
            self.process(idx, outs);
            idx
        }

        fn add_joiner(&mut self, raw_id: u128, bootstrap: usize, threshold: f64) -> usize {
            let idx = self.machines.len();
            let boot = self.machines[bootstrap].as_target();
            let (m, outs) = NodeMachine::new_joining(
                Self::cfg(),
                NodeId(raw_id),
                Addr(idx as u64),
                Bytes::new(),
                threshold,
                boot,
                idx as u64 + 1,
            );
            self.machines.push(m);
            self.dead.push(false);
            self.process(idx, outs);
            idx
        }

        fn process(&mut self, from: usize, outs: Vec<Output>) {
            for o in outs {
                match o {
                    Output::Send { to, msg, delay_us } => {
                        // Resolve destination machine by address.
                        let dest = to.addr.0 as usize;
                        self.sent.push((from, to, msg.clone()));
                        if matches!(msg, Message::MulticastAck { .. })
                            && self.lost_acks == Some((from, dest))
                        {
                            continue;
                        }
                        self.seq += 1;
                        let at = self.now + delay_us + self.latency_us;
                        let msg_idx = self.parked.len();
                        self.parked.push((
                            self.machines[from].id(),
                            self.machines[from].addr(),
                            msg,
                        ));
                        self.queue.push(std::cmp::Reverse((
                            at,
                            self.seq,
                            dest,
                            MiniInput::Msg { from, msg_idx },
                        )));
                    }
                    Output::SetTimer { delay_us, timer } => {
                        self.seq += 1;
                        let (d, tok) = encode_timer(timer);
                        self.queue.push(std::cmp::Reverse((
                            self.now + delay_us,
                            self.seq,
                            from,
                            MiniInput::Timer(d, tok),
                        )));
                    }
                    other => self.outputs.push((from, other)),
                }
            }
        }

        fn run_until(&mut self, t_us: u64) {
            while let Some(std::cmp::Reverse((at, _, dest, input))) = self.queue.peek().cloned() {
                if at > t_us {
                    break;
                }
                self.queue.pop();
                self.now = at;
                if self.dead[dest] {
                    continue;
                }
                let inp = match input {
                    MiniInput::Msg { msg_idx, .. } => {
                        let (from, from_addr, msg) = self.parked[msg_idx].clone();
                        Input::Message {
                            from,
                            from_addr,
                            msg,
                        }
                    }
                    MiniInput::Timer(d, tok) => Input::Timer(decode_timer(d, tok)),
                };
                let outs = self.machines[dest].handle(self.now, inp);
                self.process(dest, outs);
            }
            self.now = t_us;
        }

        fn send_command(&mut self, idx: usize, cmd: Command) {
            let outs = self.machines[idx].handle(self.now, Input::Command(cmd));
            self.process(idx, outs);
        }
    }

    fn encode_timer(t: Timer) -> (u8, u64) {
        match t {
            Timer::Probe => (0, 0),
            Timer::RpcTimeout(tok) => (1, tok),
            Timer::Adapt => (2, 0),
            Timer::Refresh => (3, 0),
            Timer::Expire => (4, 0),
            Timer::Reconcile => (5, 0),
        }
    }

    fn decode_timer(d: u8, tok: u64) -> Timer {
        match d {
            0 => Timer::Probe,
            1 => Timer::RpcTimeout(tok),
            2 => Timer::Adapt,
            3 => Timer::Refresh,
            5 => Timer::Reconcile,
            _ => Timer::Expire,
        }
    }

    #[test]
    fn seed_plus_joiners_reach_full_mutual_knowledge() {
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000); // "001…"
        let ids = [
            0x7000_0000_0000_0000_0000_0000_0000_0000u128, // 0111…
            0xB000_0000_0000_0000_0000_0000_0000_0000u128, // 1011…
            0xD000_0000_0000_0000_0000_0000_0000_0000u128, // 1101…
        ];
        let mut idxs = vec![a];
        for (k, &raw) in ids.iter().enumerate() {
            net.run_until((k as u64 + 1) * 2_000_000);
            idxs.push(net.add_joiner(raw, a, 1e9)); // huge budget → level 0
        }
        net.run_until(20_000_000);
        // Everyone active, level 0, and knows all 3 others.
        for &i in &idxs {
            let m = &net.machines[i];
            assert!(m.is_active(), "machine {i} not active");
            assert_eq!(m.level(), Level::TOP);
            assert_eq!(m.peers().len(), 3, "machine {i} has {}", m.peers().len());
        }
        // Joined outputs emitted.
        let joins = net
            .outputs
            .iter()
            .filter(|(_, o)| matches!(o, Output::Joined))
            .count();
        assert_eq!(joins, 3);
    }

    #[test]
    fn weak_joiner_settles_at_estimated_level_and_downloads_subset() {
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000);
        // Give the seed measurable cost: a couple of strong joiners first.
        let b = net.add_joiner(0xB000_0000_0000_0000_0000_0000_0000_0000, a, 1e9);
        net.run_until(5_000_000);
        // Weak node with a tiny budget: its estimate should be > 0 … but
        // with a fresh system the measured W_T may be ~0, so the estimate
        // degenerates to the top's level. We force a ratio by lowering the
        // threshold *after* joining and letting adaptation act — here we
        // simply verify the join completes and scope matches level.
        let c = net.add_joiner(0xE000_0000_0000_0000_0000_0000_0000_0000, b, 1e9);
        net.run_until(15_000_000);
        let m = &net.machines[c];
        assert!(m.is_active());
        assert_eq!(m.peers().scope(), m.eigenstring());
        // All peers in the list share the eigenstring.
        for p in m.peers().iter() {
            assert!(m.eigenstring().contains(p.id));
        }
    }

    #[test]
    fn silent_failure_is_detected_and_multicast() {
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000);
        let b = net.add_joiner(0x7000_0000_0000_0000_0000_0000_0000_0000, a, 1e9);
        let c = net.add_joiner(0xB000_0000_0000_0000_0000_0000_0000_0000, a, 1e9);
        net.run_until(10_000_000);
        assert_eq!(net.machines[a].peers().len(), 2);
        // Crash b silently.
        net.dead[b] = true;
        net.run_until(40_000_000);
        let dead_id = net.machines[b].id();
        assert!(
            !net.machines[a].peers().contains(dead_id),
            "a still lists the dead node"
        );
        assert!(
            !net.machines[c].peers().contains(dead_id),
            "c still lists the dead node"
        );
        let detections = net
            .outputs
            .iter()
            .filter(|(_, o)| matches!(o, Output::FailureDetected { .. }))
            .count();
        assert!(detections >= 1);
    }

    #[test]
    fn off_level_lonely_peer_crash_is_detected() {
        // The PR 7 depth-4 finding: a node alone in its eigenstring
        // group sits in nobody's §4.1 ring, so a silent crash there was
        // never detected (and with no lifetime samples at its level,
        // expiry never fired either). Cross-level fallback probing must
        // reach it anyway.
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000); // 001…
        let b = net.add_joiner(0xB000_0000_0000_0000_0000_0000_0000_0000, a, 1e9); // 1011…
        let c = net.add_joiner(0xD000_0000_0000_0000_0000_0000_0000_0000, a, 1e9); // 1101…
        net.run_until(10_000_000);
        // Shift the seed to level 1. Its group "0…" holds no other node,
        // so no ring successor anywhere points at it.
        net.send_command(a, Command::SetLevel(Level::new(1)));
        net.run_until(20_000_000);
        let a_id = net.machines[a].id();
        assert_eq!(net.machines[a].level(), Level::new(1));
        assert!(
            net.machines[b].peers().contains(a_id),
            "b lost the seed after its shift"
        );
        // Crash the now-lonely seed silently.
        net.dead[a] = true;
        net.run_until(60_000_000);
        for &i in &[b, c] {
            assert!(
                !net.machines[i].peers().contains(a_id),
                "machine {i} still holds the departed off-level pointer"
            );
        }
    }

    #[test]
    fn unacked_forward_is_dropped_verified_and_redirected() {
        // §4.2 give-up at the machine level: d receives a's forward but
        // its acks are lost, so after max_attempts a drops d, probes it,
        // and re-sends the same (event, step) into the same flipped range.
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000); // 0010…
        let b = net.add_joiner(0x6000_0000_0000_0000_0000_0000_0000_0000, a, 1e9); // 0110…
        let d = net.add_joiner(0x8000_0000_0000_0000_0000_0000_0000_0000, a, 1e9); // 1000…
        let e = net.add_joiner(0xC000_0000_0000_0000_0000_0000_0000_0000, a, 1e9); // 1100…
        net.add_joiner(0xE000_0000_0000_0000_0000_0000_0000_0000, a, 1e9); // 1110…
        net.run_until(10_000_000);
        let id = |i: usize| net.machines[i].id();
        let (a_id, b_id, d_id, e_id) = (id(a), id(b), id(d), id(e));
        assert_eq!(net.machines[a].peers().len(), 4);
        let before = net.machines[a].stats();
        net.lost_acks = Some((d, a));
        let from = net.sent.len();
        net.send_command(a, Command::ChangeInfo(Bytes::from_static(b"v2")));
        net.run_until(15_000_000);

        let m = &net.machines[a];
        assert_eq!(m.stats().stale_dropped, before.stale_dropped + 1);
        assert!(!m.peers().contains(d_id), "the unacked pointer was kept");
        let sends: Vec<(NodeId, &Message)> = net.sent[from..]
            .iter()
            .filter(|(i, _, _)| *i == a)
            .map(|(_, to, msg)| (to.id, msg))
            .collect();
        let forwards = |to: NodeId| -> Vec<(StateEvent, u8)> {
            sends
                .iter()
                .filter_map(|&(t, msg)| match msg {
                    Message::Multicast { event, step } if t == to && event.subject == a_id => {
                        Some((event.clone(), *step))
                    }
                    _ => None,
                })
                .collect()
        };
        // Three attempts at d, all for the step-1 range "1".
        let to_d = forwards(d_id);
        assert_eq!(to_d.len() as u32, m.cfg.max_attempts, "{to_d:?}");
        assert!(to_d.iter().all(|f| f == &to_d[0]));
        let (event, step) = to_d[0].clone();
        assert_eq!((event.kind, step), (EventKind::InfoChange, 1));
        // The acked forward to b went out once.
        assert_eq!(forwards(b_id).len(), 1);
        // After the last attempt: a verification probe to d, then the
        // same event and step to the strongest remaining member of "1".
        let last = sends
            .iter()
            .rposition(|&(t, msg)| t == d_id && matches!(msg, Message::Multicast { .. }))
            .unwrap();
        let probe = sends
            .iter()
            .position(|&(t, msg)| t == d_id && matches!(msg, Message::Probe))
            .expect("no verification probe to the dropped node");
        assert!(probe > last);
        let range = Prefix::from_bits_str("1").unwrap();
        let strongest = m.peers().strongest_audience_in_range(range, a_id, a_id);
        assert_eq!(strongest.map(|p| p.id), Some(e_id));
        assert_eq!(forwards(e_id), vec![(event, step)]);
        let redirect = sends
            .iter()
            .position(|&(t, msg)| t == e_id && matches!(msg, Message::Multicast { .. }))
            .unwrap();
        assert!(redirect > probe);
    }

    #[test]
    fn info_change_propagates_to_audience() {
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000);
        let b = net.add_joiner(0x7000_0000_0000_0000_0000_0000_0000_0000, a, 1e9);
        net.run_until(5_000_000);
        net.send_command(b, Command::ChangeInfo(Bytes::from_static(b"os:plan9")));
        net.run_until(10_000_000);
        let b_id = net.machines[b].id();
        let entry = net.machines[a].peers().get(b_id).unwrap();
        assert_eq!(&entry.info[..], b"os:plan9");
    }

    #[test]
    fn graceful_shutdown_announces_leave() {
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000);
        let b = net.add_joiner(0x7000_0000_0000_0000_0000_0000_0000_0000, a, 1e9);
        net.run_until(5_000_000);
        let b_id = net.machines[b].id();
        assert!(net.machines[a].peers().contains(b_id));
        net.send_command(b, Command::Shutdown);
        net.run_until(8_000_000);
        assert!(!net.machines[a].peers().contains(b_id));
        // A left machine ignores further input.
        assert!(net.machines[b]
            .handle(net.now, Input::Timer(Timer::Probe))
            .is_empty());
    }

    #[test]
    fn bandwidth_meter_windows_correctly() {
        let mut m = BandwidthMeter::new(6_000_000); // 6 s window
        m.note(0, 6_000); // 6 kbit at t=0
        assert!((m.bps(1_000_000) - 1_000.0).abs() < 1.0); // 6 kbit / 6 s
                                                           // After the window passes, the sample expires.
        assert!(m.bps(13_000_000) < 1.0);
    }

    #[test]
    fn lifetime_stats_mean() {
        let mut lt = LifetimeStats::default();
        assert!(lt.mean_us(Level::TOP).is_none());
        lt.record(Level::TOP, 100);
        lt.record(Level::TOP, 300);
        assert_eq!(lt.mean_us(Level::TOP), Some(200));
        lt.record(Level::new(2), 500);
        assert_eq!(lt.mean_us(Level::new(2)), Some(500));
        // Levels without samples fall back to the overall mean.
        assert_eq!(lt.mean_us(Level::new(1)), Some(300));
        // The per-level table expiry prices once says the same.
        let (per_level, overall) = lt.means_us();
        assert_eq!(per_level, [Some(200), Some(300), Some(500)]);
        assert_eq!(overall, lt.mean_us(Level::new(5)));
        assert_eq!(LifetimeStats::default().means_us(), (vec![], None));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn trace_records_join_dissection_and_sends() {
        use peerwindow_trace::TraceEventKind as K;
        let mut net = MiniNet::new();
        let seed = net.add_seed(0x1111_u128 << 64);
        net.run_until(1_000_000);
        let joiner = net.add_joiner(0x9999_u128 << 64, seed, 1e9);
        for m in &mut net.machines {
            m.set_tracing(true);
        }
        net.run_until(10_000_000);
        assert!(net.machines[joiner].is_active());
        let mut log = Vec::new();
        for m in &mut net.machines {
            m.take_trace(&mut log);
        }
        let kinds: Vec<&str> = log.iter().map(|r| r.kind.name()).collect();
        // The joiner walked the §4.3 dissection (step 1 completed before
        // tracing was enabled in add_joiner's constructor, steps 2–4 are
        // recorded), probes fired, and message traffic was classified.
        assert!(kinds.contains(&"join_step"));
        assert!(kinds.contains(&"probe"));
        assert!(kinds.contains(&"msg_send"));
        assert!(kinds.contains(&"msg_recv"));
        let phases: Vec<JoinPhase> = log
            .iter()
            .filter_map(|r| match r.kind {
                K::JoinStep { phase } if r.node == net.machines[joiner].id().0 => Some(phase),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            vec![
                JoinPhase::LevelQuery,
                JoinPhase::Download,
                JoinPhase::Active
            ]
        );
        // The join multicast is causally keyed by the joiner's Join event.
        let join_cause = CauseId::new(net.machines[joiner].id().0, 1);
        assert!(log
            .iter()
            .any(|r| r.cause == join_cause && matches!(r.kind, K::MsgSend { .. })));
        // Untraced machines emit nothing once drained.
        let mut rest = Vec::new();
        net.machines[seed].set_tracing(false);
        net.run_until(12_000_000);
        net.machines[joiner].take_trace(&mut rest);
        assert!(!rest.is_empty());
    }

    #[test]
    fn backoff_waits_grow_cap_and_jitter_deterministically() {
        let mut net = MiniNet::new();
        let seed = net.add_seed(0x80);
        let m = &net.machines[seed];
        let base = m.cfg.rpc_timeout_us;
        let jitter = |wait: u64| (wait as f64 * m.cfg.rpc_backoff_jitter) as u64;
        for attempt in 1..=6u32 {
            let wait = m.backoff_wait_us(attempt);
            let nominal = ((base as f64 * m.cfg.rpc_backoff_mult.powi(attempt as i32 - 1)) as u64)
                .min(m.cfg.rpc_backoff_max_us);
            assert!(
                (nominal..=nominal + jitter(nominal)).contains(&wait),
                "attempt {attempt}: wait {wait} outside [{nominal}, +jitter]"
            );
            // Pure function of machine state: re-asking is identical.
            assert_eq!(wait, m.backoff_wait_us(attempt));
        }
        // The cap binds eventually (2^k · base exceeds it).
        assert!(
            m.backoff_wait_us(40) <= m.cfg.rpc_backoff_max_us + jitter(m.cfg.rpc_backoff_max_us)
        );
        // mult = 1 restores the paper's fixed-interval retry (no growth).
        let mut fixed = net.machines.remove(seed);
        fixed.cfg.rpc_backoff_mult = 1.0;
        fixed.cfg.rpc_backoff_jitter = 0.0;
        assert_eq!(fixed.backoff_wait_us(1), base);
        assert_eq!(fixed.backoff_wait_us(5), base);
    }

    /// An active machine at `level` holding exactly `list`: all the
    /// lonely-peer selection reads.
    fn machine_holding(me: NodeId, level: Level, list: &[(NodeId, Level)]) -> NodeMachine {
        let (mut m, _) = NodeMachine::new_seed(MiniNet::cfg(), me, Addr(0), Bytes::new(), 1e9, 1);
        m.level = level;
        for &(id, level) in list {
            m.peers.insert(Pointer::new(id, Addr(7), level));
        }
        m
    }

    /// Fast selection ≡ reference (same targets, same order), and the
    /// index-read singletons ≡ the `count_group == 1` definition.
    fn assert_lonely_matches_reference(m: &NodeMachine) {
        assert_eq!(m.lonely_peers(), m.lonely_reference(), "me {:?}", m.me);
        let by_count: Vec<(NodeId, Level)> = m
            .peers
            .iter()
            .filter(|p| m.peers.count_group(p.level.eigenstring(p.id), p.level) == 1)
            .map(|p| (p.id, p.level))
            .collect();
        assert_eq!(m.peers.group_singletons(), by_count);
        assert!(m.peers.index_is_consistent());
    }

    #[test]
    fn lonely_selection_edge_cases() {
        let id = |bits: &str| Prefix::from_bits_str(bits).unwrap().range_start();
        let me = id("1011");
        // Empty list.
        let m = machine_holding(me, Level::TOP, &[]);
        assert_lonely_matches_reference(&m);
        assert!(m.lonely_peers().is_empty());
        // A lone level-0 entry is a singleton group; seen from level 1
        // it is ours to probe, seen from level 0 it is our own group.
        let lone = [(id("0010"), Level::TOP)];
        let m = machine_holding(me, Level::new(1), &lone);
        assert_lonely_matches_reference(&m);
        assert_eq!(m.lonely_peers().len(), 1);
        let m = machine_holding(me, Level::TOP, &lone);
        assert_lonely_matches_reference(&m);
        assert!(m.lonely_peers().is_empty());
        // Two level-0 entries are each other's ring: nobody is lonely.
        // The level-2 singleton 0100 is XOR-nearer to 0110 than to us.
        let m = machine_holding(
            me,
            Level::new(1),
            &[
                (id("0010"), Level::TOP),
                (id("0111"), Level::TOP),
                (id("0100"), Level::new(2)),
                (id("0110"), Level::new(3)),
            ],
        );
        assert_lonely_matches_reference(&m);
        assert!(m.lonely_peers().is_empty());
        // From the bottom half 0100 is ours and 1110 is nearer to 0100
        // than to us; from the top half we are the nearest holder of both.
        for (me, ours) in [(id("0101"), 1), (id("1101"), 2)] {
            let m = machine_holding(
                me,
                Level::TOP,
                &[(id("0100"), Level::new(2)), (id("1110"), Level::new(2))],
            );
            assert_lonely_matches_reference(&m);
            assert_eq!(m.lonely_peers().len(), ours, "me {me:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lists with clustered prefixes — eigenstring groups of
        /// size 1, 2 and many at levels 0–7 — seen from a `me` in either
        /// half of the id space, inside or beside the clusters.
        #[test]
        fn lonely_selection_matches_reference(
            pool in proptest::collection::vec(any::<u128>(), 6),
            entries in proptest::collection::vec((0usize..8, any::<u128>(), 0u8..=7), 0..48),
            me_spec in (0usize..8, any::<u128>(), 0u8..=7),
            me_top_half in any::<bool>(),
        ) {
            // Clusters 0–5 share the first 3–12 bits of a pool id; 6 and
            // 7 are uniform ids.
            let clustered = |(cluster, tail, _): (usize, u128, u8)| match pool.get(cluster) {
                Some(&base) => {
                    let shared = 3 + (tail % 10) as u32;
                    let high = u128::MAX << (128 - shared);
                    NodeId((base & high) | (tail & !high))
                }
                None => NodeId(tail),
            };
            let me = clustered(me_spec).with_bit(0, me_top_half);
            let list: Vec<(NodeId, Level)> = entries
                .iter()
                .map(|&e| (clustered(e), Level::new(e.2)))
                .filter(|&(id, _)| id != me)
                .collect();
            let m = machine_holding(me, Level::new(me_spec.2), &list);
            assert_lonely_matches_reference(&m);

            // The same list with level 0 thinned to a lone entry.
            let mut lone = m.clone();
            let tops: Vec<NodeId> = lone
                .peers
                .iter()
                .filter(|p| p.level.is_top())
                .map(|p| p.id)
                .collect();
            for &id in tops.iter().skip(1) {
                lone.peers.remove(id);
            }
            assert_lonely_matches_reference(&lone);

            // Our own group a singleton: a peer beside us at our level,
            // every other member of that group gone.
            let mut own = m.clone();
            let mates: Vec<NodeId> = own
                .peers
                .iter()
                .filter(|p| p.level == own.level && own.eigenstring().contains(p.id))
                .map(|p| p.id)
                .collect();
            for id in mates {
                own.peers.remove(id);
            }
            own.peers.insert(Pointer::new(me.flip_bit(127), Addr(7), own.level));
            assert_lonely_matches_reference(&own);
        }
    }
}
