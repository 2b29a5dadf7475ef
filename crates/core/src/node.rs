//! The PeerWindow node — a sans-IO protocol state machine.
//!
//! [`NodeMachine`] implements the complete protocol of §4: the four-step
//! joining process, ring-probing failure detection, tree multicast with
//! acknowledgements / retries / redirection, lazy top-node-list
//! maintenance, autonomic level adaptation, and the §4.6 refresh/expiry
//! mechanism. It performs no I/O and reads no clock: the embedder (a real
//! UDP transport, or the discrete-event simulator in `peerwindow-sim`)
//! feeds it `(now, Input)` pairs and executes the returned [`Output`]s.
//! This makes every protocol decision deterministic and unit-testable.

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::event::{EventKind, StateEvent};
use crate::id::{NodeId, Prefix, ID_BITS};
use crate::level::Level;
use crate::messages::Message;
use crate::model::ModelParams;
use crate::multicast::{forward_steps, Target};
use crate::peer_list::PeerList;
use crate::pointer::{Addr, Pointer};
use crate::top_list::TopList;
use bytes::Bytes;
// Protocol state lives in ordered collections only: iteration order must
// be a pure function of the contents, never of a hasher seed, or two
// identically-seeded simulations diverge (see DESIGN.md, "Determinism &
// invariant contract").
use std::collections::{BTreeMap, BTreeSet};

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, EventClass, JoinPhase, NodeTrace, TraceEventKind};

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

/// Why an RPC was issued — determines the give-up behaviour.
#[derive(Clone, Debug)]
enum RpcKind {
    /// Ring probe; give-up = failure detection (§4.1).
    Probe,
    /// Multicast forward; give-up = drop pointer and redirect (§4.2).
    McastForward {
        event: StateEvent,
        /// The flipped range the target was chosen from.
        range: Prefix,
    },
    /// Event report to a top node; give-up = redirect to another top
    /// (§4.5).
    Report { event: StateEvent },
    /// §4.3 step 1.
    JoinFindTop,
    /// §4.3 step 2.
    JoinLevelQuery,
    /// §4.3 step 3.
    JoinDownload,
    /// Level raise download; give-up = abort the raise.
    RaiseDownload { new_level: Level },
    /// Post-join reconciliation download (see `Timer::Reconcile`);
    /// give-up = skip (the §4.6 refresh eventually heals the list).
    Reconcile,
    /// Fallback top-list fetch (§4.5); `resume` is re-reported on success.
    TopListFetch { resume: Option<StateEvent> },
}

/// A pending request awaiting its reply.
#[derive(Clone, Debug)]
struct PendingRpc {
    target: Target,
    msg: Message,
    attempts: u32,
    kind: RpcKind,
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

/// Per-level observed lifetime accumulators (for `LT_l`, §4.6).
#[derive(Clone, Debug, Default)]
struct LifetimeStats {
    count: Vec<u64>,
    sum_us: Vec<u64>,
}

impl LifetimeStats {
    fn record(&mut self, level: Level, lifetime_us: u64) {
        let l = level.value() as usize;
        if self.count.len() <= l {
            self.count.resize(l + 1, 0);
            self.sum_us.resize(l + 1, 0);
        }
        self.count[l] += 1;
        self.sum_us[l] += lifetime_us;
    }

    /// Mean observed lifetime at `level`; falls back to the overall mean
    /// across levels when this level has no samples yet (a fresh node has
    /// observed few departures, but any timescale beats none for the
    /// §4.6 machinery).
    fn mean_us(&self, level: Level) -> Option<u64> {
        let l = level.value() as usize;
        match self.count.get(l) {
            Some(&c) if c > 0 => Some(self.sum_us[l] / c),
            _ => self.overall_mean_us(),
        }
    }

    /// Mean observed lifetime over all levels.
    fn overall_mean_us(&self) -> Option<u64> {
        let c: u64 = self.count.iter().sum();
        self.sum_us.iter().sum::<u64>().checked_div(c)
    }
}

/// Sliding-window receive-bandwidth meter (six rotating buckets).
#[derive(Clone, Debug)]
struct BandwidthMeter {
    bucket_us: u64,
    buckets: [u64; 6],
    current: usize,
    current_start_us: u64,
}

impl BandwidthMeter {
    fn new(window_us: u64) -> Self {
        BandwidthMeter {
            bucket_us: (window_us / 6).max(1),
            buckets: [0; 6],
            current: 0,
            current_start_us: 0,
        }
    }

    fn rotate_to(&mut self, now_us: u64) {
        while now_us >= self.current_start_us + self.bucket_us {
            self.current = (self.current + 1) % 6;
            self.buckets[self.current] = 0;
            self.current_start_us += self.bucket_us;
        }
    }

    fn note(&mut self, now_us: u64, bits: u64) {
        self.rotate_to(now_us);
        self.buckets[self.current] += bits;
    }

    /// Average bps over the window ending at `now_us`.
    fn bps(&mut self, now_us: u64) -> f64 {
        self.rotate_to(now_us);
        let total: u64 = self.buckets.iter().sum();
        total as f64 / (6.0 * self.bucket_us as f64 / 1e6)
    }
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
    /// Per-subject dedup horizon: highest `(seq, origin_us)` applied,
    /// plus whether the freshest admitted event was a removal. An event
    /// is fresh when its seq OR its origin time exceeds the horizon; the
    /// origin clause lets a live node's later refresh override a false
    /// leave (whose seq is `LEAVE_SEQ` = max). The removal flag guards
    /// top-list admission: a stale piggybacked top list must not re-seed
    /// a node we know departed, because the leave event that purged it
    /// is already inside the horizon and can never fire again.
    seen: BTreeMap<NodeId, (u64, u64, bool)>,
    pending: BTreeMap<u64, PendingRpc>,
    next_token: u64,
    meter: BandwidthMeter,
    lifetimes: LifetimeStats,
    stats: NodeStats,
    rng: u64,
    /// Tops already tried (and failed) for the current report.
    report_dead: Vec<NodeId>,
    /// When we last announced our own state (join, refresh, shift). The
    /// §4.6 refresh fires when `now − last` exceeds `2 · LT_level`.
    last_self_refresh_us: u64,
    /// When we last shifted level. Adaptation pauses for one full
    /// measurement window afterwards: the sliding window still contains
    /// traffic from the old level, and acting on it overshoots.
    last_shift_us: u64,
    /// Event keys whose reports we already forwarded (cycle guard).
    forwarded_reports: BTreeSet<(NodeId, u64)>,
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
            outs.push(Output::SetTimer {
                delay_us: n.cfg.reconcile_interval_us,
                timer: Timer::Reconcile,
            });
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
            seen: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_token: 1,
            meter: BandwidthMeter::new(window),
            lifetimes: LifetimeStats::default(),
            stats: NodeStats::default(),
            rng: seed | 1,
            report_dead: Vec::new(),
            last_self_refresh_us: 0,
            last_shift_us: 0,
            forwarded_reports: BTreeSet::new(),
            adapt_pressure: 0,
            fatal_error: None,
            #[cfg(any(test, feature = "invariants"))]
            gap13_bug_reintroduced: false,
            #[cfg(feature = "trace")]
            trace: NodeTrace::new(me.0),
        }
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
    // Main entry point
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

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

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
            Message::ProbeAck => {
                self.resolve_rpc(|p| matches!(p.kind, RpcKind::Probe) && p.target.id == from);
            }
            Message::Report { event } => {
                // §4.4: the multicast must be rooted at a top node of the
                // *subject's* part. Acknowledge only if we can root it or
                // forward it toward someone who can — a silent drop makes
                // the reporter time out, purge us from its top list, and
                // converge onto its real part top (stale cross-part
                // entries are unverifiable any other way).
                let key = event.key();
                let covers = self.eigenstring().contains(event.subject);
                if event.subject == self.me
                    && event.kind.is_removal()
                    && self.phase == Phase::Active
                {
                    // Someone reported our death to us. We are the living
                    // proof it is false: ack (so the reporter stops
                    // retrying) and refute instead of rooting it.
                    let tops = self.piggyback_tops();
                    self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
                    self.refute_false_obituary(now_us, &event, outs);
                } else if covers && self.believes_top() {
                    let tops = self.piggyback_tops();
                    self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
                    self.start_multicast(now_us, event, outs);
                } else {
                    let stronger_top = self
                        .tops
                        .entries()
                        .iter()
                        .filter(|t| {
                            t.level.value() < self.level.value()
                                && t.id != self.me
                                && t.id.prefix(t.level.value()).contains(event.subject)
                        })
                        .min_by_key(|t| (t.level.value(), t.id))
                        .copied();
                    // Cycle guard: forward each event key at most once
                    // (stale recorded levels could otherwise bounce a
                    // report between two nodes forever).
                    let first_time = self.forwarded_reports.insert(key);
                    match stronger_top {
                        Some(top) if first_time => {
                            let tops = self.piggyback_tops();
                            self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
                            let kind = RpcKind::Report {
                                event: event.clone(),
                            };
                            self.send_rpc(outs, top, Message::Report { event }, kind, 0);
                        }
                        _ if covers => {
                            let tops = self.piggyback_tops();
                            self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
                            self.start_multicast(now_us, event, outs);
                        }
                        _ => { /* silent: reporter retries elsewhere */ }
                    }
                }
            }
            Message::ReportAck { key, tops } => {
                self.refresh_tops(tops);
                self.report_dead.clear();
                self.resolve_rpc(
                    |p| matches!(&p.kind, RpcKind::Report { event } if event.key() == key),
                );
            }
            Message::Multicast { event, step } => {
                let key = event.key();
                self.send(outs, reply_to, Message::MulticastAck { key }, 0);
                if self.apply_event(now_us, &event) {
                    if self.refute_false_obituary(now_us, &event, outs) {
                        // Our own false obituary: refuted, not forwarded —
                        // the subtree assigned to us keeps us instead.
                    } else {
                        self.forward_event(now_us, &event, step, outs);
                    }
                }
            }
            Message::MulticastAck { key } => {
                self.resolve_rpc(|p| {
                    matches!(&p.kind, RpcKind::McastForward { event, .. } if event.key() == key)
                        && p.target.id == from
                });
            }
            Message::FindTop { joiner } => {
                // Return tops covering the joiner when we know any;
                // otherwise our whole top list (the joiner will hop on).
                let mut tops = self.piggyback_tops();
                tops.retain(|t| t.id != joiner);
                let covering: Vec<Target> = tops
                    .iter()
                    .copied()
                    .filter(|t| t.id.prefix(t.level.value()).contains(joiner))
                    .collect();
                let reply = if covering.is_empty() { tops } else { covering };
                self.send(outs, reply_to, Message::FindTopReply { tops: reply }, 0);
            }
            Message::FindTopReply { tops } => self.on_find_top_reply(now_us, tops, outs),
            Message::LevelQuery => {
                let cost = self.meter.bps(now_us);
                self.send(
                    outs,
                    reply_to,
                    Message::LevelQueryReply {
                        level: self.level,
                        cost_bps: cost,
                    },
                    0,
                );
            }
            Message::LevelQueryReply { level, cost_bps } => {
                self.on_level_query_reply(now_us, level, cost_bps, outs)
            }
            Message::Download { scope } => {
                let mut pointers = self.peers.subset_for(scope);
                // Our own list never stores a self-pointer; the downloader
                // still must learn about us when we fall in its scope.
                if scope.contains(self.me) {
                    let mut me =
                        Pointer::with_info(self.me, self.addr, self.level, self.info.clone());
                    me.last_refresh_us = now_us;
                    pointers.push(me);
                }
                let tops = self.piggyback_tops();
                self.send(
                    outs,
                    reply_to,
                    Message::DownloadReply {
                        scope,
                        pointers,
                        tops,
                    },
                    0,
                );
            }
            Message::DownloadReply {
                scope,
                pointers,
                tops,
            } => self.on_download_reply(now_us, scope, pointers, tops, outs),
            Message::TopListRequest => {
                let tops = self.piggyback_tops();
                self.send(outs, reply_to, Message::TopListReply { tops }, 0);
            }
            Message::TopListReply { tops } => {
                self.refresh_tops(tops);
                let resumed = self.take_rpc(|p| matches!(p.kind, RpcKind::TopListFetch { .. }));
                if let Some(p) = resumed {
                    if let RpcKind::TopListFetch {
                        resume: Some(event),
                    } = p.kind
                    {
                        self.report_event(now_us, event, outs);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Joining (§4.3)
    // ------------------------------------------------------------------

    fn on_find_top_reply(&mut self, _now_us: u64, tops: Vec<Target>, outs: &mut Vec<Output>) {
        if self.phase != Phase::FindingTop {
            // Late duplicate; top list refresh is still useful.
            self.refresh_tops(tops);
            return;
        }
        self.take_rpc(|p| matches!(p.kind, RpcKind::JoinFindTop));
        let covering: Vec<Target> = tops
            .iter()
            .copied()
            .filter(|t| t.id.prefix(t.level.value()).contains(self.me))
            .collect();
        if let Some(&top) = covering.first() {
            self.refresh_tops(covering.iter().copied());
            self.phase = Phase::EstimatingLevel;
            #[cfg(feature = "trace")]
            self.tr(
                CauseId::NONE,
                TraceEventKind::JoinStep {
                    phase: JoinPhase::LevelQuery,
                },
            );
            self.send_rpc(outs, top, Message::LevelQuery, RpcKind::JoinLevelQuery, 0);
        } else if let Some(&hop) = tops.first() {
            // Cross-part bootstrap (§4.4): ask a top of the bootstrap's
            // part; its top list holds tops of other parts, ours included.
            self.send_rpc(
                outs,
                hop,
                Message::FindTop { joiner: self.me },
                RpcKind::JoinFindTop,
                0,
            );
        } else {
            // The bootstrap knew no top at all: it must be a seed node
            // itself (it would have answered with covering tops
            // otherwise). Treat the sender as our top-of-part.
            self.fail(outs, ProtocolError::BootstrapReturnedNoTops);
        }
    }

    fn on_level_query_reply(
        &mut self,
        now_us: u64,
        l_t: Level,
        w_t_bps: f64,
        outs: &mut Vec<Output>,
    ) {
        if self.phase != Phase::EstimatingLevel {
            return;
        }
        let queried = self.take_rpc(|p| matches!(p.kind, RpcKind::JoinLevelQuery));
        let mut level = ModelParams::estimate_join_level(l_t, w_t_bps, self.threshold_bps);
        // A joiner can never be stronger than its part's tops.
        if level.value() < l_t.value() {
            level = l_t;
        }
        if self.cfg.warm_up {
            // §4.3 warm-up: start two levels weaker to come online fast;
            // the adaptation loop raises us once the background download
            // would have completed.
            level = Level::new(level.value().saturating_add(2));
        }
        self.level = level;
        self.phase = Phase::Downloading;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::NONE,
            TraceEventKind::JoinStep {
                phase: JoinPhase::Download,
            },
        );
        let scope = self.eigenstring();
        // A level reply normally implies a known top (the one we queried),
        // but a maliciously early or duplicated reply could arrive after
        // the top list was purged — fail the join rather than panic.
        let target = queried
            .map(|p| p.target)
            .or_else(|| self.tops.choose(&[], |n| self.rand_below(n)));
        let Some(target) = target else {
            self.fail(outs, ProtocolError::LevelReplyWithoutKnownTop);
            return;
        };
        self.send_rpc(
            outs,
            target,
            Message::Download { scope },
            RpcKind::JoinDownload,
            0,
        );
        let _ = now_us;
    }

    fn on_download_reply(
        &mut self,
        now_us: u64,
        scope: Prefix,
        pointers: Vec<Pointer>,
        tops: Vec<Target>,
        outs: &mut Vec<Output>,
    ) {
        self.refresh_tops(tops);
        match self.phase {
            Phase::Downloading => {
                if scope != self.eigenstring() {
                    return; // stale reply for a different scope
                }
                self.take_rpc(|p| matches!(p.kind, RpcKind::JoinDownload));
                self.peers = PeerList::new(scope);
                for p in pointers {
                    self.install_downloaded(p, now_us);
                }
                self.reconcile_tops_with_window();
                self.last_self_refresh_us = now_us;
                self.phase = Phase::Active;
                outs.push(Output::Joined);
                outs.extend(self.startup_timers());
                // Reconcile after the join multicast has had time to make
                // us visible to forwarders (a few RPC rounds).
                outs.push(Output::SetTimer {
                    delay_us: 4 * self.cfg.rpc_timeout_us,
                    timer: Timer::Reconcile,
                });
                // §4.3 step 4: multicast our joining around our audience set.
                self.seq += 1;
                #[cfg(feature = "trace")]
                self.tr(
                    CauseId::new(self.me.0, self.seq),
                    TraceEventKind::JoinStep {
                        phase: JoinPhase::Active,
                    },
                );
                let event = self.self_event(now_us, EventKind::Join);
                self.report_event(now_us, event, outs);
            }
            Phase::Active => {
                // Post-join reconciliation: merge-only, never re-scope.
                if scope == self.eigenstring()
                    && self
                        .take_rpc(|p| matches!(p.kind, RpcKind::Reconcile))
                        .is_some()
                {
                    for ptr in pointers {
                        if !self.peers.contains(ptr.id) {
                            self.install_downloaded(ptr, now_us);
                        }
                    }
                    return;
                }
                // Level-raise download completing.
                let me = self.me;
                let pending = self.take_rpc(
                    |p| matches!(&p.kind, RpcKind::RaiseDownload { new_level } if new_level.eigenstring(me) == scope),
                );
                let Some(p) = pending else { return };
                let RpcKind::RaiseDownload { new_level } = p.kind else {
                    return;
                };
                self.last_shift_us = now_us;
                let old = self.level;
                self.level = new_level;
                self.peers.set_scope(scope);
                for ptr in pointers {
                    if !self.peers.contains(ptr.id) {
                        self.install_downloaded(ptr, now_us);
                    }
                }
                self.reconcile_tops_with_window();
                outs.push(Output::LevelShifted {
                    from: old,
                    to: new_level,
                });
                self.seq += 1;
                #[cfg(feature = "trace")]
                self.tr(
                    CauseId::new(self.me.0, self.seq),
                    TraceEventKind::LevelShift {
                        from: old.0,
                        to: new_level.0,
                    },
                );
                let event = self.self_event_with(now_us, EventKind::LevelShift { from: old });
                self.report_event(now_us, event, outs);
            }
            _ => {}
        }
    }

    /// Drops top-list entries a just-downloaded window proves gone:
    /// entries our scope covers but the authoritative pointer list does
    /// not contain. A leave multicast only reaches the subject's §2
    /// audience, so a node outside it (e.g. at a deeper level) keeps the
    /// departed top until the §4.5 lazy heal times a report out against
    /// it — but a level raise must not carry that stale entry *into* its
    /// own scope, where the top-containment invariant holds. Found by
    /// the invariants sweep: [Join(1), Join(2), Shift(1, 1), Leave(2)].
    fn reconcile_tops_with_window(&mut self) {
        let scope = self.eigenstring();
        let stale: Vec<NodeId> = self
            .tops
            .entries()
            .iter()
            .filter(|t| t.id != self.me && scope.contains(t.id) && !self.peers.contains(t.id))
            .map(|t| t.id)
            .collect();
        for id in stale {
            self.tops.remove(id);
        }
    }

    fn startup_timers(&self) -> Vec<Output> {
        vec![
            Output::SetTimer {
                delay_us: self.cfg.probe_interval_us,
                timer: Timer::Probe,
            },
            Output::SetTimer {
                delay_us: self.cfg.bandwidth_window_us,
                timer: Timer::Adapt,
            },
            Output::SetTimer {
                delay_us: self.cfg.bandwidth_window_us,
                timer: Timer::Refresh,
            },
            Output::SetTimer {
                delay_us: self.cfg.bandwidth_window_us,
                timer: Timer::Expire,
            },
        ]
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_timer(&mut self, now_us: u64, timer: Timer, outs: &mut Vec<Output>) {
        match timer {
            Timer::Probe => {
                if self.phase == Phase::Active {
                    self.probe_successor(outs);
                }
                outs.push(Output::SetTimer {
                    delay_us: self.cfg.probe_interval_us,
                    timer: Timer::Probe,
                });
            }
            Timer::RpcTimeout(token) => self.on_rpc_timeout(now_us, token, outs),
            Timer::Adapt => {
                if self.phase == Phase::Active {
                    self.adapt_level(now_us, outs);
                }
                outs.push(Output::SetTimer {
                    delay_us: self.cfg.bandwidth_window_us,
                    timer: Timer::Adapt,
                });
            }
            Timer::Refresh => {
                // The timer ticks at the adaptation cadence and sends the
                // §4.6 refresh only when 2·LT_level has elapsed since our
                // last announcement, so the period tracks the measured
                // lifetimes as they evolve.
                if self.phase == Phase::Active
                    && now_us.saturating_sub(self.last_self_refresh_us) >= self.refresh_period_us()
                {
                    self.last_self_refresh_us = now_us;
                    self.seq += 1;
                    let event = self.self_event(now_us, EventKind::Refresh);
                    self.report_event(now_us, event, outs);
                }
                outs.push(Output::SetTimer {
                    delay_us: self.cfg.bandwidth_window_us,
                    timer: Timer::Refresh,
                });
            }
            Timer::Expire => {
                if self.phase == Phase::Active {
                    self.expire_stale(now_us);
                }
                outs.push(Output::SetTimer {
                    delay_us: self.cfg.bandwidth_window_us,
                    timer: Timer::Expire,
                });
            }
            Timer::Reconcile => {
                if self.cfg.reconcile_interval_us > 0 {
                    outs.push(Output::SetTimer {
                        delay_us: self.cfg.reconcile_interval_us,
                        timer: Timer::Reconcile,
                    });
                }
                if self.phase == Phase::Active {
                    if let Some(top) = self.tops.choose(&[], |n| self.rand_below(n)) {
                        if top.id != self.me {
                            let scope = self.eigenstring();
                            self.send_rpc(
                                outs,
                                top,
                                Message::Download { scope },
                                RpcKind::Reconcile,
                                0,
                            );
                        }
                    }
                    // Re-announce ourselves once (a one-shot §4.6 refresh):
                    // nodes that were themselves mid-join when our join
                    // event multicast ran could not have been reached.
                    self.last_self_refresh_us = now_us;
                    self.seq += 1;
                    let event = self.self_event(now_us, EventKind::Refresh);
                    self.report_event(now_us, event, outs);
                }
            }
        }
    }

    /// §4.6: refresh every `refresh_multiplier · LT_l` for our level; a
    /// generous default before any lifetime has been observed.
    fn refresh_period_us(&self) -> u64 {
        match self.lifetimes.mean_us(self.level) {
            Some(lt) => (self.cfg.refresh_multiplier * lt as f64) as u64,
            None => self.cfg.default_refresh_us,
        }
        .max(self.cfg.bandwidth_window_us)
    }

    fn expire_stale(&mut self, now_us: u64) {
        let mult = self.cfg.expire_multiplier;
        // Floor the horizon well above the tick/refresh quantisation so a
        // slightly late refresh can never evict a live neighbor.
        let floor_us = 3 * self.cfg.bandwidth_window_us;
        let lifetimes = &self.lifetimes;
        let removed = self.peers.expire(|lvl| {
            match lifetimes.mean_us(lvl) {
                // deadline: entries older than expire_multiplier · LT_l die
                Some(lt) => now_us.saturating_sub(((mult * lt as f64) as u64).max(floor_us)),
                None => 0, // no estimate yet: never expire
            }
        });
        self.stats.expired += removed.len() as u64;
        #[cfg(feature = "trace")]
        if !removed.is_empty() {
            self.tr(
                CauseId::NONE,
                TraceEventKind::PeersExpired {
                    count: removed.len() as u32,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Failure detection (§4.1)
    // ------------------------------------------------------------------

    fn probe_successor(&mut self, outs: &mut Vec<Output>) {
        // Only one outstanding probe at a time.
        if self
            .pending
            .values()
            .any(|p| matches!(p.kind, RpcKind::Probe))
        {
            return;
        }
        let succ = self
            .peers
            .ring_successor_in_group(self.me, self.eigenstring(), self.level)
            // §4.1 probes within the same-level eigenstring group, but
            // heterogeneous levels can leave that group a singleton: after
            // a neighbor shifts level it is no longer anyone's group
            // successor, and its crash would go undetected forever. Found
            // by the invariants sweep (trace [Join, Shift, Crash] ends
            // with a permanently stale peer entry). Fall back to the
            // whole-peer-list ring — same one-probe-per-interval cost.
            .or_else(|| self.peers.ring_successor(self.me));
        // Cross-level fallback (ROADMAP "lazy detection of off-level
        // crashes", found by the model checker at depth 4): a peer alone
        // in its eigenstring group — e.g. the seed after shifting to a
        // level nobody else occupies — is in *nobody's* group ring, and
        // with no lifetime samples at its level, expiry never fires
        // either, so its crash would hold a departed pointer forever.
        // The XOR-nearest observer (computed over its own view, peers
        // plus self — near-identical views elect the same node) therefore
        // alternates its probe interval between the normal ring successor
        // and a round-robin over such "lonely" peers. Responsibility MUST
        // be unique-ish: if every observer probed every lonely peer, a
        // deep-level node in an N-node system would absorb N probe/ack
        // pairs per interval — sustained load that keeps a small-budget
        // node (the usual reason to sit deep) from ever climbing back
        // (found by the adaptation recovery test). Detection cost is
        // bounded: one probe per interval as before, the ring cadence at
        // worst halves for the one responsible observer, and if that
        // observer dies its own obituary hands the role to the next
        // nearest. A false positive is safe — the obituary's courtesy
        // copy lets a live target refute (DESIGN.md gap 13).
        let lonely = self.lonely_peers();
        // Every invariants-enabled run is a differential test of the
        // fast selection against its definition, tick by tick.
        #[cfg(feature = "invariants")]
        assert_eq!(
            lonely,
            self.lonely_reference(),
            "{:?}: lonely-peer selection diverged from its reference",
            self.me
        );
        let round = self.stats.probes_sent;
        let target = if !lonely.is_empty() && (succ.is_none() || round % 2 == 1) {
            lonely[(round / 2) as usize % lonely.len()]
        } else {
            let Some(succ) = succ else { return };
            Target {
                id: succ.id,
                addr: succ.addr,
                level: succ.level,
            }
        };
        self.stats.probes_sent += 1;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::NONE,
            TraceEventKind::ProbeSent {
                target: target.id.0,
            },
        );
        self.send_rpc(outs, target, Message::Probe, RpcKind::Probe, 0);
    }

    /// The lonely peers this node answers for, in ascending id order:
    /// alone in their eigenstring group as this list sees it, not in our
    /// own group, and no held peer XOR-nearer to them than we are.
    ///
    /// Exactly `lonely_reference`, in one pass: the group test is
    /// read off the level index, and the nearness scan is cut to the ids
    /// sharing `lcp(me, p)` bits with `p` — any `q` outside that prefix
    /// differs from `p` in a bit where `me` agrees with it, so
    /// `q ^ p > me ^ p` and `q` can never fail the test.
    fn lonely_peers(&self) -> Vec<Target> {
        self.peers
            .group_singletons()
            .into_iter()
            .filter(|&(id, level)| {
                let group = level.eigenstring(id);
                !(level == self.level && group == self.eigenstring()) && {
                    let mine = self.me.0 ^ id.0;
                    self.peers
                        .iter_prefix(id.prefix(self.me.common_prefix_len(id)))
                        .all(|q| q.id == id || (q.id.0 ^ id.0) >= mine)
                }
            })
            .filter_map(|(id, _)| self.peers.get(id))
            .map(|p| Target {
                id: p.id,
                addr: p.addr,
                level: p.level,
            })
            .collect()
    }

    /// `lonely_peers` by definition, quadratic in the list: what
    /// the proptest and every invariants-enabled probe tick compare the
    /// fast selection against.
    #[cfg(any(test, feature = "invariants"))]
    fn lonely_reference(&self) -> Vec<Target> {
        self.peers
            .iter()
            .filter(|p| {
                let group = p.level.eigenstring(p.id);
                self.peers.count_group(group, p.level) == 1
                    && !(p.level == self.level && group == self.eigenstring())
                    && {
                        let mine = self.me.0 ^ p.id.0;
                        self.peers
                            .iter()
                            .all(|q| q.id == p.id || (q.id.0 ^ p.id.0) >= mine)
                    }
            })
            .map(|p| Target {
                id: p.id,
                addr: p.addr,
                level: p.level,
            })
            .collect()
    }

    fn on_probe_failure(&mut self, now_us: u64, dead: Target, outs: &mut Vec<Output>) {
        self.stats.failures_detected += 1;
        // The detector is an observer too: feed the departed node's
        // lifetime into the §4.6 estimator, exactly as applying the
        // leave event would — `apply_event`'s Leave arm cannot, because
        // by the time the self-originated event reaches it the pointer
        // is already gone. Without this the detector keeps the generous
        // no-estimate refresh default while every *other* observer
        // tightens its expiry horizon from the same departure, and the
        // detector's own entry is the first to be (wrongly) expired.
        // Found by the depth-4 sweep: [Join(1), Join(2), Crash(2),
        // Shift(0, 1)].
        if let Some(old) = self.peers.remove(dead.id) {
            if old.first_seen_us > 0 && now_us > old.first_seen_us {
                self.lifetimes.record(old.level, now_us - old.first_seen_us);
            }
        }
        outs.push(Output::FailureDetected { dead: dead.id });
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::new(dead.id.0, LEAVE_SEQ),
            TraceEventKind::Obituary { subject: dead.id.0 },
        );
        let event = StateEvent {
            subject: dead.id,
            addr: dead.addr,
            level: dead.level,
            kind: EventKind::Leave,
            seq: LEAVE_SEQ,
            origin_us: now_us,
            info: Bytes::new(),
        };
        self.report_event(now_us, event.clone(), outs);
        // Courtesy copy straight to the condemned node. The §4.2
        // dissection excludes the changing node from its own audience,
        // so a false positive (three lost probe acks, §4.1) would
        // otherwise stay invisible until its next periodic refresh —
        // past the horizon of anyone who expires it first. Truly dead
        // nodes ignore the datagram; live ones refute immediately (see
        // `refute_false_obituary`). `ID_BITS` as the step makes the
        // copy a leaf: a non-Active receiver that still processes it
        // computes zero forwards.
        if !self.gap13_suppressed() {
            self.send(
                outs,
                dead,
                Message::Multicast {
                    event,
                    step: ID_BITS,
                },
                0,
            );
        }
        // §4.1: "redirects its probing to the next neighbor, and then
        // immediately detects C's failure" — probe the new successor now.
        self.probe_successor(outs);
    }

    // ------------------------------------------------------------------
    // Events: application, reporting, multicast (§2, §4.2)
    // ------------------------------------------------------------------

    fn self_event(&self, now_us: u64, kind: EventKind) -> StateEvent {
        self.self_event_with(now_us, kind)
    }

    fn self_event_with(&self, now_us: u64, kind: EventKind) -> StateEvent {
        StateEvent {
            subject: self.me,
            addr: self.addr,
            level: self.level,
            kind,
            seq: self.seq,
            origin_us: now_us,
            info: self.info.clone(),
        }
    }

    /// §4.6 false-obituary refutation: we just heard our own departure
    /// announced while very much alive (three lost probe acks suffice at
    /// Internet loss rates, §4.1). Re-announce immediately — the
    /// refresh's later origin re-admits us everywhere and demotes
    /// lingering obituary copies to duplicates (see [`Self::dedup_admit`]).
    /// Waiting for the periodic §4.6 refresh instead would leave us
    /// invisible for up to a full refresh period. Returns whether the
    /// event was such an obituary (and was refuted).
    fn refute_false_obituary(
        &mut self,
        now_us: u64,
        event: &StateEvent,
        outs: &mut Vec<Output>,
    ) -> bool {
        if event.subject != self.me || !event.kind.is_removal() || self.phase != Phase::Active {
            return false;
        }
        if self.gap13_suppressed() {
            return false;
        }
        self.last_self_refresh_us = now_us;
        self.seq += 1;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::new(self.me.0, self.seq),
            TraceEventKind::Refutation,
        );
        let refute = self.self_event(now_us, EventKind::Refresh);
        self.report_event(now_us, refute, outs);
        true
    }

    /// Routes an event towards a top node (or multicasts directly when we
    /// are a top node ourselves).
    fn report_event(&mut self, now_us: u64, event: StateEvent, outs: &mut Vec<Output>) {
        if self.believes_top() && self.phase == Phase::Active {
            self.start_multicast(now_us, event, outs);
            return;
        }
        let mut dead = self.report_dead.clone();
        // Never report to ourselves: a node able to root this multicast
        // would have taken the believes_top branch above. Our own
        // top-list entry goes stale the instant we shift off level 0 —
        // picking it would root the multicast at our new (narrower)
        // level and the rest of the id space would never hear the event.
        // (Found by the invariants sweep: [Join, Shift(seed, 1)].)
        dead.push(self.me);
        // Prefer top-list entries that actually cover the subject (their
        // eigenstring prefixes its id); in a split system the others
        // belong to foreign parts and cannot root this multicast.
        let covering: Vec<Target> = self
            .tops
            .entries()
            .iter()
            .filter(|t| {
                !dead.contains(&t.id) && t.id.prefix(t.level.value()).contains(event.subject)
            })
            .copied()
            .collect();
        let top = if covering.is_empty() {
            self.tops.choose(&dead, |n| self.rand_below(n))
        } else {
            Some(covering[self.rand_below(covering.len())])
        };
        let Some(top) = top else {
            // All tops stale: fall back to asking any peer (§4.5).
            self.fetch_top_list(outs, Some(event));
            return;
        };
        self.send_rpc(
            outs,
            top,
            Message::Report { event },
            RpcKind::Report {
                event: placeholder(),
            },
            0,
        );
    }

    /// Announces a downward level shift (`old` → the already-updated
    /// `self.level`), then narrows the peer-list scope.
    ///
    /// Ordering is load-bearing. A node that *was* top is the only
    /// guaranteed root for its own shift event — its top list can be just
    /// itself (a seed), and every other entry may belong to a foreign
    /// part — so it must multicast from the old step over the still-wide
    /// peer list *before* dropping the out-of-scope entries. Found by the
    /// invariants sweep: trace `[Join, Shift(seed, 1)]` left the joiner
    /// permanently recording the seed at level 0.
    fn announce_lowered(&mut self, now_us: u64, old: Level, outs: &mut Vec<Output>) {
        outs.push(Output::LevelShifted {
            from: old,
            to: self.level,
        });
        self.seq += 1;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::new(self.me.0, self.seq),
            TraceEventKind::LevelShift {
                from: old.0,
                to: self.level.0,
            },
        );
        let event = self.self_event_with(now_us, EventKind::LevelShift { from: old });
        if old.is_top() && self.phase == Phase::Active {
            if self.apply_event(now_us, &event) {
                self.forward_event(now_us, &event, old.value(), outs);
            }
            self.peers.set_scope(self.eigenstring());
        } else {
            self.peers.set_scope(self.eigenstring());
            self.report_event(now_us, event, outs);
        }
    }

    /// Applies an event locally and forwards it from `step = our level`
    /// (the root role in §4.2).
    fn start_multicast(&mut self, now_us: u64, event: StateEvent, outs: &mut Vec<Output>) {
        if self.apply_event(now_us, &event) {
            let step = self.level.value();
            #[cfg(feature = "trace")]
            self.tr(
                CauseId::new(event.subject.0, event.seq),
                TraceEventKind::McastRoot {
                    class: Self::trace_event_class(&event.kind),
                    step,
                },
            );
            self.forward_event(now_us, &event, step, outs);
        }
    }

    /// Computes and issues the §4.2 forwards for an event we are
    /// responsible for at `step`.
    fn forward_event(
        &mut self,
        _now_us: u64,
        event: &StateEvent,
        step: u8,
        outs: &mut Vec<Output>,
    ) {
        let forwards = forward_steps(&self.peers, self.me, step, event.subject);
        for f in forwards {
            self.stats.forwards += 1;
            #[cfg(feature = "trace")]
            self.tr(
                CauseId::new(event.subject.0, event.seq),
                TraceEventKind::McastHop {
                    class: Self::trace_event_class(&event.kind),
                    child: f.target.id.0,
                    step: f.next_step,
                },
            );
            let range = self
                .me
                .prefix(f.next_step - 1)
                .child(!self.me.bit(f.next_step - 1));
            self.send_rpc(
                outs,
                f.target,
                Message::Multicast {
                    event: event.clone(),
                    step: f.next_step,
                },
                RpcKind::McastForward {
                    event: event.clone(),
                    range,
                },
                self.cfg.processing_delay_us,
            );
        }
    }

    /// Installs a pointer obtained from a bulk download. Downloads carry
    /// no age information (`first_seen_us` may be 0 = unknown); unknown
    /// ages are preserved so they never contaminate the §4.6 lifetime
    /// estimator with short observation spans.
    fn install_downloaded(&mut self, mut ptr: Pointer, now_us: u64) {
        if ptr.id == self.me || self.known_departed(ptr.id) {
            // A downloaded list races with leave multicasts exactly like
            // a piggybacked top list does (see `refresh_tops`): the
            // leave we already applied can never purge a re-admitted
            // entry. Downloads carry no origin time to compare, so skip
            // conservatively — a live node's §4.6 refresh re-admits.
            return;
        }
        ptr.last_refresh_us = now_us;
        self.peers.insert(ptr);
    }

    /// Whether `event` is fresh w.r.t. the dedup horizon, updating it.
    fn dedup_admit(&mut self, event: &StateEvent) -> bool {
        let e = self.seen.entry(event.subject).or_insert((0, 0, false));
        // Removals carry the sentinel seq, so ordering falls entirely to
        // the origin timestamp: a removal that originated no later than
        // the subject's newest known announcement is stale information —
        // the subject has demonstrably outlived it. Without this, a
        // lingering copy of a refuted false obituary (§4.1 probe
        // misfire) re-kills the entry on arrival, since the sentinel
        // always wins the seq comparison.
        let stale = if event.kind.is_removal() {
            event.origin_us <= e.1
        } else {
            event.seq <= e.0 && event.origin_us <= e.1
        };
        if stale {
            self.stats.events_duped += 1;
            return false;
        }
        e.0 = e.0.max(event.seq);
        e.1 = e.1.max(event.origin_us);
        e.2 = event.kind.is_removal();
        true
    }

    /// Whether the freshest event we applied for `id` was a removal —
    /// i.e. the node departed and nothing newer has overridden that.
    fn known_departed(&self, id: NodeId) -> bool {
        self.seen.get(&id).is_some_and(|e| e.2)
    }

    /// Applies an event to the local peer list; returns `true` when fresh.
    fn apply_event(&mut self, now_us: u64, event: &StateEvent) -> bool {
        let subject = event.subject;
        if subject == self.me {
            // Our own event coming back (we initiated it): fresh only when
            // we have not seen it, so the initiating call forwards once.
            return self.dedup_admit(&event.clone());
        }
        if !self.dedup_admit(event) {
            return false;
        }
        self.stats.events_applied += 1;
        // Keep the top-node list's recorded levels in sync (stale levels
        // there misroute reports and break the believes_top judgement).
        if event.kind.is_removal() {
            self.tops.remove(subject);
        } else if event.level.is_top() {
            // A level-0 subject IS a top node: admit it, don't just sync
            // an existing entry. Piggyback alone never seeds the list of
            // a node that was born top (its own FindTop replies are
            // self-only), and an empty list leaves believes_top()
            // vacuously true after that node later lowers itself — it
            // then answers FindTop with itself and roots joins below
            // step 0, so part of the id space never hears them. Found by
            // the invariants sweep: [Join, Shift(seed, 1), Join].
            self.refresh_tops([Target {
                id: subject,
                addr: event.addr,
                level: event.level,
            }]);
        } else {
            self.tops.note_level(subject, event.level);
        }
        if !self.eigenstring().contains(subject) {
            // Outside our scope: we still forward (we may be a top node of
            // a part that covers it — then it IS in scope; otherwise this
            // is a routing artefact) but do not store.
            return true;
        }
        match event.kind {
            EventKind::Leave => {
                if let Some(old) = self.peers.remove(subject) {
                    if old.first_seen_us > 0 && event.origin_us > old.first_seen_us {
                        self.lifetimes
                            .record(old.level, event.origin_us - old.first_seen_us);
                    }
                }
                // Purge the top-node list too: a departed top would
                // otherwise absorb (and lose) reports until every node
                // individually timed out against it (§4.5's lazy
                // maintenance heals much faster with this).
                self.tops.remove(subject);
                // A later-originating event (a rejoin, or a refresh from a
                // falsely-declared node) re-admits via the origin clause.
            }
            EventKind::Join => {
                let ptr = event.to_pointer(now_us);
                self.peers.insert(ptr);
            }
            EventKind::LevelShift { .. } | EventKind::InfoChange | EventKind::Refresh => {
                if self.peers.contains(subject) {
                    self.peers.update_level(subject, event.level);
                    self.peers.update_info(subject, event.info.clone(), now_us);
                } else {
                    // Absent pointer: §4.6 — the refresh revives it. The
                    // node's true join time is unknown; a zero first-seen
                    // keeps it out of the lifetime estimator.
                    let mut ptr = event.to_pointer(now_us);
                    ptr.first_seen_us = 0;
                    self.peers.insert(ptr);
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Level adaptation (autonomy, §2/§4.3)
    // ------------------------------------------------------------------

    fn adapt_level(&mut self, now_us: u64, outs: &mut Vec<Output>) {
        // Cooldown: measure a full fresh window at the new level before
        // deciding again, or every shift begets another.
        if now_us.saturating_sub(self.last_shift_us) < self.cfg.bandwidth_window_us {
            return;
        }
        let cost = self.meter.bps(now_us);
        // Debounce: one noisy window must not trigger a (system-wide
        // multicast) shift; require two consecutive windows agreeing.
        if cost > self.threshold_bps && self.level != Level::MAX {
            self.adapt_pressure = self.adapt_pressure.max(0) + 1;
        } else if cost < self.threshold_bps * self.cfg.grow_fraction && !self.level.is_top() {
            self.adapt_pressure = self.adapt_pressure.min(0) - 1;
        } else {
            self.adapt_pressure = 0;
        }
        if self.adapt_pressure >= 2 && self.level != Level::MAX {
            self.adapt_pressure = 0;
            // Over budget: shrink the peer list.
            self.last_shift_us = now_us;
            let old = self.level;
            self.level = self.level.lowered();
            self.announce_lowered(now_us, old, outs);
        } else if self.adapt_pressure <= -4 && !self.level.is_top() {
            self.adapt_pressure = 0;
            // Under budget: try to grow, if our part allows it.
            let part_top_level = self
                .tops
                .entries()
                .iter()
                .map(|t| t.level)
                .min()
                .unwrap_or(Level::TOP);
            if self.level.value() <= part_top_level.value() {
                return; // already as strong as our part's tops
            }
            if self
                .pending
                .values()
                .any(|p| matches!(p.kind, RpcKind::RaiseDownload { .. }))
            {
                return; // raise already in flight
            }
            let new_level = self.level.raised();
            let scope = new_level.eigenstring(self.me);
            let Some(top) = self.tops.choose(&[], |n| self.rand_below(n)) else {
                return;
            };
            self.send_rpc(
                outs,
                top,
                Message::Download { scope },
                RpcKind::RaiseDownload { new_level },
                0,
            );
        }
    }

    // ------------------------------------------------------------------
    // Commands
    // ------------------------------------------------------------------

    fn on_command(&mut self, now_us: u64, cmd: Command, outs: &mut Vec<Output>) {
        match cmd {
            Command::ChangeInfo(info) => {
                self.info = info;
                if self.phase == Phase::Active {
                    self.seq += 1;
                    let event = self.self_event(now_us, EventKind::InfoChange);
                    self.report_event(now_us, event, outs);
                }
            }
            Command::SetThreshold(bps) => self.threshold_bps = bps,
            Command::SetLevel(target) => {
                if self.phase != Phase::Active || target == self.level {
                    return;
                }
                self.last_shift_us = now_us;
                if target.value() > self.level.value() {
                    // Weaker: shrink in place and announce.
                    let old = self.level;
                    self.level = target;
                    self.announce_lowered(now_us, old, outs);
                } else {
                    // Stronger: download the wider list first (§4.3).
                    let scope = target.eigenstring(self.me);
                    if let Some(top) = self.tops.choose(&[], |n| self.rand_below(n)) {
                        self.send_rpc(
                            outs,
                            top,
                            Message::Download { scope },
                            RpcKind::RaiseDownload { new_level: target },
                            0,
                        );
                    }
                }
            }
            Command::Shutdown => {
                if self.phase == Phase::Active {
                    let event = StateEvent {
                        subject: self.me,
                        addr: self.addr,
                        level: self.level,
                        kind: EventKind::Leave,
                        seq: LEAVE_SEQ,
                        origin_us: now_us,
                        info: Bytes::new(),
                    };
                    self.report_event(now_us, event, outs);
                    // §4.3: drain the announcement (retries and redirects
                    // included) before going silent. Going Left at once
                    // abandons the multicast's RPC state — a forward
                    // addressed to a not-yet-detected crash then dies
                    // with no redirect, hiding the leave from an entire
                    // subtree until §4.6 expiry. Found by the invariant
                    // checker's full-sim companion test (crash 1.5 s
                    // before a graceful leave).
                    self.phase = Phase::Leaving;
                    return;
                }
                self.phase = Phase::Left;
            }
        }
    }

    // ------------------------------------------------------------------
    // RPC plumbing
    // ------------------------------------------------------------------

    fn send(&mut self, outs: &mut Vec<Output>, to: Target, msg: Message, delay_us: u64) {
        self.stats.tx_msgs += 1;
        let bits = msg.wire_bits(&self.cfg);
        self.stats.tx_bits += bits;
        #[cfg(feature = "trace")]
        self.tr(
            Self::trace_cause(&msg),
            TraceEventKind::MsgSend {
                to: to.id.0,
                class: msg.trace_class(),
                bits,
            },
        );
        outs.push(Output::Send { to, msg, delay_us });
    }

    fn send_rpc(
        &mut self,
        outs: &mut Vec<Output>,
        to: Target,
        msg: Message,
        kind: RpcKind,
        delay_us: u64,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        // Fix up the placeholder hack for Report (see report_event).
        let kind = match (&kind, &msg) {
            (RpcKind::Report { .. }, Message::Report { event }) => RpcKind::Report {
                event: event.clone(),
            },
            _ => kind,
        };
        self.pending.insert(
            token,
            PendingRpc {
                target: to,
                msg: msg.clone(),
                attempts: 1,
                kind,
            },
        );
        self.send(outs, to, msg, delay_us);
        outs.push(Output::SetTimer {
            delay_us: delay_us + self.cfg.rpc_timeout_us,
            timer: Timer::RpcTimeout(token),
        });
    }

    /// Removes the first pending RPC matching `pred` (reply arrived).
    fn resolve_rpc(&mut self, pred: impl Fn(&PendingRpc) -> bool) {
        if let Some((&token, _)) = self.pending.iter().find(|(_, p)| pred(p)) {
            self.pending.remove(&token);
        }
    }

    /// Removes and returns the first pending RPC matching `pred`.
    fn take_rpc(&mut self, pred: impl Fn(&PendingRpc) -> bool) -> Option<PendingRpc> {
        let token = self
            .pending
            .iter()
            .find(|(_, p)| pred(p))
            .map(|(&t, _)| t)?;
        self.pending.remove(&token)
    }

    fn on_rpc_timeout(&mut self, now_us: u64, token: u64, outs: &mut Vec<Output>) {
        let Some(mut p) = self.pending.remove(&token) else {
            return; // already resolved
        };
        if p.attempts < self.cfg.max_attempts {
            p.attempts += 1;
            self.stats.rpc_retries += 1;
            let new_token = self.next_token;
            self.next_token += 1;
            self.send(outs, p.target, p.msg.clone(), 0);
            outs.push(Output::SetTimer {
                delay_us: self.backoff_wait_us(p.attempts),
                timer: Timer::RpcTimeout(new_token),
            });
            self.pending.insert(new_token, p);
            return;
        }
        // Give up after max_attempts.
        match p.kind {
            RpcKind::Probe => self.on_probe_failure(now_us, p.target, outs),
            RpcKind::McastForward { event, range } => {
                // §4.2: remove the stale pointer and redirect. The paper
                // removes it *quietly*, but a quiet removal races §4.1:
                // the forwarder that drops the dead node is — by the
                // prefix-routing structure — usually its ring prober, so
                // the failure would never be reported and every other
                // audience member would keep the stale entry until the
                // §4.6 expiry. On the other hand, reporting a leave
                // straight away turns every triple packet loss into a
                // false obituary multicast. So: remove locally and
                // redirect now (delivery continuity), and *verify* the
                // suspect with a probe — the probe's own give-up path
                // reports the leave only if the node is really gone
                // (DESIGN.md clarification).
                self.stats.stale_dropped += 1;
                if let Some(old) = self.peers.remove(p.target.id) {
                    let suspect = Target {
                        id: old.id,
                        addr: old.addr,
                        level: old.level,
                    };
                    self.send_rpc(outs, suspect, Message::Probe, RpcKind::Probe, 0);
                }
                if let Some(next) = crate::multicast::redirect_target(
                    &self.peers,
                    range,
                    event.subject,
                    self.me,
                    &[],
                ) {
                    let step = range.len();
                    #[cfg(feature = "trace")]
                    self.tr(
                        CauseId::new(event.subject.0, event.seq),
                        TraceEventKind::McastRedirect {
                            class: Self::trace_event_class(&event.kind),
                            old: p.target.id.0,
                            new: next.id.0,
                            step,
                        },
                    );
                    self.send_rpc(
                        outs,
                        next,
                        Message::Multicast {
                            event: event.clone(),
                            step,
                        },
                        RpcKind::McastForward { event, range },
                        0,
                    );
                }
            }
            RpcKind::Report { event } => {
                self.tops.remove(p.target.id);
                self.report_dead.push(p.target.id);
                self.report_event(now_us, event, outs);
            }
            RpcKind::JoinFindTop | RpcKind::JoinLevelQuery | RpcKind::JoinDownload => {
                // Try another known top; if none, the join fails.
                let dead = vec![p.target.id];
                self.tops.remove(p.target.id);
                if let Some(top) = self.tops.choose(&dead, |n| self.rand_below(n)) {
                    let kind = p.kind;
                    self.send_rpc(outs, top, p.msg, kind, 0);
                } else {
                    self.fail(outs, ProtocolError::NoReachableTop);
                }
            }
            RpcKind::RaiseDownload { .. } => {
                // Abort the raise and forget the unresponsive top so the
                // next attempt picks a live one.
                self.tops.remove(p.target.id);
            }
            RpcKind::Reconcile => { /* §4.6 refresh will heal eventually */ }
            RpcKind::TopListFetch { resume } => {
                // Try one more random peer, then drop the event (it will
                // self-heal via §4.6).
                self.fetch_top_list(outs, resume);
            }
        }
    }

    fn fetch_top_list(&mut self, outs: &mut Vec<Output>, resume: Option<StateEvent>) {
        if self
            .pending
            .values()
            .any(|p| matches!(p.kind, RpcKind::TopListFetch { .. }))
        {
            return;
        }
        let n = self.peers.len();
        if n == 0 {
            return;
        }
        let idx = self.rand_below(n);
        let Some(ptr) = self.peers.iter().nth(idx) else {
            return;
        };
        let target = Target {
            id: ptr.id,
            addr: ptr.addr,
            level: ptr.level,
        };
        self.send_rpc(
            outs,
            target,
            Message::TopListRequest,
            RpcKind::TopListFetch { resume },
            0,
        );
    }

    /// Merges piggybacked top-node pointers, dropping any entry for
    /// ourselves. Peers legitimately list us among the tops of the part,
    /// but storing a self-entry is poison: it is never level-synced (we
    /// do not apply our own events), and a later level raise can pick it
    /// and "download" from ourselves — an empty list — leaving the shift
    /// announced to nobody. Found by the invariants sweep:
    /// [Join, Shift(1), Shift(0)].
    /// Also drops entries for nodes whose freshest known event was a
    /// removal: piggybacked top lists race with leave multicasts, and a
    /// stale list arriving after we applied the leave would re-seed the
    /// departed node forever — the leave is inside the dedup horizon and
    /// can never purge it again. A rejoin or refresh (fresh by the
    /// origin clause) clears the flag and re-admits through
    /// `apply_event`. Found by the invariants sweep at depth 4:
    /// [Join(1), Join(2), Shift(1, 1), Leave(2)].
    fn refresh_tops(&mut self, fresh: impl IntoIterator<Item = Target>) {
        let me = self.me;
        let fresh: Vec<Target> = fresh
            .into_iter()
            .filter(|t| t.id != me && !self.known_departed(t.id))
            .collect();
        self.tops.refresh(fresh);
    }

    fn piggyback_tops(&self) -> Vec<Target> {
        if self.believes_top() {
            // §4.5: a top node hands out tops of its own part — itself and
            // its same-group peers from the (fully connected) peer list.
            let mut tops: Vec<Target> = self
                .peers
                .iter_prefix(self.eigenstring())
                .filter(|ptr| ptr.level == self.level)
                .take(self.tops.capacity().saturating_sub(1))
                .map(|ptr| Target {
                    id: ptr.id,
                    addr: ptr.addr,
                    level: ptr.level,
                })
                .collect();
            tops.insert(0, self.as_target());
            tops.truncate(self.tops.capacity());
            tops
        } else {
            self.tops.piggyback(NodeId(0))
        }
    }

    /// Retry wait before attempt `attempt + 1`: exponential backoff over
    /// the base RPC timeout, capped, stretched by deterministic jitter
    /// (the paper retries at the fixed `rpc_timeout_us`; that cadence
    /// resonates with bursty loss and post-partition retry storms —
    /// every node re-sends in lockstep — so retries now spread out).
    fn backoff_wait_us(&self, attempt: u32) -> u64 {
        let base = self.cfg.rpc_timeout_us.max(1);
        let mult = self.cfg.rpc_backoff_mult.max(1.0);
        let wait = (base as f64 * mult.powi(attempt.saturating_sub(1) as i32))
            .min(self.cfg.rpc_backoff_max_us.max(base) as f64) as u64;
        let span = (wait as f64 * self.cfg.rpc_backoff_jitter.clamp(0.0, 1.0)) as u64;
        if span == 0 {
            wait
        } else {
            // rand_below keys off next_token, which on_rpc_timeout just
            // advanced — each retry draws fresh jitter.
            wait + self.rand_below(span as usize + 1) as u64
        }
    }

    /// Deterministic xorshift, used where the paper says "randomly".
    fn rand_below(&self, n: usize) -> usize {
        debug_assert!(n > 0);
        let mut x = self.rng ^ self.next_token.wrapping_mul(0x9E3779B97F4A7C15);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    }
}

/// Placeholder event used only to tag the RPC kind before `send_rpc`
/// clones the real event out of the message (avoids a double clone).
fn placeholder() -> StateEvent {
    StateEvent {
        subject: NodeId(0),
        addr: Addr(0),
        level: Level::TOP,
        kind: EventKind::Refresh,
        seq: 0,
        origin_us: 0,
        info: Bytes::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn info_change_propagates_to_audience() {
        let mut net = MiniNet::new();
        let a = net.add_seed(0x2000_0000_0000_0000_0000_0000_0000_0000);
        let b = net.add_joiner(0x7000_0000_0000_0000_0000_0000_0000_0000, a, 1e9);
        net.run_until(5_000_000);
        net.send_command(b, Command::ChangeInfo(Bytes::from_static(b"os:plan9")));
        net.run_until(10_000_000);
        let b_id = net.machines[b].id();
        let seen = net.machines[a].peers().get(b_id).unwrap();
        assert_eq!(&seen.info[..], b"os:plan9");
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
