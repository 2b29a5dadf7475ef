//! Typed trace records and their taxonomy.

/// Causality id: the `(subject, seq)` dedup key of the `StateEvent` that
/// caused a record, or [`CauseId::NONE`] for spontaneous actions (probes,
/// join steps). All records sharing a cause belong to one logical flow —
/// e.g. every hop of one multicast — which is what lets the query layer
/// reassemble trees after the fact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct CauseId {
    /// Raw id of the changing node (`NodeId::raw()`).
    pub subject: u128,
    /// The event's per-subject sequence number.
    pub seq: u64,
}

impl CauseId {
    /// "No cause": spontaneous protocol actions.
    pub const NONE: CauseId = CauseId { subject: 0, seq: 0 };

    /// Builds a cause from an event key.
    pub fn new(subject: u128, seq: u64) -> Self {
        CauseId { subject, seq }
    }

    /// Whether this is the [`CauseId::NONE`] sentinel.
    pub fn is_none(&self) -> bool {
        *self == CauseId::NONE
    }
}

/// Wire-message class, mirroring `peerwindow_core::Message` variants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[allow(missing_docs)]
pub enum MsgClass {
    Probe,
    ProbeAck,
    Report,
    ReportAck,
    Multicast,
    MulticastAck,
    FindTop,
    FindTopReply,
    LevelQuery,
    LevelQueryReply,
    Download,
    DownloadReply,
    TopListRequest,
    TopListReply,
}

impl MsgClass {
    /// Every class, in declaration order (bandwidth-table row order).
    pub const ALL: [MsgClass; 14] = [
        MsgClass::Probe,
        MsgClass::ProbeAck,
        MsgClass::Report,
        MsgClass::ReportAck,
        MsgClass::Multicast,
        MsgClass::MulticastAck,
        MsgClass::FindTop,
        MsgClass::FindTopReply,
        MsgClass::LevelQuery,
        MsgClass::LevelQueryReply,
        MsgClass::Download,
        MsgClass::DownloadReply,
        MsgClass::TopListRequest,
        MsgClass::TopListReply,
    ];

    /// Stable wire name (used by the exporters and the CLI filters).
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Probe => "probe",
            MsgClass::ProbeAck => "probe_ack",
            MsgClass::Report => "report",
            MsgClass::ReportAck => "report_ack",
            MsgClass::Multicast => "multicast",
            MsgClass::MulticastAck => "multicast_ack",
            MsgClass::FindTop => "find_top",
            MsgClass::FindTopReply => "find_top_reply",
            MsgClass::LevelQuery => "level_query",
            MsgClass::LevelQueryReply => "level_query_reply",
            MsgClass::Download => "download",
            MsgClass::DownloadReply => "download_reply",
            MsgClass::TopListRequest => "top_list_request",
            MsgClass::TopListReply => "top_list_reply",
        }
    }

    /// Inverse of [`MsgClass::name`].
    pub fn parse(s: &str) -> Option<MsgClass> {
        MsgClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// State-event class, mirroring `peerwindow_core::EventKind` (minus the
/// payload fields: the trace only needs the category).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[allow(missing_docs)]
pub enum EventClass {
    Join,
    Leave,
    LevelShift,
    InfoChange,
    Refresh,
}

impl EventClass {
    /// Every class, in declaration order.
    pub const ALL: [EventClass; 5] = [
        EventClass::Join,
        EventClass::Leave,
        EventClass::LevelShift,
        EventClass::InfoChange,
        EventClass::Refresh,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Join => "join",
            EventClass::Leave => "leave",
            EventClass::LevelShift => "level_shift",
            EventClass::InfoChange => "info_change",
            EventClass::Refresh => "refresh",
        }
    }

    /// Inverse of [`EventClass::name`].
    pub fn parse(s: &str) -> Option<EventClass> {
        EventClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A §4.3 join-dissection step *completion*, recorded when the machine
/// transitions into the next phase. The initial FindTop request itself is
/// visible as the `msg_send` record of class `find_top`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum JoinPhase {
    /// Step 1 done: a covering top was found; the level query is out.
    LevelQuery,
    /// Step 2 done: level estimated; the bulk download is out.
    Download,
    /// Step 3 done: list installed; the node is active and its join
    /// multicast (step 4) is being reported.
    Active,
}

impl JoinPhase {
    /// Every phase, in §4.3 order.
    pub const ALL: [JoinPhase; 3] = [
        JoinPhase::LevelQuery,
        JoinPhase::Download,
        JoinPhase::Active,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JoinPhase::LevelQuery => "level_query",
            JoinPhase::Download => "download",
            JoinPhase::Active => "active",
        }
    }

    /// Inverse of [`JoinPhase::name`].
    pub fn parse(s: &str) -> Option<JoinPhase> {
        JoinPhase::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Diagnostic codes for embedder-level conditions that used to be raw
/// `eprintln!` sites (the transport runtime's frame/socket problems).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DiagCode {
    /// A frame exceeded the UDP datagram budget and was dropped.
    OversizedFrame,
    /// The machine died on a protocol error (`fatal_error()`), or the
    /// socket failed persistently; the runtime is stopping.
    Fatal,
    /// The socket returned a non-timeout error; the runtime is stopping.
    SocketError,
    /// A pointer's attached info failed to decode under every schema the
    /// query layer knows (neither an `InfoMap` nor a bloom attachment).
    /// Emitted by the query engine so foreign-attachment rot is
    /// observable instead of silently swallowed.
    InfoDecodeError,
}

impl DiagCode {
    /// Every code, in declaration order.
    pub const ALL: [DiagCode; 4] = [
        DiagCode::OversizedFrame,
        DiagCode::Fatal,
        DiagCode::SocketError,
        DiagCode::InfoDecodeError,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::OversizedFrame => "oversized_frame",
            DiagCode::Fatal => "fatal",
            DiagCode::SocketError => "socket_error",
            DiagCode::InfoDecodeError => "info_decode_error",
        }
    }

    /// Inverse of [`DiagCode::name`].
    pub fn parse(s: &str) -> Option<DiagCode> {
        DiagCode::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// What the fault layer did to a datagram, as recorded by the sims.
/// Clean deliveries are not recorded (they would dwarf the log); jittered
/// deliveries only perturb timing, which the normal `msg_recv` records
/// already show.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultClass {
    /// The datagram was dropped (loss, burst loss, or blackhole).
    Dropped,
    /// The datagram was delivered twice.
    Duplicated,
}

impl FaultClass {
    /// Every class, in declaration order.
    pub const ALL: [FaultClass; 2] = [FaultClass::Dropped, FaultClass::Duplicated];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Dropped => "dropped",
            FaultClass::Duplicated => "duplicated",
        }
    }

    /// Inverse of [`FaultClass::name`].
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// What happened. Node ids are raw `u128`s (`NodeId::raw()`) so the crate
/// stays dependency-free; levels are raw `u8` values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEventKind {
    /// A §4.3 join step completed (see [`JoinPhase`]).
    JoinStep {
        /// The phase just entered.
        phase: JoinPhase,
    },
    /// This node rooted a multicast: it applied the event and begins the
    /// §4.2 binary dissection at `step` (its level).
    McastRoot {
        /// Class of the disseminated event.
        class: EventClass,
        /// The root's responsibility-range length.
        step: u8,
    },
    /// One §4.2 tree edge: this node (the parent) forwarded the event to
    /// `child`, which becomes responsible for a range of length `step`.
    McastHop {
        /// Class of the disseminated event.
        class: EventClass,
        /// Receiver (raw node id).
        child: u128,
        /// Range length the receiver becomes responsible for.
        step: u8,
    },
    /// A multicast forward gave up on `old` (three unanswered attempts,
    /// §4.2) and was redirected to `new`.
    McastRedirect {
        /// Class of the disseminated event.
        class: EventClass,
        /// The unresponsive target that was dropped.
        old: u128,
        /// The replacement target.
        new: u128,
        /// Range length being handed over.
        step: u8,
    },
    /// A §4.1 ring probe was sent to `target`.
    ProbeSent {
        /// The probed successor.
        target: u128,
    },
    /// Probing gave up on `subject`: failure detected, obituary (a Leave
    /// event with the sentinel seq) reported.
    Obituary {
        /// The node declared dead.
        subject: u128,
    },
    /// This node heard its own obituary while alive and re-announced
    /// itself (§4.6 refutation). The cause is the *refutation* event.
    Refutation,
    /// The node shifted level (autonomic adaptation or explicit pin).
    LevelShift {
        /// Level before the shift.
        from: u8,
        /// Level after the shift.
        to: u8,
    },
    /// §4.6 expiry swept `count` stale pointers.
    PeersExpired {
        /// Pointers removed.
        count: u32,
    },
    /// A message left this node.
    MsgSend {
        /// Destination (raw node id).
        to: u128,
        /// Wire-message class.
        class: MsgClass,
        /// Wire size for bandwidth accounting.
        bits: u64,
    },
    /// A message arrived at this node.
    MsgRecv {
        /// Sender (raw node id).
        from: u128,
        /// Wire-message class.
        class: MsgClass,
        /// Wire size for bandwidth accounting.
        bits: u64,
    },
    /// An embedder-level diagnostic (see [`DiagCode`]).
    Diag {
        /// What happened.
        code: DiagCode,
    },
    /// The fault layer intercepted a datagram this node sent (see
    /// [`FaultClass`]). Emitted by the sim harness, not the machine:
    /// `node` is the sender, and `seq` lives in a reserved high-bit
    /// space so harness records never collide with the machine's own.
    NetFault {
        /// Destination of the afflicted datagram (raw node id).
        to: u128,
        /// What the network did to it.
        fault: FaultClass,
    },
}

impl TraceEventKind {
    /// Stable wire name of the kind (the JSONL `kind` field and the
    /// Chrome event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::JoinStep { .. } => "join_step",
            TraceEventKind::McastRoot { .. } => "mcast_root",
            TraceEventKind::McastHop { .. } => "mcast_hop",
            TraceEventKind::McastRedirect { .. } => "mcast_redirect",
            TraceEventKind::ProbeSent { .. } => "probe",
            TraceEventKind::Obituary { .. } => "obituary",
            TraceEventKind::Refutation => "refutation",
            TraceEventKind::LevelShift { .. } => "level_shift",
            TraceEventKind::PeersExpired { .. } => "peers_expired",
            TraceEventKind::MsgSend { .. } => "msg_send",
            TraceEventKind::MsgRecv { .. } => "msg_recv",
            TraceEventKind::Diag { .. } => "diag",
            TraceEventKind::NetFault { .. } => "net_fault",
        }
    }
}

/// One trace record. `(node, seq)` is unique (the sink counts emissions
/// per node) and `at_us` is non-decreasing per node, so sorting by
/// `(at_us, node, seq)` is a total order — the canonical log order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Simulation time of the record, microseconds.
    pub at_us: u64,
    /// The recording node (raw id).
    pub node: u128,
    /// Per-node emission counter (monotone within one node).
    pub seq: u64,
    /// The recording node's level at emission time.
    pub level: u8,
    /// Causality id ([`CauseId::NONE`] for spontaneous actions).
    pub cause: CauseId,
    /// What happened.
    pub kind: TraceEventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_round_trip() {
        for c in MsgClass::ALL {
            assert_eq!(MsgClass::parse(c.name()), Some(c));
        }
        for c in EventClass::ALL {
            assert_eq!(EventClass::parse(c.name()), Some(c));
        }
        for p in JoinPhase::ALL {
            assert_eq!(JoinPhase::parse(p.name()), Some(p));
        }
        for d in DiagCode::ALL {
            assert_eq!(DiagCode::parse(d.name()), Some(d));
        }
        for f in FaultClass::ALL {
            assert_eq!(FaultClass::parse(f.name()), Some(f));
        }
        assert_eq!(MsgClass::parse("nonsense"), None);
    }

    #[test]
    fn cause_none_sentinel() {
        assert!(CauseId::NONE.is_none());
        assert!(!CauseId::new(3, 1).is_none());
    }
}
