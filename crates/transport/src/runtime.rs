//! A UDP runtime for the sans-IO [`NodeMachine`].
//!
//! One thread per node: a `UdpSocket` with a short read timeout drives the
//! machine's inputs, and one due-queue, keyed by `(due_us, seq)`, holds
//! everything that happens later — the machine's timers, its sends still
//! in their processing delay, and judged frames waiting to be written
//! (the [`crate::shim`]'s jitter and duplicate copies, and resends after
//! a failed write). Each input runs one path: `handle`, trace drain,
//! outputs, fatal check, snapshot publish. Each datagram runs one send
//! path: encode, drop if oversized, judge at departure, write or queue.
//! Every failed write is retried 3 times, 50/200/800 ms apart. The node's
//! fate is machine state: once `has_left()` and no frame is queued the
//! thread stops (a `fatal_error()` is logged first).
//!
//! A control channel lets the embedding application change the attached
//! info or the bandwidth budget, take state snapshots, and shut the node
//! down gracefully — the same operations the paper's upper layers need
//! (§3). A shutdown ends when the §4.3 leave has drained and its frames
//! are out, or after 300 ms.
//!
//! **Scale limitation:** the §4.3 bulk peer-list download travels as one
//! datagram, so UDP caps it at ~64 KiB ≈ 2,300 pointers. That suits
//! LAN-scale systems and demos; a deployment expecting 10⁵-pointer lists
//! should carry `Download`/`DownloadReply` over a stream transport and
//! keep UDP for the (small) event/probe traffic. Oversized frames are
//! dropped rather than truncated, with an `OversizedFrame` diagnostic
//! record pushed to the log behind [`NodeHandle::take_diagnostics`] —
//! runtime errors are structured trace events, never raw prints.

use crate::codec::{decode, encode};
use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_metrics::runtime::{escape_label, render_counters};
use peerwindow_trace::{CauseId, DiagCode, NodeTrace, TraceEventKind, TraceRecord};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender as Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live runtime counters for one node thread, shared with the
/// application through [`NodeHandle::runtime_stats`]. All updates are
/// relaxed atomics on the node thread's I/O path — monotonic totals
/// with no cross-counter consistency promise (a snapshot may see a
/// datagram counted in but its timers not yet fired).
#[derive(Debug, Default)]
pub struct RuntimeStats {
    datagrams_in: AtomicU64,
    datagrams_out: AtomicU64,
    decode_errors: AtomicU64,
    oversized_frames: AtomicU64,
    timers_fired: AtomicU64,
    shim_dropped: AtomicU64,
    shim_duplicated: AtomicU64,
    shim_delayed: AtomicU64,
    send_retries: AtomicU64,
    backoff_exhaustions: AtomicU64,
    snapshots_published: AtomicU64,
}

impl RuntimeStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> RuntimeStatsSnapshot {
        RuntimeStatsSnapshot {
            datagrams_in: self.datagrams_in.load(Ordering::Relaxed),
            datagrams_out: self.datagrams_out.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            oversized_frames: self.oversized_frames.load(Ordering::Relaxed),
            timers_fired: self.timers_fired.load(Ordering::Relaxed),
            shim_dropped: self.shim_dropped.load(Ordering::Relaxed),
            shim_duplicated: self.shim_duplicated.load(Ordering::Relaxed),
            shim_delayed: self.shim_delayed.load(Ordering::Relaxed),
            send_retries: self.send_retries.load(Ordering::Relaxed),
            backoff_exhaustions: self.backoff_exhaustions.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`RuntimeStats`], safe to hold across time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStatsSnapshot {
    /// Datagrams received and fed to the machine (decodable or not).
    pub datagrams_in: u64,
    /// Datagrams written to the socket (immediate and delayed sends).
    pub datagrams_out: u64,
    /// Received frames the codec rejected.
    pub decode_errors: u64,
    /// Outbound frames dropped for exceeding the UDP payload cap.
    pub oversized_frames: u64,
    /// Protocol timers fired.
    pub timers_fired: u64,
    /// Outbound datagrams the netem shim swallowed (loss / blackhole).
    pub shim_dropped: u64,
    /// Outbound datagrams the shim duplicated.
    pub shim_duplicated: u64,
    /// Copies the shim queued for delayed delivery (jitter, or the
    /// trailing copy of a duplicate).
    pub shim_delayed: u64,
    /// Socket writes that failed transiently and were queued again with
    /// backoff.
    pub send_retries: u64,
    /// Sends abandoned after the retry budget was exhausted.
    pub backoff_exhaustions: u64,
    /// Peer-list snapshots published to the lock-free serving cell
    /// (generation-gated: one per actual peer-list change).
    pub snapshots_published: u64,
}

impl RuntimeStatsSnapshot {
    /// `(name, value)` rows, in declaration order — the iteration the
    /// Prometheus renderer and table printers share.
    pub fn rows(&self) -> [(&'static str, u64); 11] {
        [
            ("datagrams_in", self.datagrams_in),
            ("datagrams_out", self.datagrams_out),
            ("decode_errors", self.decode_errors),
            ("oversized_frames", self.oversized_frames),
            ("timers_fired", self.timers_fired),
            ("shim_dropped", self.shim_dropped),
            ("shim_duplicated", self.shim_duplicated),
            ("shim_delayed", self.shim_delayed),
            ("send_retries", self.send_retries),
            ("backoff_exhaustions", self.backoff_exhaustions),
            ("snapshots_published", self.snapshots_published),
        ]
    }
}

/// Bounded channel; sends block when full (as crossbeam's `bounded` did
/// before the workspace moved to the std library's channels).
fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    std::sync::mpsc::sync_channel(cap)
}

/// Commands the application can send to a running node.
///
/// The channel is bounded (64 entries) and [`NodeHandle::control`]
/// blocks when it is full: a slow node thread exerts backpressure on
/// the controller rather than silently dropping commands.
pub enum Control {
    /// Request a state snapshot; the reply goes to the provided sender.
    /// The node thread blocks on the reply channel (never a silent
    /// `try_send` drop), so the requester must either `recv` promptly
    /// or drop its receiver — [`NodeHandle::snapshot`] does the former
    /// with a timeout.
    Snapshot(Sender<Snapshot>),
    /// Change the attached info (§3) and announce it.
    ChangeInfo(Bytes),
    /// Change the bandwidth budget (autonomy knob).
    SetThreshold(f64),
    /// Turn structured protocol tracing on or off; records land in the
    /// same log as runtime diagnostics.
    #[cfg(feature = "trace")]
    SetTracing(bool),
    /// Leave gracefully and stop the thread.
    Shutdown,
}

/// A point-in-time view of a running node.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Node id.
    pub id: NodeId,
    /// Current level.
    pub level: Level,
    /// Whether the §4.3 joining process has completed.
    pub is_active: bool,
    /// Peer-list contents.
    pub peers: Vec<Pointer>,
    /// Known top nodes.
    pub tops: Vec<Target>,
    /// Traffic counters.
    pub stats: NodeStats,
}

/// Configuration for [`spawn_node`].
pub struct RuntimeConfig {
    /// Protocol constants. For real deployments set
    /// `processing_delay_us: 0` (the 1 s §5.1 delay models slow overlay
    /// hosts, not your CPU).
    pub protocol: ProtocolConfig,
    /// Node id; derive it by hashing a stable public key.
    pub id: NodeId,
    /// UDP listen address (must be IPv4; port 0 picks an ephemeral port).
    pub listen: SocketAddrV4,
    /// Bootstrap node address; `None` starts a brand-new system (seed).
    pub bootstrap: Option<SocketAddrV4>,
    /// Bandwidth budget for node collection, bps.
    pub threshold_bps: f64,
    /// Initial attached info.
    pub info: Bytes,
    /// RNG seed (protocol choices such as which top node to report to).
    pub seed: u64,
    /// Userspace netem shim spec. `None` (the default for direct
    /// embedders) sends every datagram straight through; with a spec the
    /// outbound path is conditioned by its fault plan — see
    /// [`crate::shim`].
    pub shim: Option<crate::shim::ShimSpec>,
    /// Added to the monotonic elapsed clock, so `now_us` — and with it
    /// every event origin timestamp this node stamps — is comparable
    /// across processes that agree on a common epoch. A cluster run sets
    /// this to [`crate::shim::ShimSpec::wall_offset_us`]; standalone
    /// nodes leave it 0.
    pub clock_offset_us: u64,
}

/// Handle to a node thread.
pub struct NodeHandle {
    /// The node's id.
    pub id: NodeId,
    /// The actually-bound listen address.
    pub local_addr: SocketAddrV4,
    ctl: Sender<Control>,
    diag: Arc<Mutex<Vec<TraceRecord>>>,
    stats: Arc<RuntimeStats>,
    snapshots: SnapshotReader,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// Sends a control command; returns `false` if the node has stopped.
    pub fn control(&self, c: Control) -> bool {
        self.ctl.send(c).is_ok()
    }

    /// A lock-free reader over the node's published peer-list snapshots
    /// (the serving layer). Unlike [`NodeHandle::snapshot`] this never
    /// round-trips through the control channel: `load()` is a few atomic
    /// operations on the calling thread, safe to hit at query rates
    /// while the node keeps serving the protocol. The node thread
    /// publishes after every peer-list change (generation-gated), so the
    /// reader's view trails the live list by at most one handled event.
    pub fn snapshot_reader(&self) -> SnapshotReader {
        self.snapshots.clone()
    }

    /// Takes a snapshot, waiting up to `timeout`.
    pub fn snapshot(&self, timeout: Duration) -> Option<Snapshot> {
        let (tx, rx) = bounded(1);
        if self.ctl.send(Control::Snapshot(tx)).is_err() {
            return None;
        }
        rx.recv_timeout(timeout).ok()
    }

    /// Drains the diagnostic log: runtime events (oversized frames,
    /// fatal errors, socket errors) and — with the `trace` feature and
    /// tracing enabled — the machine's structured protocol records. The
    /// log outlives the node thread, so terminal errors remain
    /// observable after the node stops.
    pub fn take_diagnostics(&self) -> Vec<TraceRecord> {
        let mut out = self
            .diag
            .lock()
            .map(|mut l| std::mem::take(&mut *l))
            .unwrap_or_default();
        peerwindow_trace::canonical_sort(&mut out);
        out
    }

    /// Point-in-time copy of the node thread's runtime counters. Cheap
    /// (a handful of relaxed loads), callable at any rate, and still valid after
    /// the node stops.
    pub fn runtime_stats(&self) -> RuntimeStatsSnapshot {
        self.stats.snapshot()
    }

    /// The node's runtime counters as a Prometheus text exposition page,
    /// each sample labelled with this node's id.
    pub fn prometheus(&self) -> String {
        let snap = self.runtime_stats();
        let label = format!("node=\"{}\"", escape_label(&self.id.to_string()));
        let mut out = String::new();
        for (name, v) in snap.rows() {
            render_counters(
                &mut out,
                &format!("peerwindow_node_{name}_total"),
                "Transport runtime counter.",
                &[(label.clone(), v)],
            );
        }
        out
    }

    /// Turns structured protocol tracing on or off. Returns `false` if
    /// the node has stopped.
    #[cfg(feature = "trace")]
    pub fn set_tracing(&self, on: bool) -> bool {
        self.control(Control::SetTracing(on))
    }

    /// Requests a graceful shutdown and joins the thread.
    pub fn shutdown(mut self) {
        let _ = self.ctl.send(Control::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        let _ = self.ctl.send(Control::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Errors from [`spawn_node`].
#[derive(Debug)]
pub enum SpawnError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The bootstrap node did not answer the discovery probe.
    BootstrapUnreachable,
}

impl From<std::io::Error> for SpawnError {
    fn from(e: std::io::Error) -> Self {
        SpawnError::Io(e)
    }
}

fn addr_of(sock: SocketAddrV4) -> Addr {
    Addr::from_v4(sock.ip().octets(), sock.port())
}

fn sock_of(addr: Addr) -> SocketAddrV4 {
    let (ip, port) = addr.to_v4();
    SocketAddrV4::new(Ipv4Addr::from(ip), port)
}

/// Spawns a PeerWindow node on its own thread. Returns once the socket is
/// bound and (for joiners) the bootstrap node has been discovered.
pub fn spawn_node(cfg: RuntimeConfig) -> Result<NodeHandle, SpawnError> {
    let socket = UdpSocket::bind(SocketAddr::V4(cfg.listen))?;
    let local = match socket.local_addr()? {
        SocketAddr::V4(v4) => v4,
        SocketAddr::V6(_) => unreachable!("bound v4"),
    };
    let my_addr = addr_of(local);
    socket.set_read_timeout(Some(Duration::from_millis(10)))?;

    // Bootstrap discovery: the §4.3 join needs the bootstrap's NodeId,
    // which we learn from a transport-level probe (every envelope carries
    // the sender id).
    let bootstrap_target = match cfg.bootstrap {
        None => None,
        Some(peer) => {
            let probe = encode(cfg.id, my_addr, &Message::Probe);
            let mut found = None;
            let mut buf = [0u8; 2048];
            'discovery: for _attempt in 0..50 {
                socket.send_to(&probe, SocketAddr::V4(peer))?;
                let deadline = Instant::now() + Duration::from_millis(100);
                while Instant::now() < deadline {
                    match socket.recv_from(&mut buf) {
                        Ok((n, _)) => {
                            if let Ok(env) = decode(&buf[..n]) {
                                if matches!(env.msg, Message::ProbeAck) {
                                    found = Some(Target {
                                        id: env.from,
                                        addr: addr_of(peer),
                                        level: Level::MAX, // unknown yet
                                    });
                                    break 'discovery;
                                }
                            }
                        }
                        Err(ref e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(e) => return Err(SpawnError::Io(e)),
                    }
                }
            }
            Some(found.ok_or(SpawnError::BootstrapUnreachable)?)
        }
    };

    let (machine, initial) = match bootstrap_target {
        None => NodeMachine::new_seed(
            cfg.protocol,
            cfg.id,
            my_addr,
            cfg.info,
            cfg.threshold_bps,
            cfg.seed,
        ),
        Some(boot) => NodeMachine::new_joining(
            cfg.protocol,
            cfg.id,
            my_addr,
            cfg.info,
            cfg.threshold_bps,
            boot,
            cfg.seed,
        ),
    };

    let (ctl_tx, ctl_rx) = bounded(64);
    let id = cfg.id;
    let diag = Arc::new(Mutex::new(Vec::new()));
    let stats = Arc::new(RuntimeStats::default());
    // Bootstrap discovery above ran unjudged: a node must be able to
    // find its bootstrap even under a plan that would condition that link
    // (the shim models the network misbehaving *after* the operator
    // managed to start the process).
    let judge = cfg
        .shim
        .as_ref()
        .and_then(|spec| crate::shim::Judge::new(spec, local));
    let mut node = NodeLoop::new(machine, socket, judge, &stats, &diag);
    // Serving layer: the node thread owns the publisher; the handle (and
    // anything it hands the reader to) loads snapshots lock-free.
    let snap_reader = node.snap_pub.reader();
    let clock_offset_us = cfg.clock_offset_us;
    let thread = std::thread::Builder::new()
        .name(format!("pwnode-{id}"))
        .spawn(move || {
            let start = Instant::now();
            let clock = move || clock_offset_us + start.elapsed().as_micros() as u64;
            node.start(clock(), initial);
            node.run(ctl_rx, clock)
        })
        .map_err(SpawnError::Io)?;
    Ok(NodeHandle {
        id,
        local_addr: local,
        ctl: ctl_tx,
        diag,
        stats,
        snapshots: snap_reader,
        thread: Some(thread),
    })
}

/// What the due-queue holds.
enum Due {
    /// A protocol timer.
    Timer(Timer),
    /// A send still in its processing delay: encoded and judged when it
    /// departs.
    Send(Target, Message),
    /// An encoded frame that has been judged: a jitter or duplicate copy
    /// (`attempt` 0), or a resend after `attempt` failed writes.
    Frame {
        dest: SocketAddrV4,
        frame: Vec<u8>,
        attempt: u32,
    },
}

/// Largest frame the send path writes; bigger ones are dropped rather
/// than truncated (see the module docs on UDP download limits).
const MAX_FRAME_BYTES: usize = 65_000;
/// First resend delay; subsequent attempts back off ×4 (50 ms, 200 ms,
/// 800 ms — the same doubling-style policy as the protocol's §4.1 RPC
/// backoff, compressed to socket timescales).
const RESEND_BASE_US: u64 = 50_000;
/// Resends per frame before giving up (the protocol's own RPC retry
/// machinery owns recovery beyond the transport's budget).
const RESEND_MAX_ATTEMPTS: u32 = 3;
/// How long a shutting-down node keeps draining at most: long enough for
/// the §4.3 leave multicast's first retries and any delayed copies to
/// flush, short enough that embedders' drop paths stay snappy.
const DRAIN_US: u64 = 300_000;

/// Runtime diagnostics, routed through the trace layer rather than
/// stderr (library code never prints — the audit lint enforces this).
/// Each event is flushed to the shared log immediately so it survives
/// the node thread.
struct Diag {
    trace: NodeTrace,
    shared: Arc<Mutex<Vec<TraceRecord>>>,
    /// Whether the machine's protocol tracing is on, i.e. whether
    /// [`Diag::drain`] has anything to move.
    #[cfg(feature = "trace")]
    tracing: bool,
}

impl Diag {
    fn new(me: NodeId, shared: Arc<Mutex<Vec<TraceRecord>>>) -> Self {
        let mut trace = NodeTrace::new(me.0);
        trace.set_enabled(true);
        Diag {
            trace,
            shared,
            #[cfg(feature = "trace")]
            tracing: false,
        }
    }

    fn emit(&mut self, now_us: u64, code: DiagCode) {
        self.trace.set_now(now_us);
        self.trace
            .emit(0, TraceEventKind::Diag { code }, CauseId::NONE);
        if let Ok(mut log) = self.shared.lock() {
            self.trace.drain_into(&mut log);
        }
    }

    /// Moves the machine's buffered protocol records into the shared log.
    /// While tracing is off the machine buffers nothing, so this locks
    /// nothing either.
    #[cfg(feature = "trace")]
    fn drain(&self, machine: &mut NodeMachine) {
        if !self.tracing {
            return;
        }
        if let Ok(mut log) = self.shared.lock() {
            machine.take_trace(&mut log);
        }
    }

    /// Without the `trace` feature the machine has no protocol records.
    #[cfg(not(feature = "trace"))]
    fn drain(&self, _machine: &mut NodeMachine) {}
}

/// The node thread's state. Every method takes the time as an argument;
/// only [`NodeLoop::run`] reads the clock.
struct NodeLoop {
    machine: NodeMachine,
    sock: UdpSocket,
    /// The shim's verdicts; `None` sends every datagram straight through.
    judge: Option<crate::shim::Judge>,
    /// Timers, delayed sends and judged frames, keyed by `(due_us, seq)`.
    /// Popping an entry removes it.
    queue: BTreeMap<(u64, u64), Due>,
    seq: u64,
    stats: Arc<RuntimeStats>,
    diag: Diag,
    snap_pub: SnapshotPublisher,
}

impl NodeLoop {
    fn new(
        machine: NodeMachine,
        sock: UdpSocket,
        judge: Option<crate::shim::Judge>,
        stats: &Arc<RuntimeStats>,
        diag_log: &Arc<Mutex<Vec<TraceRecord>>>,
    ) -> Self {
        NodeLoop {
            diag: Diag::new(machine.id(), Arc::clone(diag_log)),
            machine,
            sock,
            judge,
            queue: BTreeMap::new(),
            seq: 0,
            stats: Arc::clone(stats),
            snap_pub: SnapshotPublisher::new(),
        }
    }

    /// Publishes the machine's state right out of the constructor as
    /// epoch 0 — a reader resolved from the handle sees the node before
    /// its first event — then carries out the constructor's outputs.
    fn start(&mut self, now: u64, initial: Vec<Output>) {
        self.publish(now);
        self.apply(now, initial);
    }

    /// Feeds one input, in one order: `handle`, trace drain, outputs,
    /// fatal check, snapshot publish. A machine that has left ignores
    /// input, so this does nothing for it.
    fn input(&mut self, now: u64, input: Input) {
        if self.machine.has_left() {
            return;
        }
        let outs = self.machine.handle(now, input);
        self.diag.drain(&mut self.machine);
        self.apply(now, outs);
        if self.machine.fatal_error().is_some() {
            self.diag.emit(now, DiagCode::Fatal);
        }
        self.publish(now);
    }

    fn apply(&mut self, now: u64, outs: Vec<Output>) {
        for o in outs {
            match o {
                Output::Send {
                    to,
                    msg,
                    delay_us: 0,
                } => self.send(now, to, &msg),
                Output::Send { to, msg, delay_us } => {
                    self.schedule(now + delay_us, Due::Send(to, msg))
                }
                Output::SetTimer { delay_us, timer } => {
                    self.schedule(now + delay_us, Due::Timer(timer))
                }
                // Joined / FailureDetected / LevelShifted are observable
                // through snapshots; real applications would hook them
                // here.
                _ => {}
            }
        }
    }

    /// Mirrors a peer-list change into the lock-free serving cell.
    /// Generation-gated: an unchanged list costs one integer compare.
    fn publish(&mut self, now: u64) {
        if self.snap_pub.maybe_publish(&self.machine, now) {
            RuntimeStats::bump(&self.stats.snapshots_published);
        }
    }

    fn schedule(&mut self, at: u64, due: Due) {
        self.seq += 1;
        self.queue.insert((at, self.seq), due);
    }

    /// Pops and carries out every entry due by `now`, in due order.
    fn fire_due(&mut self, now: u64) {
        while let Some(entry) = self.queue.first_entry() {
            if entry.key().0 > now {
                break;
            }
            match entry.remove() {
                Due::Timer(t) => {
                    RuntimeStats::bump(&self.stats.timers_fired);
                    self.input(now, Input::Timer(t));
                }
                Due::Send(to, msg) => self.send(now, to, &msg),
                Due::Frame {
                    dest,
                    frame,
                    attempt,
                } => self.write(now, dest, frame, attempt),
            }
        }
    }

    /// The one send path: encode, drop an oversized frame, judge at
    /// departure, then write each copy the judge lets through or queue it
    /// for its extra delay.
    fn send(&mut self, now: u64, to: Target, msg: &Message) {
        let frame = encode(self.machine.id(), self.machine.addr(), msg);
        if frame.len() > MAX_FRAME_BYTES {
            RuntimeStats::bump(&self.stats.oversized_frames);
            self.diag.emit(now, DiagCode::OversizedFrame);
            return;
        }
        let dest = sock_of(to.addr);
        let [dup, original] = match &mut self.judge {
            Some(judge) => judge.delays(now, dest),
            None => [None, Some(0)],
        };
        if let Some(extra) = dup {
            RuntimeStats::bump(&self.stats.shim_duplicated);
            self.delay(now + extra, dest, frame.clone());
        }
        match original {
            None => RuntimeStats::bump(&self.stats.shim_dropped),
            Some(0) => self.write(now, dest, frame, 0),
            Some(extra) => self.delay(now + extra, dest, frame),
        }
    }

    fn delay(&mut self, at: u64, dest: SocketAddrV4, frame: Vec<u8>) {
        RuntimeStats::bump(&self.stats.shim_delayed);
        let due = Due::Frame {
            dest,
            frame,
            attempt: 0,
        };
        self.schedule(at, due);
    }

    /// Writes one judged frame. A failed write (`EAGAIN`, `ECONNREFUSED`,
    /// …) goes back on the queue with backoff, never back to the judge,
    /// so one frame is charged one verdict.
    fn write(&mut self, now: u64, dest: SocketAddrV4, frame: Vec<u8>, attempt: u32) {
        match self.sock.send_to(&frame, SocketAddr::V4(dest)) {
            Ok(_) => RuntimeStats::bump(&self.stats.datagrams_out),
            Err(_) if attempt < RESEND_MAX_ATTEMPTS => {
                RuntimeStats::bump(&self.stats.send_retries);
                let due = Due::Frame {
                    dest,
                    frame,
                    attempt: attempt + 1,
                };
                self.schedule(now + (RESEND_BASE_US << (2 * attempt)), due);
            }
            Err(_) => {
                RuntimeStats::bump(&self.stats.backoff_exhaustions);
                self.diag.emit(now, DiagCode::SocketError);
            }
        }
    }

    /// Whether the thread is done: the machine has left (drained its
    /// leave, or died) and every frame is out, or the shutdown drain ran
    /// out. Timers a left machine would refuse do not hold it up.
    fn finished(&self, now: u64, drain_until: Option<u64>) -> bool {
        drain_until.is_some_and(|deadline| now >= deadline)
            || (self.machine.has_left() && self.queue.values().all(|d| matches!(d, Due::Timer(_))))
    }

    fn snapshot(&self) -> Snapshot {
        let m = &self.machine;
        Snapshot {
            id: m.id(),
            level: m.level(),
            is_active: m.is_active(),
            peers: m.peers().iter().cloned().collect(),
            tops: m.tops().entries().to_vec(),
            stats: m.stats(),
        }
    }

    /// Serves control commands and datagrams until [`NodeLoop::finished`].
    fn run(mut self, ctl: Receiver<Control>, clock: impl Fn() -> u64) {
        let mut buf = [0u8; 65_536];
        // Set by `Shutdown`: the loop keeps servicing timers, resends and
        // inbound acks until the leave is done or the deadline passes —
        // drain-then-close, so a leave multicast (and its first retries)
        // survives the shutdown request.
        let mut drain_until: Option<u64> = None;
        let mut recv_errors_in_a_row = 0u32;
        loop {
            self.fire_due(clock());
            while let Ok(c) = ctl.try_recv() {
                let now = clock();
                match c {
                    // Blocking send: the requester either receives the
                    // snapshot or has dropped its receiver (in which case
                    // this returns an error immediately). Never a silent
                    // try_send drop.
                    Control::Snapshot(reply) => {
                        let _ = reply.send(self.snapshot());
                    }
                    Control::ChangeInfo(info) => {
                        self.input(now, Input::Command(Command::ChangeInfo(info)))
                    }
                    Control::SetThreshold(bps) => {
                        self.input(now, Input::Command(Command::SetThreshold(bps)))
                    }
                    #[cfg(feature = "trace")]
                    Control::SetTracing(on) => {
                        self.machine.set_tracing(on);
                        self.diag.tracing = on;
                    }
                    Control::Shutdown if drain_until.is_none() => {
                        self.input(now, Input::Command(Command::Shutdown));
                        drain_until = Some(now + DRAIN_US);
                    }
                    Control::Shutdown => {}
                }
            }
            if self.finished(clock(), drain_until) {
                return;
            }

            // Network input (10 ms read timeout set at bind).
            match self.sock.recv_from(&mut buf) {
                Ok((n, _peer)) => {
                    recv_errors_in_a_row = 0;
                    RuntimeStats::bump(&self.stats.datagrams_in);
                    match decode(&buf[..n]) {
                        Ok(env) => {
                            let input = Input::Message {
                                from: env.from,
                                from_addr: env.from_addr,
                                msg: env.msg,
                            };
                            self.input(clock(), input);
                        }
                        Err(_) => RuntimeStats::bump(&self.stats.decode_errors),
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    recv_errors_in_a_row = 0;
                }
                Err(_e) => {
                    // A recv error is usually transient (Linux queues an
                    // ICMP port-unreachable as ECONNREFUSED on the next
                    // read after a send to a dead peer — exactly what a
                    // crashed neighbour produces). Log it and keep serving;
                    // only a persistently broken socket is fatal.
                    self.diag.emit(clock(), DiagCode::SocketError);
                    recv_errors_in_a_row += 1;
                    if recv_errors_in_a_row > 100 {
                        self.diag.emit(clock(), DiagCode::Fatal);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_every_counter() {
        let stats = RuntimeStats::default();
        RuntimeStats::bump(&stats.datagrams_in);
        RuntimeStats::bump(&stats.datagrams_in);
        RuntimeStats::bump(&stats.datagrams_out);
        RuntimeStats::bump(&stats.decode_errors);
        RuntimeStats::bump(&stats.oversized_frames);
        RuntimeStats::bump(&stats.timers_fired);
        RuntimeStats::bump(&stats.shim_dropped);
        RuntimeStats::bump(&stats.shim_dropped);
        RuntimeStats::bump(&stats.shim_duplicated);
        RuntimeStats::bump(&stats.shim_delayed);
        RuntimeStats::bump(&stats.send_retries);
        RuntimeStats::bump(&stats.backoff_exhaustions);
        RuntimeStats::bump(&stats.snapshots_published);
        let snap = stats.snapshot();
        assert_eq!(snap.datagrams_in, 2);
        assert_eq!(snap.datagrams_out, 1);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.oversized_frames, 1);
        assert_eq!(snap.timers_fired, 1);
        assert_eq!(snap.shim_dropped, 2);
        assert_eq!(snap.shim_duplicated, 1);
        assert_eq!(snap.shim_delayed, 1);
        assert_eq!(snap.send_retries, 1);
        assert_eq!(snap.backoff_exhaustions, 1);
        assert_eq!(snap.snapshots_published, 1);
    }

    #[test]
    fn rows_cover_every_field_in_declaration_order() {
        let snap = RuntimeStatsSnapshot {
            datagrams_in: 1,
            datagrams_out: 2,
            decode_errors: 3,
            oversized_frames: 4,
            timers_fired: 5,
            shim_dropped: 6,
            shim_duplicated: 7,
            shim_delayed: 8,
            send_retries: 9,
            backoff_exhaustions: 10,
            snapshots_published: 11,
        };
        let rows = snap.rows();
        assert_eq!(rows[0], ("datagrams_in", 1));
        assert_eq!(rows[4], ("timers_fired", 5));
        assert_eq!(rows[5], ("shim_dropped", 6));
        assert_eq!(rows[9], ("backoff_exhaustions", 10));
        assert_eq!(rows[10], ("snapshots_published", 11));
        assert_eq!(rows.iter().map(|(_, v)| v).sum::<u64>(), 66);
    }

    /// A lone seed driven through 10 000 probe rounds on a virtual clock:
    /// every popped entry leaves the queue, so it holds the seed's five
    /// periodic timers and nothing more (measured maximum: 5).
    #[test]
    fn the_due_queue_stays_bounded_over_ten_thousand_probe_rounds() {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
        let local = match sock.local_addr().expect("bound") {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(_) => unreachable!("bound v4"),
        };
        let protocol = ProtocolConfig {
            processing_delay_us: 0,
            probe_interval_us: 300_000,
            bandwidth_window_us: 2_000_000,
            reconcile_interval_us: 5_000_000,
            ..ProtocolConfig::default()
        };
        let id = NodeId(0x2000_0000_0000_0000_0000_0000_0000_0001);
        let (machine, initial) =
            NodeMachine::new_seed(protocol, id, addr_of(local), Bytes::new(), 1e9, 1);
        let stats = Arc::new(RuntimeStats::default());
        let mut node = NodeLoop::new(machine, sock, None, &stats, &Arc::default());
        node.start(0, initial);
        let rounds = 10_000;
        let mut max_len = node.queue.len();
        while let Some((&(now, _), _)) = node.queue.first_key_value() {
            if now > rounds * 300_000 {
                break;
            }
            node.fire_due(now);
            max_len = max_len.max(node.queue.len());
        }
        assert!(stats.snapshot().timers_fired >= rounds, "too few rounds");
        assert_eq!(max_len, 5, "the due-queue grew");
        assert!(!node.machine.has_left());
    }

    #[test]
    fn prometheus_page_renders_without_a_socket() {
        // Rendering only needs the snapshot, not a live node: build the
        // page the way NodeHandle::prometheus does.
        let stats = RuntimeStats::default();
        RuntimeStats::bump(&stats.timers_fired);
        let snap = stats.snapshot();
        let label = format!("node=\"{}\"", escape_label("0xabc"));
        let mut out = String::new();
        for (name, v) in snap.rows() {
            render_counters(
                &mut out,
                &format!("peerwindow_node_{name}_total"),
                "Transport runtime counter.",
                &[(label.clone(), v)],
            );
        }
        assert!(out.contains("# TYPE peerwindow_node_timers_fired_total counter"));
        assert!(out.contains("peerwindow_node_timers_fired_total{node=\"0xabc\"} 1"));
        assert!(out.contains("peerwindow_node_datagrams_in_total{node=\"0xabc\"} 0"));
    }
}
