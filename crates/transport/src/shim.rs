//! Userspace netem shim: the sim's fault plans, applied to real UDP.
//!
//! The chaos layer built for the simulators (`peerwindow-faults`) judges
//! every datagram at send time from per-directed-link seeded streams, so
//! a `FaultPlan` is reproducible from `(plan, seed)` alone. This module
//! carries that exact machinery onto real sockets without `tc netem` or
//! root: a [`FaultingSocket`] wraps the node's `UdpSocket` and routes
//! every outbound datagram through a `LinkConditioner` before it reaches
//! the kernel. Blackholes and loss swallow the write, jitter parks the
//! frame on a delayed queue the runtime pumps, duplication queues a
//! trailing copy — the same five conditions (and domain partitions) the
//! sims run, unmodified.
//!
//! ## The shared-spec contract
//!
//! Per-link streams are keyed by *sim actor ids* (`u32`), so every
//! process in a cluster must agree on the numbering and the time base.
//! A [`ShimSpec`] file provides both:
//!
//! * a **roster** of socket addresses — a node's actor id is its roster
//!   position, so `(src_addr, dst_addr)` maps to the same directed link
//!   in every process;
//! * an **epoch** (unix microseconds) — the plan's sim-time windows are
//!   interpreted as wall-clock offsets from this instant, so a rule
//!   `from=10s until=25s` opens and heals simultaneously cluster-wide.
//!
//! Datagrams to addresses outside the roster (e.g. an operator's
//! ad-hoc probe) bypass the conditioner.
//!
//! ## What is and is not deterministic here
//!
//! The *verdict sequence per link* is: the k-th judged datagram on a
//! directed link sees the same draws in every run with the same spec.
//! What k-th datagram that is depends on real scheduling, so — unlike
//! the DES engines — end-to-end runs are not bit-reproducible; the
//! seeded streams make the *fault process* (loss pattern shape, burst
//! lengths, duplication rate) reproducible and counters comparable
//! across runs. See DESIGN.md §"Real-transport chaos".

use crate::runtime::RuntimeStats;
use peerwindow_faults::{text, FaultModel, FaultPlan, LinkConditioner, Verdict};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::path::Path;
use std::sync::Arc;

/// A cluster-wide chaos spec: the fault plan plus the roster and epoch
/// that anchor it to real addresses and wall-clock time.
#[derive(Clone, Debug, PartialEq)]
pub struct ShimSpec {
    /// The seeded fault schedule, in microseconds since `epoch_unix_us`.
    pub plan: FaultPlan,
    /// Cluster time zero, microseconds since the unix epoch.
    pub epoch_unix_us: u64,
    /// Actor-id table: `roster[i]` is the listen address of sim id `i`.
    pub roster: Vec<SocketAddrV4>,
}

impl ShimSpec {
    /// Serializes the spec to its line-based file format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("peerwindow-shim v1\n");
        out.push_str(&format!("epoch-unix-us {}\n", self.epoch_unix_us));
        for addr in &self.roster {
            out.push_str(&format!("node {addr}\n"));
        }
        out.push_str(&text::to_text(&self.plan));
        out
    }

    /// Parses a spec file.
    pub fn from_text(input: &str) -> Result<ShimSpec, String> {
        let mut lines = input.lines();
        match lines.next().map(str::trim) {
            Some("peerwindow-shim v1") => {}
            other => return Err(format!("bad shim header {other:?}")),
        }
        let mut epoch_unix_us = None;
        let mut roster = Vec::new();
        let mut plan_text = String::new();
        let mut in_plan = false;
        for raw in lines {
            let line = raw.trim();
            if in_plan {
                plan_text.push_str(raw);
                plan_text.push('\n');
            } else if line.is_empty() || line.starts_with('#') {
                continue;
            } else if let Some(v) = line.strip_prefix("epoch-unix-us ") {
                epoch_unix_us = Some(v.trim().parse().map_err(|_| format!("bad epoch {v:?}"))?);
            } else if let Some(v) = line.strip_prefix("node ") {
                roster.push(
                    v.trim()
                        .parse()
                        .map_err(|_| format!("bad roster address {v:?}"))?,
                );
            } else {
                // First plan line; everything from here belongs to the
                // plan parser.
                in_plan = true;
                plan_text.push_str(raw);
                plan_text.push('\n');
            }
        }
        Ok(ShimSpec {
            plan: text::from_text(&plan_text)?,
            epoch_unix_us: epoch_unix_us.ok_or("missing epoch-unix-us line")?,
            roster,
        })
    }

    /// Reads and parses a spec file from disk.
    pub fn load(path: &Path) -> Result<ShimSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_text(&text)
    }

    /// The sim actor id of `addr`, if it is in the roster.
    pub fn index_of(&self, addr: SocketAddrV4) -> Option<u32> {
        self.roster
            .iter()
            .position(|a| *a == addr)
            .map(|i| i as u32)
    }

    /// Microseconds elapsed since the cluster epoch, per the local wall
    /// clock — the `clock_offset_us` a runtime should start from so its
    /// timeline (and the event origin timestamps it stamps) line up with
    /// every other process sharing this spec.
    pub fn wall_offset_us(&self) -> u64 {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        now.saturating_sub(self.epoch_unix_us)
    }
}

/// One frame held back by a jitter/duplicate verdict (or a failed flush
/// awaiting its retry slot).
struct Delayed {
    due_us: u64,
    dst: SocketAddrV4,
    frame: Vec<u8>,
    attempts: u8,
}

/// Conditioner state, present only when this node is on the roster.
struct Shim {
    cond: LinkConditioner,
    me: u32,
    index: BTreeMap<SocketAddrV4, u32>,
    pending: Vec<Delayed>,
}

/// Retry spacing for delayed frames whose socket write failed (transient
/// `EAGAIN`/`ECONNREFUSED`); mirrors the runtime's resend backoff base.
const PUMP_RETRY_US: u64 = 20_000;
/// Attempts per delayed frame before it is abandoned.
const PUMP_MAX_ATTEMPTS: u8 = 3;

/// A `UdpSocket` whose outbound path runs through a fault plan.
///
/// With no spec (or a local address outside the roster) every call is a
/// thin pass-through; the runtime uses one code path either way. All
/// shim verdicts are folded into the shared [`RuntimeStats`] counters
/// (`shim_dropped` / `shim_duplicated` / `shim_delayed`).
pub struct FaultingSocket {
    sock: UdpSocket,
    stats: Arc<RuntimeStats>,
    shim: Option<Shim>,
}

impl FaultingSocket {
    /// Wraps `sock`. `local` is the node's bound address, used to find
    /// its actor id in the roster; a node not on the roster sends
    /// unconditioned.
    pub fn new(
        sock: UdpSocket,
        stats: Arc<RuntimeStats>,
        spec: Option<&ShimSpec>,
        local: SocketAddrV4,
    ) -> Self {
        let shim = spec.and_then(|spec| {
            let me = spec.index_of(local)?;
            let index = spec
                .roster
                .iter()
                .enumerate()
                .map(|(i, a)| (*a, i as u32))
                .collect();
            Some(Shim {
                cond: LinkConditioner::new(spec.plan.clone()),
                me,
                index,
                pending: Vec::new(),
            })
        });
        FaultingSocket { sock, stats, shim }
    }

    /// Judges and transmits one outbound frame. Swallowed and queued
    /// frames return `Ok(())`; only an immediate socket write can fail,
    /// and the caller owns that retry.
    pub fn send_judged(&mut self, now_us: u64, frame: &[u8], dst: SocketAddrV4) -> io::Result<()> {
        let verdict = match &mut self.shim {
            Some(shim) => match shim.index.get(&dst) {
                Some(&dst_id) => shim.cond.judge(now_us, shim.me, dst_id),
                None => Verdict::Deliver { extra_delay_us: 0 },
            },
            None => Verdict::Deliver { extra_delay_us: 0 },
        };
        let [dup, original] = verdict.delays();
        if let Some(extra) = dup {
            self.stats.note_shim_duplicated();
            self.park(now_us + extra, dst, frame.to_vec());
        }
        match original {
            None => {
                self.stats.note_shim_dropped();
                Ok(())
            }
            Some(0) => self.send_raw(frame, dst),
            Some(extra) => {
                self.park(now_us + extra, dst, frame.to_vec());
                Ok(())
            }
        }
    }

    fn park(&mut self, due_us: u64, dst: SocketAddrV4, frame: Vec<u8>) {
        self.stats.note_shim_delayed();
        if let Some(shim) = &mut self.shim {
            shim.pending.push(Delayed {
                due_us,
                dst,
                frame,
                attempts: 0,
            });
        }
    }

    /// Writes a frame to the socket, bypassing the conditioner (used for
    /// retries of frames that were already judged and admitted).
    pub fn send_raw(&self, frame: &[u8], dst: SocketAddrV4) -> io::Result<()> {
        self.sock.send_to(frame, SocketAddr::V4(dst)).map(|_| {
            self.stats.note_datagram_out();
        })
    }

    /// Flushes every parked frame that has come due. Write failures are
    /// retried on later pumps ([`PUMP_MAX_ATTEMPTS`] times, spaced
    /// [`PUMP_RETRY_US`] apart) and then abandoned — the peer's §4.1/§4.2
    /// retry machinery owns recovery beyond that.
    pub fn pump(&mut self, now_us: u64) {
        let Some(shim) = &mut self.shim else { return };
        let mut i = 0;
        while i < shim.pending.len() {
            if shim.pending[i].due_us > now_us {
                i += 1;
                continue;
            }
            let d = &mut shim.pending[i];
            match self.sock.send_to(&d.frame, SocketAddr::V4(d.dst)) {
                Ok(_) => {
                    self.stats.note_datagram_out();
                    shim.pending.swap_remove(i);
                }
                Err(_) => {
                    d.attempts += 1;
                    if d.attempts >= PUMP_MAX_ATTEMPTS {
                        self.stats.note_backoff_exhausted();
                        shim.pending.swap_remove(i);
                    } else {
                        self.stats.note_send_retry();
                        d.due_us = now_us + PUMP_RETRY_US;
                        i += 1;
                    }
                }
            }
        }
    }

    /// Whether any parked frame is still awaiting its due time (the
    /// shutdown drain waits for these).
    pub fn has_pending(&self) -> bool {
        self.shim.as_ref().is_some_and(|s| !s.pending.is_empty())
    }

    /// Receives one datagram (inbound traffic is never conditioned —
    /// every fault is judged on the sender side, as in the sims).
    pub fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.sock.recv_from(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerwindow_faults::{Condition, FaultRule, LinkSel, NodeSel};
    use std::time::Duration;

    fn pair() -> (UdpSocket, SocketAddrV4, UdpSocket, SocketAddrV4) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        b.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let av4 = match a.local_addr().unwrap() {
            SocketAddr::V4(v) => v,
            _ => unreachable!(),
        };
        let bv4 = match b.local_addr().unwrap() {
            SocketAddr::V4(v) => v,
            _ => unreachable!(),
        };
        (a, av4, b, bv4)
    }

    fn spec(plan: FaultPlan, roster: Vec<SocketAddrV4>) -> ShimSpec {
        ShimSpec {
            plan,
            epoch_unix_us: 1_700_000_000_000_000,
            roster,
        }
    }

    #[test]
    fn spec_file_round_trips() {
        let s = spec(
            FaultPlan::reliable(9).with_partition(1_000_000, 2_000_000, 2, &[1]),
            vec![
                "127.0.0.1:7400".parse().unwrap(),
                "127.0.0.1:7401".parse().unwrap(),
            ],
        );
        let back = ShimSpec::from_text(&s.to_text()).expect("parses");
        assert_eq!(back, s);
        assert_eq!(back.index_of("127.0.0.1:7401".parse().unwrap()), Some(1));
        assert_eq!(back.index_of("127.0.0.1:9999".parse().unwrap()), None);
        assert!(ShimSpec::from_text("nonsense").is_err());
        assert!(ShimSpec::from_text("peerwindow-shim v1\nplan seed=1").is_err());
    }

    #[test]
    fn blackhole_window_swallows_and_heals() {
        let (a, av4, b, bv4) = pair();
        let plan = FaultPlan::reliable(1).with_rule(FaultRule {
            from_us: 100,
            until_us: 200,
            links: LinkSel::one_way(NodeSel::One(0), NodeSel::One(1)),
            condition: Condition::Blackhole,
        });
        let stats = Arc::new(RuntimeStats::default());
        let mut fs = FaultingSocket::new(
            a,
            Arc::clone(&stats),
            Some(&spec(plan, vec![av4, bv4])),
            av4,
        );
        let mut buf = [0u8; 64];
        fs.send_judged(150, b"inside", bv4).unwrap();
        assert!(b.recv_from(&mut buf).is_err(), "blackholed frame arrived");
        fs.send_judged(250, b"after", bv4).unwrap();
        let (n, _) = b.recv_from(&mut buf).expect("post-heal frame arrives");
        assert_eq!(&buf[..n], b"after");
        let snap = stats.snapshot();
        assert_eq!(snap.shim_dropped, 1);
        assert_eq!(snap.datagrams_out, 1);
    }

    #[test]
    fn duplicate_verdict_sends_the_frame_twice() {
        let (a, av4, b, bv4) = pair();
        let plan = FaultPlan::reliable(2).with_rule(FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: LinkSel::all(),
            condition: Condition::Duplicate { p: 1.0, gap_us: 1 },
        });
        let stats = Arc::new(RuntimeStats::default());
        let mut fs = FaultingSocket::new(
            a,
            Arc::clone(&stats),
            Some(&spec(plan, vec![av4, bv4])),
            av4,
        );
        fs.send_judged(10, b"twin", bv4).unwrap();
        assert!(fs.has_pending());
        fs.pump(10_000);
        assert!(!fs.has_pending());
        let mut buf = [0u8; 64];
        for _ in 0..2 {
            let (n, _) = b.recv_from(&mut buf).expect("copy arrives");
            assert_eq!(&buf[..n], b"twin");
        }
        let snap = stats.snapshot();
        assert_eq!(snap.shim_duplicated, 1);
        assert_eq!(snap.datagrams_out, 2);
    }

    #[test]
    fn off_roster_destinations_and_nodes_bypass_the_conditioner() {
        let (a, av4, b, bv4) = pair();
        let blackhole_all = FaultPlan::reliable(3).with_rule(FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: LinkSel::all(),
            condition: Condition::Blackhole,
        });
        let stats = Arc::new(RuntimeStats::default());
        // b is NOT on the roster: frames to it skip the plan entirely.
        let mut fs = FaultingSocket::new(
            a,
            Arc::clone(&stats),
            Some(&spec(blackhole_all.clone(), vec![av4])),
            av4,
        );
        fs.send_judged(5, b"unlisted", bv4).unwrap();
        let mut buf = [0u8; 64];
        assert!(b.recv_from(&mut buf).is_ok());
        // And a sender whose own address is off the roster is fully
        // unconditioned even toward roster members.
        let (c, cv4, d, dv4) = pair();
        let mut fs2 = FaultingSocket::new(
            c,
            Arc::new(RuntimeStats::default()),
            Some(&spec(blackhole_all, vec![dv4])),
            cv4,
        );
        fs2.send_judged(5, b"outsider", dv4).unwrap();
        assert!(d.recv_from(&mut buf).is_ok());
    }
}
