//! Userspace netem shim: the sim's fault plans, applied to real UDP.
//!
//! The chaos layer built for the simulators (`peerwindow-faults`) judges
//! every datagram at departure from per-directed-link seeded streams, so
//! a `FaultPlan` is reproducible from `(plan, seed)` alone. This module
//! carries that exact machinery onto real sockets without `tc netem` or
//! root: it is a judge, not a socket. The runtime's one send path asks
//! the node's `Judge` — its roster index and a `LinkConditioner` — once
//! per outbound datagram, at departure, how late each copy leaves.
//! Blackholes and loss leave no copy, jitter delays the original,
//! duplication adds a trailing copy; the runtime writes a copy due now
//! and queues the rest on its one due-queue. The same five conditions
//! (and domain partitions) the sims run, unmodified.
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

use peerwindow_faults::{text, FaultPlan, LinkConditioner, Verdict};
use std::collections::BTreeMap;
use std::net::SocketAddrV4;
use std::path::Path;

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

/// The shim's verdicts for one node: its roster index and a
/// `LinkConditioner` over the spec's plan. Inbound traffic is never
/// judged — every fault is decided on the sender side, as in the sims.
pub(crate) struct Judge {
    cond: LinkConditioner,
    me: u32,
    index: BTreeMap<SocketAddrV4, u32>,
}

impl Judge {
    /// The judge of the node bound at `local`; `None` when that address
    /// is off the roster, so the node sends unconditioned.
    pub(crate) fn new(spec: &ShimSpec, local: SocketAddrV4) -> Option<Judge> {
        let me = spec.index_of(local)?;
        let index = spec
            .roster
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, i as u32))
            .collect();
        Some(Judge {
            cond: LinkConditioner::new(spec.plan.clone()),
            me,
            index,
        })
    }

    /// Extra delay of each copy of one datagram to `dst` leaving at
    /// `now_us`, as `[duplicate, original]` (see `Verdict::delays`);
    /// `None` is a copy that never leaves. Destinations off the roster
    /// bypass the plan.
    pub(crate) fn delays(&mut self, now_us: u64, dst: SocketAddrV4) -> [Option<u64>; 2] {
        let verdict = match self.index.get(&dst) {
            Some(&dst_id) => self.cond.judge(now_us, self.me, dst_id),
            None => Verdict::Deliver { extra_delay_us: 0 },
        };
        verdict.delays()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerwindow_faults::{Condition, FaultRule, LinkSel, NodeSel};

    fn addr(port: u16) -> SocketAddrV4 {
        SocketAddrV4::new([127, 0, 0, 1].into(), port)
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
        let (a, b) = (addr(7400), addr(7401));
        let plan = FaultPlan::reliable(1).with_rule(FaultRule {
            from_us: 100,
            until_us: 200,
            links: LinkSel::one_way(NodeSel::One(0), NodeSel::One(1)),
            condition: Condition::Blackhole,
        });
        let mut judge = Judge::new(&spec(plan, vec![a, b]), a).expect("a is on the roster");
        assert_eq!(judge.delays(50, b), [None, Some(0)], "before the window");
        assert_eq!(judge.delays(150, b), [None, None], "inside the window");
        assert_eq!(judge.delays(250, b), [None, Some(0)], "after it heals");
    }

    #[test]
    fn off_roster_destinations_and_nodes_bypass_the_conditioner() {
        let (a, b) = (addr(7400), addr(7401));
        let blackhole_all = FaultPlan::reliable(3).with_rule(FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: LinkSel::all(),
            condition: Condition::Blackhole,
        });
        // b is NOT on the roster: frames to it skip the plan entirely.
        let mut judge = Judge::new(&spec(blackhole_all.clone(), vec![a]), a).expect("a is listed");
        assert_eq!(judge.delays(5, b), [None, Some(0)]);
        assert_eq!(judge.delays(5, a), [None, None], "a roster link is judged");
        // And a sender whose own address is off the roster has no judge
        // at all: it sends unconditioned even toward roster members.
        assert!(Judge::new(&spec(blackhole_all, vec![b]), a).is_none());
    }
}
