//! `pw cluster` — the real-process chaos harness: launches N `pwnode`
//! OS processes over UDP loopback, applies a seeded fault plan
//! cluster-wide through the userspace netem shim, supervises crashes with
//! jittered-backoff restarts, and asserts the partition-aware settle
//! oracle against the live cluster.
//!
//! ```text
//! pw cluster --nodes 8 --base-port 17000 --plan partition-heal --kill-one \
//!            --pwnode target/debug/pwnode --out summary.json
//! ```
//!
//! The run is phased:
//!
//! 1. **Join wave.** Node 0 seeds; the rest bootstrap off it, staggered,
//!    with per-node bandwidth budgets drawn from the Saroiu-calibrated
//!    workload model. Every process shares one shim-spec file (roster +
//!    epoch + plan), so each judges its outbound datagrams from the same
//!    per-link seeded streams.
//! 2. **Partition window** (`--plan partition-heal`): odd-indexed nodes
//!    are blackholed from even-indexed ones for 10 s, then healed. The
//!    `--fast` give-up schedule outlasts the window, so nobody is
//!    falsely expunged and the halves re-converge autonomously.
//! 3. **Crash** (`--kill-one`): once re-settled, the highest-indexed
//!    node is killed with SIGKILL mid-protocol. The supervisor restarts
//!    it (jittered exponential backoff, bounded budget) and the cluster
//!    must settle again with the rejoined node fully re-admitted.
//!
//! The oracle is [`audit_parts`] over control-channel snapshots: settled
//! means no missing same-part pointer, no cross-part pointer, no stale
//! pointer — the same §4.4-aware audit the simulator chaos scenarios
//! assert. A summary JSON (shim verdict counters, send retries, restarts
//! observed, convergence times) goes to `out` and `--out`.
//!
//! Exit codes: 0 settled, 1 not settled / lost nodes, 2 usage,
//! 77 loopback sockets unavailable (callers treat 77 as "skip").

use crate::{finish, Args, Error};
use peerwindow_core::prelude::*;
use peerwindow_faults::FaultPlan;
use peerwindow_trace::json::{self, JVal};
use peerwindow_transport::ShimSpec;
use peerwindow_workload::ChurnConfig;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

const USAGE: &str = "usage: pw cluster [--nodes N] [--base-port P] [--plan partition-heal|none] \
                     [--kill-one] [--out FILE] [--pwnode PATH] [--seed N]";

/// Sim-time (= wall-clock offset from the shared epoch) partition window.
const PART_FROM_US: u64 = 12_000_000;
const PART_UNTIL_US: u64 = 22_000_000;
/// Post-heal settle deadline: heal + worst-case §4.1 retry gap (~8 s on
/// the `--fast` schedule) + slack for the state exchange.
const HEAL_SETTLE_S: u64 = 42;
/// Extra settle budget after the kill/restart.
const REJOIN_SETTLE_S: u64 = 25;
/// Restarts allowed per node before the supervisor gives up on it.
const RESTART_BUDGET: u32 = 3;

struct Opts {
    nodes: u32,
    base_port: u16,
    plan: String,
    kill_one: bool,
    out: Option<String>,
    pwnode: String,
    seed: u64,
}

/// Runs `pw cluster` with `args`; returns the exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    finish(parse(args).and_then(|o| cluster(&o, out, err)), USAGE, err)
}

fn parse(args: &[String]) -> Result<Opts, Error> {
    let mut o = Opts {
        nodes: 8,
        base_port: 17_000,
        plan: "partition-heal".into(),
        kill_one: false,
        out: None,
        pwnode: String::new(),
        seed: 0xC1A05,
    };
    let mut a = Args::new(args);
    while let Some(flag) = a.next() {
        match flag {
            "--nodes" => o.nodes = a.parse(flag)?,
            "--base-port" => o.base_port = a.parse(flag)?,
            "--plan" => o.plan = a.value(flag)?.to_string(),
            "--kill-one" => o.kill_one = true,
            "--out" => o.out = Some(a.value(flag)?.to_string()),
            "--pwnode" => o.pwnode = a.value(flag)?.to_string(),
            "--seed" => o.seed = a.parse(flag)?,
            _ => return Err(Args::unknown(flag)),
        }
    }
    if o.nodes < 2 || !matches!(o.plan.as_str(), "partition-heal" | "none") {
        return Err(Error::usage(
            "need --nodes >= 2 and --plan partition-heal|none",
        ));
    }
    if o.pwnode.is_empty() {
        // Default: a sibling binary of this one (both live in target/…/).
        let sibling = std::env::current_exe().map(|p| p.with_file_name("pwnode"));
        o.pwnode = match sibling {
            Ok(p) if p.exists() => p.to_string_lossy().into_owned(),
            _ => {
                return Err(Error::Fail(
                    2,
                    "no pwnode beside pw; pass --pwnode PATH".into(),
                ))
            }
        };
    }
    Ok(o)
}

/// SplitMix64 — supervisor-side jitter stream (restart backoff), seeded
/// so reruns schedule restarts identically relative to the crash.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

struct NodeProc {
    addr: SocketAddrV4,
    ctl: SocketAddrV4,
    child: Option<Child>,
    budget_bps: f64,
    restarts: u32,
    backoff_until: Option<Instant>,
    /// Set once the supervisor itself stopped or killed the process, so
    /// the restart path can tell a crash from an intended exit.
    expected_down: bool,
    abandoned: bool,
    last_snap: Option<Snap>,
}

/// One parsed `snap` control reply.
struct Snap {
    id: NodeId,
    level: Level,
    active: bool,
    peers: Vec<NodeId>,
    /// The node's [`COUNTERS`], in order.
    counters: [u64; 6],
}

/// The runtime counters a `snap` reply carries; the summary sums each
/// over the cluster.
const COUNTERS: [&str; 6] = [
    "shim_dropped",
    "shim_duplicated",
    "shim_delayed",
    "datagrams_out",
    "send_retries",
    "backoff_exhaustions",
];

fn parse_id(s: &str) -> Option<NodeId> {
    u128::from_str_radix(s, 16).ok().map(NodeId)
}

fn parse_snap(text: &str) -> Option<Snap> {
    let v = json::parse(text).ok()?;
    let runtime = v.get("runtime")?;
    let counter = |name: &str| runtime.get(name).and_then(JVal::as_num).unwrap_or(0);
    Some(Snap {
        id: parse_id(v.get("id")?.as_str()?)?,
        level: Level::new(v.get("level")?.as_num()? as u8),
        active: v.get("active")?.as_num()? == 1,
        peers: match v.get("peers")? {
            JVal::Arr(items) => items
                .iter()
                .map(|p| p.as_str().and_then(parse_id))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        },
        counters: COUNTERS.map(counter),
    })
}

struct Cluster {
    nodes: Vec<NodeProc>,
    pwnode: String,
    spec_path: std::path::PathBuf,
    seed: u64,
    jitter: u64,
    poll_sock: UdpSocket,
    restarts_observed: u32,
}

impl Cluster {
    fn spawn(&mut self, i: usize) -> std::io::Result<()> {
        let n = &self.nodes[i];
        let mut cmd = Command::new(&self.pwnode);
        cmd.arg("--listen")
            .arg(n.addr.to_string())
            .arg("--ctl")
            .arg(n.ctl.port().to_string())
            .arg("--fault-plan")
            .arg(&self.spec_path)
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--budget")
            .arg(format!("{}", n.budget_bps))
            .arg("--info")
            .arg(format!("idx:{i}"))
            .arg("--fast")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if i > 0 {
            // Everyone (including a restarted node) rendezvouses off the
            // seed; its give-up schedule keeps it reachable throughout.
            cmd.arg("--bootstrap").arg(self.nodes[0].addr.to_string());
        }
        let child = cmd.spawn()?;
        let n = &mut self.nodes[i];
        n.child = Some(child);
        n.expected_down = false;
        Ok(())
    }

    /// One supervision pass: reap exited children and restart crashed
    /// ones once their jittered backoff expires.
    fn supervise(&mut self, err: &mut dyn Write) -> std::io::Result<()> {
        for i in 0..self.nodes.len() {
            let n = &mut self.nodes[i];
            if n.abandoned {
                continue;
            }
            if let Some(child) = &mut n.child {
                match child.try_wait() {
                    Ok(None) => continue, // still running
                    Ok(Some(_)) | Err(_) => n.child = None,
                }
                if n.expected_down {
                    continue;
                }
                // Crash detected: schedule a restart with jittered
                // exponential backoff (500 ms · 2^k, capped, ±25 %).
                if n.restarts >= RESTART_BUDGET {
                    n.abandoned = true;
                    writeln!(err, "node {i}: restart budget exhausted")?;
                    continue;
                }
                let base = (500u64 << n.restarts).min(4_000);
                let jit = splitmix(&mut self.jitter) % (base / 2 + 1);
                let wait = base - base / 4 + jit;
                n.restarts += 1;
                self.restarts_observed += 1;
                n.backoff_until = Some(Instant::now() + Duration::from_millis(wait));
                writeln!(err, "node {i}: down, restart #{} in {wait} ms", n.restarts)?;
            } else if n.backoff_until.is_some_and(|t| Instant::now() >= t) {
                n.backoff_until = None;
                if let Err(e) = self.spawn(i) {
                    writeln!(err, "node {i}: respawn failed: {e}")?;
                    self.nodes[i].abandoned = true;
                }
            }
        }
        Ok(())
    }

    /// Polls every live node's control port; updates `last_snap`.
    fn poll(&mut self) {
        let mut buf = [0u8; 4096];
        for n in &mut self.nodes {
            if n.child.is_none() {
                continue;
            }
            if self.poll_sock.send_to(b"snap", n.ctl).is_err() {
                continue;
            }
            // One request, one reply; late replies to a previous poll are
            // drained by source-address mismatch.
            let deadline = Instant::now() + Duration::from_millis(300);
            while Instant::now() < deadline {
                match self.poll_sock.recv_from(&mut buf) {
                    Ok((len, from)) if from == std::net::SocketAddr::V4(n.ctl) => {
                        if let Some(s) = std::str::from_utf8(&buf[..len]).ok().and_then(parse_snap)
                        {
                            n.last_snap = Some(s);
                        }
                        break;
                    }
                    Ok(_) => continue, // stale reply from another node
                    Err(_) => break,   // timeout
                }
            }
        }
    }

    /// The settle oracle over the latest snapshots: every node running,
    /// active, and `audit_parts` clean. Returns the audit when it holds.
    fn settled(&self) -> Option<PartAudit> {
        let mut views = Vec::new();
        for n in &self.nodes {
            if n.child.is_none() || n.abandoned {
                return None;
            }
            let s = n.last_snap.as_ref()?;
            if !s.active {
                return None;
            }
            views.push((NodeIdentity::new(s.id, s.level), s.peers.clone()));
        }
        let audit = audit_parts(&views);
        audit.is_settled().then_some(audit)
    }

    fn stop_all(&mut self) {
        for n in &mut self.nodes {
            if n.child.is_some() {
                n.expected_down = true;
                let _ = self.poll_sock.send_to(b"stop", n.ctl);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        for n in &mut self.nodes {
            if let Some(child) = &mut n.child {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        _ if Instant::now() >= deadline => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        _ => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
                n.child = None;
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_all();
        let _ = std::fs::remove_file(&self.spec_path);
    }
}

fn summary_json(
    o: &Opts,
    c: &Cluster,
    converged: bool,
    audit: Option<PartAudit>,
    joined_ms: Option<u64>,
    settled_ms: Option<u64>,
) -> String {
    let mut t = [0u64; 6];
    for s in c.nodes.iter().filter_map(|n| n.last_snap.as_ref()) {
        t.iter_mut().zip(s.counters).for_each(|(t, v)| *t += v);
    }
    let audit = audit.unwrap_or_default();
    let per_node: Vec<String> = c
        .nodes
        .iter()
        .map(|n| match &n.last_snap {
            Some(s) => format!(
                "{{\"id\":\"{}\",\"level\":{},\"peers\":{},\"restarts\":{}}}",
                s.id,
                s.level.value(),
                s.peers.len(),
                n.restarts
            ),
            None => format!("{{\"restarts\":{}}}", n.restarts),
        })
        .collect();
    format!(
        "{{\"nodes\":{},\"plan\":\"{}\",\"seed\":{},\"kill_one\":{},\"converged\":{},\
         \"restarts_observed\":{},\"joined_ms\":{},\"settled_ms\":{},\
         \"audit\":{{\"parts\":{},\"missing\":{},\"cross_part\":{},\"stale\":{}}},\
         \"shim\":{{\"dropped\":{},\"duplicated\":{},\"delayed\":{}}},\
         \"runtime\":{{\"datagrams_out\":{},\"send_retries\":{},\"backoff_exhaustions\":{}}},\
         \"per_node\":[{}]}}",
        o.nodes,
        o.plan,
        o.seed,
        u8::from(o.kill_one),
        u8::from(converged),
        c.restarts_observed,
        joined_ms.unwrap_or(0),
        settled_ms.unwrap_or(0),
        audit.parts,
        audit.missing,
        audit.cross_part,
        audit.stale,
        t[0],
        t[1],
        t[2],
        t[3],
        t[4],
        t[5],
        per_node.join(","),
    )
}

fn cluster(o: &Opts, out: &mut dyn Write, err: &mut dyn Write) -> Result<u8, Error> {
    // Socket availability probe: every node port and ctl port must bind,
    // or the environment cannot host the cluster (exit 77 = skip).
    let probes: Vec<UdpSocket> = (0..o.nodes as u16)
        .flat_map(|i| [o.base_port + i, o.base_port + 500 + i])
        .map(|port| {
            UdpSocket::bind((Ipv4Addr::LOCALHOST, port)).map_err(|e| {
                Error::Fail(77, format!("cannot bind 127.0.0.1:{port}: {e}; skipping"))
            })
        })
        .collect::<Result<_, _>>()?;
    drop(probes);

    // Shared shim spec: roster in index order, epoch = now, plan windows
    // relative to it. Every pwnode judges its own sends from this file.
    let epoch_unix_us = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let roster: Vec<SocketAddrV4> = (0..o.nodes as u16)
        .map(|i| SocketAddrV4::new(Ipv4Addr::LOCALHOST, o.base_port + i))
        .collect();
    let plan = match o.plan.as_str() {
        "partition-heal" => FaultPlan::reliable(o.seed ^ 0xC_4A05).with_partition(
            PART_FROM_US,
            PART_UNTIL_US,
            2,
            &[1],
        ),
        _ => FaultPlan::reliable(o.seed ^ 0xC_4A05),
    };
    let spec = ShimSpec {
        plan,
        epoch_unix_us,
        roster: roster.clone(),
    };

    // Per-node bandwidth budgets from the workload model, floored so the
    // fast-cadence control traffic never starves level 0 entirely.
    let churn = ChurnConfig::paper_common(o.nodes as usize, o.seed);
    let budgets: Vec<f64> = churn
        .initial_population()
        .into_iter()
        .map(|(spec, _)| spec.threshold_bps.max(200_000.0))
        .collect();

    let poll_sock = UdpSocket::bind("127.0.0.1:0")
        .map_err(|e| Error::Fail(77, format!("cannot bind poll socket: {e}")))?;
    poll_sock
        .set_read_timeout(Some(Duration::from_millis(300)))
        .map_err(|e| Error::Fail(1, format!("cannot set the poll socket's timeout: {e}")))?;
    // From here on, dropping `cluster` stops its processes and removes the
    // spec file, named per process and base port so that concurrent runs
    // never share it.
    let mut cluster = Cluster {
        nodes: (0..o.nodes as usize)
            .map(|i| NodeProc {
                addr: roster[i],
                ctl: SocketAddrV4::new(Ipv4Addr::LOCALHOST, o.base_port + 500 + i as u16),
                child: None,
                budget_bps: budgets[i % budgets.len()],
                restarts: 0,
                backoff_until: None,
                expected_down: true,
                abandoned: false,
                last_snap: None,
            })
            .collect(),
        pwnode: o.pwnode.clone(),
        spec_path: std::env::temp_dir().join(format!(
            "pwcluster-{}-{}.shim",
            std::process::id(),
            o.base_port
        )),
        seed: o.seed,
        jitter: o.seed ^ 0x5B_00F,
        poll_sock,
        restarts_observed: 0,
    };
    std::fs::write(&cluster.spec_path, spec.to_text()).map_err(|e| {
        Error::Fail(
            1,
            format!(
                "cannot write shim spec {}: {e}",
                cluster.spec_path.display()
            ),
        )
    })?;

    // Join wave: seed first, then staggered joiners.
    let start = Instant::now();
    for i in 0..o.nodes as usize {
        cluster
            .spawn(i)
            .map_err(|e| Error::Fail(1, format!("cannot launch pwnode: {e}")))?;
        std::thread::sleep(Duration::from_millis(if i == 0 { 400 } else { 150 }));
    }

    let mut joined_ms = None;
    let mut settled_ms = None;
    let mut killed = false;
    let mut final_audit = None;
    let deadline =
        start + Duration::from_secs(HEAL_SETTLE_S + if o.kill_one { REJOIN_SETTLE_S } else { 0 });
    while Instant::now() < deadline {
        cluster.supervise(err)?;
        cluster.poll();
        let audit = cluster.settled();
        let elapsed = start.elapsed();
        if let Some(a) = audit {
            if joined_ms.is_none() && elapsed < Duration::from_micros(PART_FROM_US) {
                joined_ms = Some(elapsed.as_millis() as u64);
                writeln!(err, "joined and settled at {} ms", elapsed.as_millis())?;
            }
            let past_faults = o.plan == "none" || elapsed > Duration::from_micros(PART_UNTIL_US);
            if past_faults && o.kill_one && !killed {
                // Settled after the heal: now crash the highest-indexed
                // node mid-protocol and let supervision bring it back.
                killed = true;
                let victim = o.nodes as usize - 1;
                if let Some(child) = &mut cluster.nodes[victim].child {
                    writeln!(err, "kill -9 node {victim} at {} ms", elapsed.as_millis())?;
                    let _ = child.kill();
                }
                // Its old snapshot no longer reflects a live process.
                cluster.nodes[victim].last_snap = None;
                continue;
            }
            if past_faults && (!o.kill_one || cluster.restarts_observed > 0) {
                settled_ms = Some(elapsed.as_millis() as u64);
                final_audit = Some(a);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }

    let converged = final_audit.is_some();
    cluster.stop_all();
    let summary = summary_json(o, &cluster, converged, final_audit, joined_ms, settled_ms);
    writeln!(out, "{summary}")?;
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, &summary) {
            writeln!(err, "cannot write {path}: {e}")?;
        }
    }
    if !converged {
        writeln!(err, "cluster did not settle")?;
        return Ok(1);
    }
    Ok(0)
}
