//! A standalone PeerWindow node over UDP.
//!
//! ```text
//! # start a seed node:
//! pwnode --listen 127.0.0.1:7000
//! # join it:
//! pwnode --listen 127.0.0.1:7001 --bootstrap 127.0.0.1:7000 \
//!        --budget 5000 --info "os:linux"
//! ```
//!
//! Prints a peer-list summary every few seconds. Ctrl-C to quit
//! (ungracefully — watch the other nodes detect it within a few probe
//! intervals).
//!
//! Cluster-harness flags (used by `pw cluster`):
//!
//! * `--fault-plan FILE` — a shared shim-spec file (roster + epoch +
//!   fault plan). Outbound datagrams are conditioned by the plan, and
//!   the node's clock is offset to the cluster epoch so the plan's
//!   windows (and event origin timestamps) agree across processes.
//! * `--ctl PORT` — a loopback UDP control port answering `snap` (one
//!   JSON state snapshot per datagram), `query epoch` / `query count` /
//!   `query strongest K` (served lock-free from the published peer-list
//!   snapshot, no node-thread round trip), and `stop` (graceful leave,
//!   then exit). Lets a supervisor poll and stop nodes without pipes.
//! * `--fast` — test-scale protocol cadence (0.5 s probes) so failure
//!   detection and convergence happen in seconds, not minutes.

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_trace::json::write_str;
use peerwindow_transport::{spawn_node, NodeHandle, RuntimeConfig, ShimSpec, Snapshot};
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

struct Opts {
    cfg: RuntimeConfig,
    ctl_port: Option<u16>,
}

const USAGE: &str = "usage: pwnode --listen IP:PORT [--bootstrap IP:PORT] [--budget BPS] \
                     [--info S] [--seed N] [--fault-plan FILE] [--ctl PORT] [--fast]";

/// The value that follows `flag`, parsed as a `T`.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut listen: SocketAddrV4 = "127.0.0.1:0".parse().unwrap();
    let mut bootstrap: Option<SocketAddrV4> = None;
    let mut budget = 50_000.0;
    let mut info = Bytes::new();
    let mut seed = 0x5EED;
    let mut fault_plan: Option<String> = None;
    let mut ctl_port = None;
    let mut fast = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = value(&mut it, &a)?,
            "--bootstrap" => bootstrap = Some(value(&mut it, &a)?),
            "--budget" => budget = value(&mut it, &a)?,
            "--info" => info = Bytes::from(value::<String>(&mut it, &a)?),
            "--seed" => seed = value(&mut it, &a)?,
            "--fault-plan" => fault_plan = Some(value(&mut it, &a)?),
            "--ctl" => ctl_port = Some(value(&mut it, &a)?),
            "--fast" => fast = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Derive the node id from the listen address + seed (a real
    // deployment would hash a persistent public key). Stable across
    // restarts of the same (addr, seed), so a crash-restarted node
    // rejoins under its old identity.
    let id = {
        let mut h = seed ^ 0x9E3779B97F4A7C15u64;
        for b in listen.to_string().bytes() {
            h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
        }
        // Finalize with a splitmix round: FNV alone leaves adjacent
        // ports adjacent in id space, which would cluster a whole
        // loopback roster under one long shared prefix.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        NodeId(((mix(h) as u128) << 64) | mix(h ^ 0x6A09E667F3BCC909) as u128)
    };
    let shim = fault_plan
        .map(|path| ShimSpec::load(std::path::Path::new(&path)))
        .transpose()
        .map_err(|e| format!("bad --fault-plan: {e}"))?;
    let clock_offset_us = shim.as_ref().map(|s| s.wall_offset_us()).unwrap_or(0);
    // `--fast` also stretches §4.1 give-up (6 backed-off attempts span
    // 0.25·(2⁶−1) ≈ 15.75 s) so a ~10 s partition window never falsely
    // expunges anyone and the halves re-converge on their own — the
    // `pw chaos stub-partition-heal` lesson, applied to real sockets.
    let (probe, rpc, window, attempts) = if fast {
        (500_000, 250_000, 2_000_000, 6)
    } else {
        (3_000_000, 1_000_000, 10_000_000, 3)
    };
    Ok(Opts {
        cfg: RuntimeConfig {
            protocol: ProtocolConfig {
                processing_delay_us: 0,
                probe_interval_us: probe,
                rpc_timeout_us: rpc,
                bandwidth_window_us: window,
                max_attempts: attempts,
                ..ProtocolConfig::default()
            },
            id,
            listen,
            bootstrap,
            threshold_bps: budget,
            info,
            seed,
            shim,
            clock_offset_us,
        },
        ctl_port,
    })
}

/// One `snap` reply: the node's state as a single JSON datagram, parsed
/// on the other end by `peerwindow_trace::json` (numbers are u64, so
/// ids travel as hex strings).
fn snapshot_json(s: &Snapshot, handle: &NodeHandle) -> String {
    let mut out = String::from("{\"id\":");
    write_str(&mut out, &s.id.to_string());
    out.push_str(&format!(
        ",\"level\":{},\"active\":{}",
        s.level.value(),
        u8::from(s.is_active)
    ));
    out.push_str(",\"peers\":[");
    for (i, p) in s.peers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&mut out, &p.id.to_string());
    }
    out.push_str("],\"runtime\":{");
    for (i, (name, v)) in handle.runtime_stats().rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&mut out, name);
        out.push_str(&format!(":{v}"));
    }
    out.push_str(&format!(
        "}},\"failures\":{},\"rpc_retries\":{}}}",
        s.stats.failures_detected, s.stats.rpc_retries
    ));
    out
}

/// Serves one `query …` control command straight from the lock-free
/// snapshot reader — no round trip through the node thread's control
/// channel, so queries answer at full rate even while the node is busy
/// with protocol work (and keep answering the last published state
/// during its shutdown drain).
///
/// * `query epoch` — `{"epoch":N,"at_us":N,"pointers":N}`
/// * `query count` — `{"pointers":N}`
/// * `query strongest K` — up to K pointers, strongest level first
fn query_json(reader: &SnapshotReader, args: &[&str]) -> String {
    let snap = reader.load();
    match args {
        ["epoch"] => format!(
            "{{\"epoch\":{},\"at_us\":{},\"pointers\":{}}}",
            snap.epoch,
            snap.at_us,
            snap.len()
        ),
        ["count"] => format!("{{\"pointers\":{}}}", snap.len()),
        ["strongest", k] => match k.parse::<usize>() {
            Ok(k) => {
                let mut out = format!("{{\"epoch\":{},\"strongest\":[", snap.epoch);
                for (i, p) in snap.strongest(k).iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"id\":");
                    write_str(&mut out, &p.id.to_string());
                    out.push_str(&format!(",\"level\":{}}}", p.level.value()));
                }
                out.push_str("]}");
                out
            }
            Err(_) => String::from("err strongest needs a count"),
        },
        _ => String::from("err unknown query (epoch | count | strongest K)"),
    }
}

fn print_summary(s: &Snapshot) {
    println!(
        "level {} | {} peers | active: {} | rx {} kbit, tx {} kbit",
        s.level,
        s.peers.len(),
        s.is_active,
        s.stats.rx_bits / 1000,
        s.stats.tx_bits / 1000,
    );
    for p in s.peers.iter().take(6) {
        println!(
            "  {}  {}  {:?}",
            &p.id.to_string()[..12],
            p.level,
            String::from_utf8_lossy(&p.info)
        );
    }
}

fn dump_diags_and_exit(handle: NodeHandle) -> ! {
    eprintln!("node stopped");
    // Terminal diagnostics (fatal / socket error) survive the node
    // thread; dump them as JSONL for the operator.
    eprint!(
        "{}",
        peerwindow_trace::jsonl::to_string(&handle.take_diagnostics())
    );
    std::process::exit(1);
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let role = if opts.cfg.bootstrap.is_some() {
        "joining"
    } else {
        "seed"
    };
    println!("pwnode {} ({role})", opts.cfg.id);
    let ctl = opts.ctl_port.map(|port| {
        let sock =
            UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port)).unwrap_or_else(|e| {
                eprintln!("cannot bind --ctl port {port}: {e}");
                std::process::exit(2);
            });
        sock.set_read_timeout(Some(Duration::from_millis(250)))
            .expect("read timeout");
        sock
    });
    let handle = match spawn_node(opts.cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start: {e:?}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.local_addr);

    let mut last_print = Instant::now();
    let mut buf = [0u8; 512];
    loop {
        match &ctl {
            Some(sock) => {
                // Err is the read timeout: fall through to the
                // periodic print below.
                if let Ok((n, peer)) = sock.recv_from(&mut buf) {
                    match &buf[..n] {
                        b"snap" => {
                            let Some(s) = handle.snapshot(Duration::from_secs(1)) else {
                                dump_diags_and_exit(handle);
                            };
                            let _ = sock.send_to(snapshot_json(&s, &handle).as_bytes(), peer);
                        }
                        b"stop" => {
                            let _ = sock.send_to(b"bye", peer);
                            handle.shutdown();
                            std::process::exit(0);
                        }
                        cmd if cmd.starts_with(b"query") => {
                            let text = String::from_utf8_lossy(cmd);
                            let args: Vec<&str> = text.split_whitespace().skip(1).collect();
                            let reply = query_json(&handle.snapshot_reader(), &args);
                            let _ = sock.send_to(reply.as_bytes(), peer);
                        }
                        _ => {
                            let _ = sock.send_to(b"err unknown command", peer);
                        }
                    }
                }
            }
            None => std::thread::sleep(Duration::from_secs(3)),
        }
        if last_print.elapsed() >= Duration::from_secs(3) {
            last_print = Instant::now();
            let Some(s) = handle.snapshot(Duration::from_secs(1)) else {
                dump_diags_and_exit(handle);
            };
            print_summary(&s);
        }
    }
}
