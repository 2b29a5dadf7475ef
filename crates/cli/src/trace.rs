//! `pw trace` — record and query PeerWindow structured trace logs.
//!
//! Subcommands:
//!
//! * `record`    — run a deterministic traced simulation, write JSONL
//! * `filter`    — select records by node / time range / kind / class
//! * `tree`      — reconstruct a multicast dissemination tree
//! * `chrome`    — convert a JSONL log to Chrome `trace_event` JSON
//! * `bandwidth` — per-message-class traffic table
//! * `diff`      — compare two logs (exit 1 when they differ)
//!
//! The `record` scenario is seeded and runs on the deterministic
//! parallel engine, so the same arguments always produce a byte-identical
//! log — including across `--shards` values.

use crate::{base_protocol, base_world, finish, write_file, Args, Error};
use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::SimTime;
use peerwindow_metrics::{bandwidth_table, fmt_f64, Table};
use peerwindow_trace::{chrome, jsonl, query, CauseId, TraceRecord};
use std::io::Write;

const USAGE: &str = "usage: pw trace <subcommand>

pw trace record [--out FILE] [--shards N] [--nodes N] [--until-s S] [--seed N] [--chrome FILE]
pw trace filter FILE [--node HEX] [--from-us N] [--to-us N] [--kind NAME] [--class NAME] [--cause HEX#SEQ]
pw trace tree FILE [--cause HEX#SEQ]
pw trace chrome FILE --out FILE
pw trace bandwidth FILE
pw trace diff FILE_A FILE_B";

/// Runs `pw trace` with `args`; returns the exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let mut a = Args::new(args);
    let result = match a.next() {
        Some("record") => record(a, out),
        Some("filter") => filter(a, out, err),
        Some("tree") => tree(a, out),
        Some("chrome") => to_chrome(a, out),
        Some("bandwidth") => bandwidth(a, out),
        Some("diff") => diff(a, out),
        _ => Err(Error::usage("")),
    };
    finish(result, USAGE, err)
}

/// The next positional `FILE` argument.
fn file<'a>(a: &mut Args<'a>) -> Result<&'a str, Error> {
    a.next().ok_or_else(|| Error::usage(""))
}

fn load(path: &str) -> Result<Vec<TraceRecord>, Error> {
    let fail = |e: String| Error::Fail(1, format!("{path}: {e}"));
    let doc = std::fs::read_to_string(path).map_err(|e| fail(e.to_string()))?;
    jsonl::parse_string(&doc).map_err(|e| fail(e.to_string()))
}

/// Fails on any argument left over.
fn done(mut a: Args<'_>) -> Result<(), Error> {
    a.next().map_or(Ok(()), |t| Err(Args::unknown(t)))
}

/// Parses `HEX#SEQ` (the `cause` wire form, e.g. `0123…4455#1`).
fn parse_cause(s: &str) -> Result<CauseId, Error> {
    let bad = || Error::usage(format!("--cause wants HEX#SEQ, got {s:?}"));
    let (hex, seq) = s.split_once('#').ok_or_else(bad)?;
    Ok(CauseId {
        subject: u128::from_str_radix(hex, 16).map_err(|_| bad())?,
        seq: seq.parse().map_err(|_| bad())?,
    })
}

/// The recording scenario: the shared staggered world, plus two crashes
/// and an info change mid-run once it has more than ten nodes.
fn record(mut a: Args<'_>, out: &mut dyn Write) -> Result<u8, Error> {
    let mut path = "trace.jsonl";
    let mut chrome_out = None;
    let mut shards = 1usize;
    let mut nodes = 48u32;
    let mut until_s = 80u64;
    let mut seed = 7u64;
    while let Some(flag) = a.next() {
        match flag {
            "--out" => path = a.value(flag)?,
            "--chrome" => chrome_out = Some(a.value(flag)?),
            "--shards" => shards = a.parse(flag)?,
            "--nodes" => nodes = a.parse(flag)?,
            "--until-s" => until_s = a.parse(flag)?,
            "--seed" => seed = a.parse(flag)?,
            _ => return Err(Args::unknown(flag)),
        }
    }
    if shards == 0 || nodes < 2 {
        return Err(Error::usage("need --shards >= 1 and --nodes >= 2"));
    }
    let mut sim = base_world(shards, nodes, base_protocol(), seed);
    sim.enable_tracing(true);
    if nodes > 10 {
        sim.crash(SimTime::from_secs(30), 5);
        sim.crash(SimTime::from_secs(31), 9);
        sim.command(
            SimTime::from_secs(35),
            3,
            Command::ChangeInfo(Bytes::from_static(b"v2")),
        );
    }
    sim.run_until(SimTime::from_secs(until_s));
    let log = sim.take_trace();
    write_file(path, jsonl::to_string(&log))?;
    let (records, fp) = (log.len(), sim.fingerprint());
    writeln!(
        out,
        "{path}: {records} records from {nodes} nodes over {until_s}s ({shards} shards, fingerprint {fp:016x})"
    )?;
    let (counters, gauges) = sim.sample_metrics();
    let mut t = Table::new(["counter", "value"]);
    for (name, v) in counters {
        t.row([name.to_string(), v.to_string()]);
    }
    write!(out, "{}", t.to_markdown())?;
    let mut t = Table::new(["gauge", "value"]);
    for (name, v) in gauges {
        t.row([name.to_string(), fmt_f64(v)]);
    }
    write!(out, "{}", t.to_markdown())?;
    let bw = query::bandwidth_by_class(&log);
    write!(out, "{}", bandwidth_table(&bw).to_markdown())?;
    if let Some(chrome_path) = chrome_out {
        write_file(chrome_path, chrome::export(&log))?;
        writeln!(
            out,
            "{chrome_path}: chrome trace written (open in chrome://tracing)"
        )?;
    }
    Ok(0)
}

fn filter(mut a: Args<'_>, out: &mut dyn Write, err: &mut dyn Write) -> Result<u8, Error> {
    let path = file(&mut a)?;
    let mut f = query::Filter::default();
    while let Some(flag) = a.next() {
        match flag {
            "--node" => {
                let v = a.value(flag)?;
                f.node = Some(
                    u128::from_str_radix(v, 16)
                        .map_err(|_| Error::usage(format!("--node wants a hex id, got {v:?}")))?,
                );
            }
            "--from-us" => f.from_us = Some(a.parse(flag)?),
            "--to-us" => f.to_us = Some(a.parse(flag)?),
            "--kind" => f.kind = Some(a.value(flag)?.to_string()),
            "--class" => f.class = Some(a.value(flag)?.to_string()),
            "--cause" => f.cause = Some(parse_cause(a.value(flag)?)?),
            _ => return Err(Args::unknown(flag)),
        }
    }
    let records = load(path)?;
    let kept = query::filter(&records, &f);
    write!(out, "{}", jsonl::to_string(&kept))?;
    writeln!(err, "{} of {} records", kept.len(), records.len())?;
    Ok(0)
}

fn tree(mut a: Args<'_>, out: &mut dyn Write) -> Result<u8, Error> {
    let path = file(&mut a)?;
    let mut cause = None;
    while let Some(flag) = a.next() {
        match flag {
            "--cause" => cause = Some(parse_cause(a.value(flag)?)?),
            _ => return Err(Args::unknown(flag)),
        }
    }
    let records = load(path)?;
    // Default to the busiest multicast in the log.
    let cause = match cause {
        Some(c) => c,
        None => match query::causes_by_hops(&records).first() {
            Some((c, _)) => *c,
            None => return Err(Error::Fail(1, format!("no multicast hops in {path}"))),
        },
    };
    let tree = query::reconstruct_tree(&records, cause);
    writeln!(
        out,
        "cause     {:032x}#{}",
        tree.cause.subject, tree.cause.seq
    )?;
    match tree.root {
        Some(r) => writeln!(out, "root      {r:032x}")?,
        None => writeln!(out, "root      (not in log)")?,
    }
    writeln!(out, "receivers {}", tree.receivers())?;
    writeln!(out, "depth     {}", tree.max_depth())?;
    writeln!(out, "root-deg  {}", tree.root_out_degree())?;
    writeln!(out, "redirects {}", tree.redirects)?;
    for h in &tree.hops {
        writeln!(
            out,
            "  {:>10}us  {:032x} -> {:032x}  step {}",
            h.at_us, h.parent, h.child, h.step
        )?;
    }
    Ok(0)
}

fn to_chrome(mut a: Args<'_>, out: &mut dyn Write) -> Result<u8, Error> {
    let path = file(&mut a)?;
    let mut chrome_path = None;
    while let Some(flag) = a.next() {
        match flag {
            "--out" => chrome_path = Some(a.value(flag)?),
            _ => return Err(Args::unknown(flag)),
        }
    }
    let chrome_path = chrome_path.ok_or_else(|| Error::usage("chrome needs --out FILE"))?;
    let records = load(path)?;
    write_file(chrome_path, chrome::export(&records))?;
    writeln!(
        out,
        "{chrome_path}: {} events (open in chrome://tracing)",
        records.len()
    )?;
    Ok(0)
}

fn bandwidth(mut a: Args<'_>, out: &mut dyn Write) -> Result<u8, Error> {
    let path = file(&mut a)?;
    done(a)?;
    let records = load(path)?;
    let bw = query::bandwidth_by_class(&records);
    write!(out, "{}", bandwidth_table(&bw).to_markdown())?;
    Ok(0)
}

fn diff(mut a: Args<'_>, out: &mut dyn Write) -> Result<u8, Error> {
    let (path_a, path_b) = (file(&mut a)?, file(&mut a)?);
    done(a)?;
    let (ra, rb) = (load(path_a)?, load(path_b)?);
    let diffs = query::diff(&ra, &rb);
    if diffs.is_empty() {
        writeln!(out, "identical: {} records", ra.len())?;
        return Ok(0);
    }
    for line in diffs.iter().take(20) {
        writeln!(out, "{line}")?;
    }
    if diffs.len() > 20 {
        writeln!(out, "... and {} more", diffs.len() - 20)?;
    }
    Ok(1)
}
