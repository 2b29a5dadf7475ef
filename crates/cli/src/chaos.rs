//! `pw chaos` — named, seeded fault-injection scenarios with convergence
//! assertions.
//!
//! Each scenario builds a deterministic parallel-engine world, installs a
//! [`FaultPlan`], runs it past the adverse window, and asserts the
//! protocol recovered: peer lists settle (no missing / stale / cross-part
//! entries) once the network heals. The final state fingerprint is
//! printed; because fault verdicts are judged at departure in the
//! sender's shard, the same scenario + seed prints the same fingerprint
//! at any `--shards` value.
//!
//! `--profile FILE` turns the engine's wall-clock metering on for the
//! run and writes its `RunReport` (barrier waits, handoff volume, window
//! shapes, per-shard rows) as JSONL for `pw stat`. Metering only
//! observes: the fingerprint is the same with and without it.
//!
//! Exit status: 0 when every assertion holds, 1 on an assertion failure
//! (the missing `(actor, id)` pairs, if any, go to `err`), 2 on a usage
//! error.
//!
//! Scenarios:
//!
//! * `burst-loss-storm`     — Gilbert–Elliott burst loss on every link
//!   for a mid-run window, plus jitter.
//! * `stub-partition-heal`  — half the domains isolated for a window,
//!   then healed; asserts the partition-aware settle audit.
//! * `crash-storm`          — a burst of crashes under uniform loss.
//! * `flappy-link`          — a link to the bootstrap node black-holes
//!   one-way, on and off, with duplication on every link.

use crate::{base_protocol, base_world, finish, write_file, Args, Error};
use peerwindow_core::prelude::*;
use peerwindow_des::SimTime;
use peerwindow_faults::{Condition, FaultCounters, FaultPlan, FaultRule, LinkSel, NodeSel};
use peerwindow_sim::ParallelFullSim;
use peerwindow_trace::jsonl;
use std::io::Write;

const SCENARIOS: &[&str] = &[
    "burst-loss-storm",
    "stub-partition-heal",
    "crash-storm",
    "flappy-link",
];

const USAGE: &str = "usage: pw chaos <scenario> [--shards N] [--nodes N] [--seed N] [--trace FILE] [--profile FILE] [--fingerprint-only]

scenarios: burst-loss-storm, stub-partition-heal, crash-storm, flappy-link

pw chaos list    — print the scenario names, one per line";

/// Missing `(actor, id)` pairs listed on a failed run, before the count
/// of the rest.
const MISSING_SHOWN: usize = 20;

struct Opts {
    scenario: String,
    shards: usize,
    nodes: u32,
    seed: u64,
    trace_out: Option<String>,
    profile_out: Option<String>,
    fingerprint_only: bool,
}

/// Runs `pw chaos` with `args`; returns the exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let result = if args.first().is_some_and(|a| a == "list") {
        SCENARIOS
            .iter()
            .try_for_each(|s| writeln!(out, "{s}"))
            .map(|()| 0)
            .map_err(Error::from)
    } else {
        parse(args).and_then(|opts| scenario(&opts, out, err))
    };
    finish(result, USAGE, err)
}

fn parse(args: &[String]) -> Result<Opts, Error> {
    let mut a = Args::new(args);
    let scenario = a.next().ok_or_else(|| Error::usage(""))?;
    let mut opts = Opts {
        scenario: scenario.to_string(),
        shards: 1,
        nodes: 48,
        seed: 7,
        trace_out: None,
        profile_out: None,
        fingerprint_only: false,
    };
    while let Some(flag) = a.next() {
        match flag {
            "--shards" => opts.shards = a.parse(flag)?,
            "--nodes" => opts.nodes = a.parse(flag)?,
            "--seed" => opts.seed = a.parse(flag)?,
            "--trace" => opts.trace_out = Some(a.value(flag)?.to_string()),
            "--profile" => opts.profile_out = Some(a.value(flag)?.to_string()),
            "--fingerprint-only" => opts.fingerprint_only = true,
            _ => return Err(Args::unknown(flag)),
        }
    }
    if opts.shards == 0 || opts.nodes < 8 {
        return Err(Error::usage("need --shards >= 1 and --nodes >= 8"));
    }
    if !SCENARIOS.contains(&opts.scenario.as_str()) {
        return Err(Error::usage(format!(
            "unknown scenario {:?}",
            opts.scenario
        )));
    }
    Ok(opts)
}

/// Per-scenario protocol tuning on top of the shared baseline.
///
/// `stub-partition-heal` is the §4.1-hardening showcase: with nine
/// backed-off probe attempts the retry schedule (0.4 s doubling, 30 s
/// cap) spans ≈ 80 s — longer than the 30 s outage — so no node is
/// falsely expunged and the halves re-converge on their own. At the
/// default three attempts the halves fully purge each other in ~3 s and
/// no multicast path can ever bridge them again (refresh audiences are
/// computed from the purged lists): total partitions are only
/// autonomically survivable when failure detection outlasts them.
fn protocol_for(scenario: &str) -> ProtocolConfig {
    let base = base_protocol();
    match scenario {
        "stub-partition-heal" => ProtocolConfig {
            max_attempts: 9,
            ..base
        },
        // Survivors must tell real crashes from loss-streaks: five
        // attempts put the per-round false-detection odds near zero at
        // 15% loss while a crashed peer is still declared within ~13 s.
        "crash-storm" => ProtocolConfig {
            max_attempts: 5,
            ..base
        },
        // An asymmetric blackhole erases the victim from every list, and
        // multicast forwarding never routes to a node nobody lists — the
        // §4.5 reconcile anti-entropy (periodic Download + re-announce)
        // is the designed repair channel, so the scenario exercises it.
        "flappy-link" => ProtocolConfig {
            reconcile_interval_us: 60_000_000,
            ..base
        },
        _ => base,
    }
}

/// The adverse window every scenario uses: faults bite after the join
/// wave and heal at 60s. The run then measures the recovered state at
/// 700s — past the 10-minute default §4.6 self-refresh period, the last
/// repair channel for peers falsely expunged during the storm (probe
/// failure → obituary; the refresh re-admits them everywhere).
const STORM_FROM_US: u64 = 30_000_000;
const STORM_UNTIL_US: u64 = 60_000_000;
const RUN_UNTIL_S: u64 = 700;

fn plan_for(scenario: &str, seed: u64) -> FaultPlan {
    // Fault streams get their own seed lane so scenario seed 7 and
    // engine seed 7 don't share draws.
    let fseed = seed ^ 0xC_4A05;
    match scenario {
        "burst-loss-storm" => FaultPlan::reliable(fseed)
            .with_rule(FaultRule {
                from_us: STORM_FROM_US,
                until_us: STORM_UNTIL_US,
                links: LinkSel::all(),
                condition: Condition::GilbertElliott {
                    p_enter_bad: 0.02,
                    p_exit_bad: 0.10,
                    loss_good: 0.01,
                    loss_bad: 0.60,
                },
            })
            .with_rule(FaultRule {
                from_us: STORM_FROM_US,
                until_us: STORM_UNTIL_US,
                links: LinkSel::all(),
                condition: Condition::Jitter {
                    max_extra_us: 40_000,
                },
            }),
        "stub-partition-heal" => {
            // Odd domains cut off from even ones for the storm window.
            FaultPlan::reliable(fseed).with_partition(STORM_FROM_US, STORM_UNTIL_US, 4, &[1, 3])
        }
        "crash-storm" => FaultPlan::reliable(fseed).with_rule(FaultRule {
            from_us: STORM_FROM_US,
            until_us: STORM_UNTIL_US,
            links: LinkSel::all(),
            condition: Condition::Loss { p: 0.15 },
        }),
        "flappy-link" => {
            // The bootstrap node's *inbound* link black-holes one-way in
            // three 5-second flaps (asymmetric failure: it can send but
            // hears nothing), while every link duplicates 10% of
            // datagrams (stresses idempotent RPC handling).
            let mut plan = FaultPlan::reliable(fseed).with_rule(FaultRule {
                from_us: 0,
                until_us: u64::MAX,
                links: LinkSel::all(),
                condition: Condition::Duplicate {
                    p: 0.10,
                    gap_us: 5_000,
                },
            });
            for flap in 0..3u64 {
                let from = STORM_FROM_US + flap * 10_000_000;
                plan = plan.with_rule(FaultRule {
                    from_us: from,
                    until_us: from + 5_000_000,
                    links: LinkSel::one_way(NodeSel::All, NodeSel::One(0)),
                    condition: Condition::Blackhole,
                });
            }
            plan
        }
        _ => unreachable!("scenario validated in parse"),
    }
}

fn scenario(opts: &Opts, out: &mut dyn Write, err: &mut dyn Write) -> Result<u8, Error> {
    let (scenario, shards, nodes, seed) = (&opts.scenario, opts.shards, opts.nodes, opts.seed);
    let mut sim = base_world(shards, nodes, protocol_for(scenario), seed);
    if opts.trace_out.is_some() {
        sim.enable_tracing(true);
    }
    if opts.profile_out.is_some() {
        sim.enable_runtime_metrics(true);
    }
    sim.set_fault_plan(&plan_for(scenario, seed));
    if scenario == "crash-storm" {
        // Five crashes spread over the loss window; survivors must purge
        // the dead entries despite losing a quarter of their probes.
        for (i, actor) in [5u32, 9, 17, 23, 31].iter().enumerate() {
            let at = SimTime::from_micros(STORM_FROM_US + 2_000_000 * (i as u64 + 1));
            sim.crash(at, *actor);
        }
    }
    sim.run_until(SimTime::from_secs(RUN_UNTIL_S));

    let fp = sim.fingerprint();
    let FaultCounters {
        judged,
        dropped,
        duplicated,
        jittered,
    } = sim.fault_counters();
    let (correct, missing, stale) = sim.accuracy();
    let audit = sim.part_audit();
    let verbose = !opts.fingerprint_only;
    if verbose {
        writeln!(
            out,
            "{scenario}: {nodes} nodes, {shards} shards, seed {seed} → fingerprint {fp:016x}\n\
             faults: judged {judged} dropped {dropped} duplicated {duplicated} jittered {jittered}\n\
             accuracy: correct {correct} missing {missing} stale {stale}\n\
             parts audit: parts {} required {} missing {} cross_part {} stale {}",
            audit.parts, audit.required, audit.missing, audit.cross_part, audit.stale
        )?;
    } else {
        writeln!(out, "{fp:016x}")?;
    }
    if let Some(path) = &opts.trace_out {
        let log = sim.take_trace();
        write_file(path, jsonl::to_string(&log))?;
        if verbose {
            writeln!(out, "{path}: {} records", log.len())?;
        }
    }
    if let Some(path) = &opts.profile_out {
        let report = sim.runtime_metrics_report(&format!("{scenario}_{shards}"));
        write_file(path, report.to_jsonl())?;
        if verbose {
            let ms = report.total_time_ns() as f64 / 1e6;
            writeln!(out, "{path}: {ms:.1} ms of engine wall-clock attributed")?;
        }
    }

    // Convergence assertions: one §4.6 refresh period after the last
    // fault clears, the window protocol must have fully settled.
    let mut failed = Vec::new();
    let mut check = |name: &'static str, ok: bool| {
        if !ok {
            failed.push(name);
        }
    };
    check("fault layer judged datagrams", judged > 0);
    match scenario.as_str() {
        "burst-loss-storm" => {
            check("storm dropped datagrams", dropped > 0);
            check("jitter was applied", jittered > 0);
        }
        "stub-partition-heal" => check("partition dropped datagrams", dropped > 0),
        "crash-storm" => check("loss dropped datagrams", dropped > 0),
        "flappy-link" => {
            check("flaps dropped datagrams", dropped > 0);
            check("duplicates were injected", duplicated > 0);
        }
        _ => unreachable!("scenario validated in parse"),
    }
    let crashed = if scenario == "crash-storm" { 5 } else { 0 };
    check(
        "every started node is live",
        sim.live_count() == nodes as usize - crashed,
    );
    check("no peer-list entries missing", missing == 0);
    check("no stale peer-list entries", stale == 0);
    check("partition-aware settle audit", audit.is_settled());
    if failed.is_empty() {
        if verbose {
            writeln!(out, "{scenario}: settled ✔")?;
        }
        return Ok(0);
    }
    for name in &failed {
        writeln!(err, "FAIL: {name}")?;
    }
    let pairs = missing_pairs(&sim);
    for (actor, id) in pairs.iter().take(MISSING_SHOWN) {
        writeln!(err, "  actor {actor} missing {id}")?;
    }
    if pairs.len() > MISSING_SHOWN {
        writeln!(err, "  … and {} more", pairs.len() - MISSING_SHOWN)?;
    }
    writeln!(err, "{scenario}: NOT SETTLED")?;
    Ok(1)
}

/// Every `(actor, id)` an active machine should list — a live node
/// inside its eigenstring — but does not.
fn missing_pairs(sim: &ParallelFullSim) -> Vec<(u32, NodeId)> {
    let truth = sim.ground_truth();
    let mut pairs = Vec::new();
    for (actor, m) in sim.machines().filter(|(_, m)| m.is_active()) {
        let scope = m.eigenstring();
        for t in &truth {
            if t.id != m.id() && scope.contains(t.id) && !m.peers().contains(t.id) {
                pairs.push((actor, t.id));
            }
        }
    }
    pairs
}
