//! `pwchaos` — named, seeded fault-injection scenarios with convergence
//! assertions.
//!
//! Each scenario builds a deterministic parallel-engine world, installs a
//! [`FaultPlan`], runs it past the adverse window, and asserts the
//! protocol recovered: peer lists settle (no missing / stale / cross-part
//! entries) once the network heals. The final state fingerprint is
//! printed; because fault verdicts are judged at send time in the
//! sender's shard, the same scenario + seed prints the same fingerprint
//! at any `--shards` value — CI diffs a 1-shard against a 4-shard run.
//!
//! `--profile FILE` turns the engine's wall-clock metering on for the
//! run and writes its `RunReport` (barrier waits, handoff volume, window
//! shapes, per-shard rows) as JSONL for `pwstat`. Metering only
//! observes: the fingerprint is the same with and without it.
//!
//! Exit status: 0 when every assertion holds, 1 on an assertion failure,
//! 2 on a usage error.
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

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::SimTime;
use peerwindow_faults::{Condition, FaultPlan, FaultRule, LinkSel, NodeSel};
use peerwindow_sim::ParallelFullSim;
use peerwindow_trace::jsonl;
use std::process::exit;

const SCENARIOS: &[&str] = &[
    "burst-loss-storm",
    "stub-partition-heal",
    "crash-storm",
    "flappy-link",
];

fn usage() -> ! {
    eprintln!(
        "usage: pwchaos <scenario> [--shards N] [--nodes N] [--seed N] [--trace FILE] [--profile FILE] [--fingerprint-only]\n\
         \n\
         scenarios: {}\n\
         \n\
         pwchaos list    — print the scenario names, one per line",
        SCENARIOS.join(", ")
    );
    exit(2)
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    let Some(v) = v else {
        eprintln!("{flag} needs a value");
        usage()
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {v:?}");
        exit(2)
    })
}

struct Opts {
    scenario: String,
    shards: usize,
    nodes: u32,
    seed: u64,
    trace_out: Option<String>,
    profile_out: Option<String>,
    fingerprint_only: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else { usage() };
    if first == "list" {
        for s in SCENARIOS {
            println!("{s}");
        }
        return;
    }
    let mut opts = Opts {
        scenario: first.clone(),
        shards: 1,
        nodes: 48,
        seed: 7,
        trace_out: None,
        profile_out: None,
        fingerprint_only: false,
    };
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => opts.shards = parse_num("--shards", it.next()),
            "--nodes" => opts.nodes = parse_num("--nodes", it.next()),
            "--seed" => opts.seed = parse_num("--seed", it.next()),
            "--trace" => opts.trace_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--profile" => opts.profile_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--fingerprint-only" => opts.fingerprint_only = true,
            _ => usage(),
        }
    }
    if opts.shards == 0 || opts.nodes < 8 {
        eprintln!("need --shards >= 1 and --nodes >= 8");
        exit(2);
    }
    if !SCENARIOS.contains(&opts.scenario.as_str()) {
        eprintln!("unknown scenario {:?}", opts.scenario);
        usage()
    }
    run(&opts)
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
    let base = ProtocolConfig {
        probe_interval_us: 2_000_000,
        rpc_timeout_us: 400_000,
        processing_delay_us: 10_000,
        bandwidth_window_us: 8_000_000,
        ..ProtocolConfig::default()
    };
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

/// Builds the base world: one seed node, staggered joiners bootstrapping
/// off it (the same shape as the determinism tests, so results are
/// comparable across tools).
fn base_world(opts: &Opts) -> ParallelFullSim {
    let protocol = protocol_for(&opts.scenario);
    let mut sim = ParallelFullSim::new(
        opts.shards,
        opts.nodes as usize,
        protocol,
        20_000,
        1_000,
        opts.seed,
    );
    if opts.trace_out.is_some() {
        sim.enable_tracing(true);
    }
    if opts.profile_out.is_some() {
        sim.enable_runtime_metrics(true);
    }
    let seed_id = NodeId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
    sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
    let boot = Target {
        id: seed_id,
        addr: Addr(0),
        level: Level::TOP,
    };
    for k in 1..opts.nodes {
        let id = NodeId((k as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_0C4A_2B8E_D1A3) | 1);
        sim.start_node(
            SimTime::from_millis(400 * k as u64),
            k,
            id,
            1e9,
            Bytes::new(),
            Some(boot),
        );
    }
    sim
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
        _ => unreachable!("scenario validated in main"),
    }
}

fn run(opts: &Opts) {
    let mut sim = base_world(opts);
    sim.set_fault_plan(&plan_for(&opts.scenario, opts.seed));
    if opts.scenario == "crash-storm" {
        // Five crashes spread over the loss window; survivors must purge
        // the dead entries despite losing a quarter of their probes.
        for (i, actor) in [5u32, 9, 17, 23, 31].iter().enumerate() {
            sim.crash(
                SimTime::from_micros(STORM_FROM_US + 2_000_000 * (i as u64 + 1)),
                *actor,
            );
        }
    }
    sim.run_until(SimTime::from_secs(RUN_UNTIL_S));

    let fp = sim.fingerprint();
    if opts.fingerprint_only {
        println!("{fp:016x}");
    }
    let c = sim.fault_counters();
    let (correct, missing, stale) = sim.accuracy();
    let audit = sim.part_audit();
    if !opts.fingerprint_only {
        println!(
            "{}: {} nodes, {} shards, seed {} → fingerprint {fp:016x}",
            opts.scenario, opts.nodes, opts.shards, opts.seed
        );
        println!(
            "faults: judged {} dropped {} duplicated {} jittered {}",
            c.judged, c.dropped, c.duplicated, c.jittered
        );
        println!("accuracy: correct {correct} missing {missing} stale {stale}");
        println!(
            "parts audit: parts {} required {} missing {} cross_part {} stale {}",
            audit.parts, audit.required, audit.missing, audit.cross_part, audit.stale
        );
    }
    if let Some(path) = &opts.trace_out {
        let log = sim.take_trace();
        std::fs::write(path, jsonl::to_string(&log)).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1)
        });
        if !opts.fingerprint_only {
            println!("{path}: {} records", log.len());
        }
    }
    if let Some(path) = &opts.profile_out {
        let report = sim.runtime_metrics_report(&format!("{}_{}", opts.scenario, opts.shards));
        std::fs::write(path, report.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1)
        });
        if !opts.fingerprint_only {
            println!(
                "{path}: {:.1} ms of engine wall-clock attributed",
                report.total_time_ns() as f64 / 1e6
            );
        }
    }

    if std::env::var_os("PWCHAOS_DEBUG").is_some() {
        let truth = sim.ground_truth();
        for (actor, m) in sim.machines() {
            if !m.is_active() {
                continue;
            }
            let scope = m.eigenstring();
            for t in &truth {
                if t.id != m.id() && scope.contains(t.id) && !m.peers().contains(t.id) {
                    eprintln!("debug: actor {actor} missing {}", t.id);
                }
            }
        }
    }

    // Convergence assertions: one §4.6 refresh period after the last
    // fault clears, the window protocol must have fully settled.
    let mut failed = false;
    let mut check = |name: &str, ok: bool| {
        if !ok {
            eprintln!("FAIL: {name}");
            failed = true;
        }
    };
    check("fault layer judged datagrams", c.judged > 0);
    match opts.scenario.as_str() {
        "burst-loss-storm" => {
            check("storm dropped datagrams", c.dropped > 0);
            check("jitter was applied", c.jittered > 0);
        }
        "stub-partition-heal" => check("partition dropped datagrams", c.dropped > 0),
        "crash-storm" => check("loss dropped datagrams", c.dropped > 0),
        "flappy-link" => {
            check("flaps dropped datagrams", c.dropped > 0);
            check("duplicates were injected", c.duplicated > 0);
        }
        _ => unreachable!(),
    }
    let expected_live = if opts.scenario == "crash-storm" {
        opts.nodes as usize - 5
    } else {
        opts.nodes as usize
    };
    check(
        "every started node is live",
        sim.live_count() == expected_live,
    );
    check("no peer-list entries missing", missing == 0);
    check("no stale peer-list entries", stale == 0);
    check("partition-aware settle audit", audit.is_settled());
    if failed {
        eprintln!("{}: NOT SETTLED", opts.scenario);
        exit(1);
    }
    if !opts.fingerprint_only {
        println!("{}: settled ✔", opts.scenario);
    }
}
