//! `pw check` — the explicit-state model checker, from the command line.
//!
//! Breadth-first exploration of membership-operation interleavings
//! (join / leave / crash / level-shift) over real protocol machines,
//! with canonical-state hashing (id-symmetry + reconvergence dedup),
//! per-event local invariant checks, temporal properties under fault
//! plans, and oracle-verified counterexample shrinking.
//!
//! Commands:
//!
//! * `run`    — explore the op space and check properties; prints the
//!   run counters, or the failing trace on refutation.
//! * `stats`  — run the same space twice, dedup on and off, with the
//!   brute-force pass pinned to the dedup pass's transition budget;
//!   prints both counter lines and the measured reduction factor.
//! * `shrink` — like `run`, but on refutation the failing trace is
//!   minimized (op deletion + id-table compaction, each step verified
//!   by replay) before reporting.
//!
//! The `--partition` scenario installs a one-way blackhole fault plan
//! between two joiners and checks the two ROADMAP liveness properties
//! (*partition-heal-reconverges*, *no-correct-node-permanently-
//! expunged*) on every reachable state's fair extension; `--gap13-bug`
//! re-arms the DESIGN.md gap-13 false-obituary bug so the catch (and
//! the shrunk repro) can be demonstrated end to end. `--departed` adds
//! *eventually-no-departed-pointer* — the §4.5 lazy-maintenance promise
//! a depth-4 run falsified before cross-level fallback probing (run it as
//! `--ids 3 --depth 4 --levels 0,1 --departed`).
//!
//! Exit status: 0 when every property holds, 1 on a refutation or
//! invariant violation, 2 on a usage error.

use crate::{finish, parse, Args, Error};
use peerwindow_faults::{Condition, FaultPlan, FaultRule, LinkSel, NodeSel};
use peerwindow_mc::{
    always_system_invariants, check, eventually_no_departed_pointer,
    no_correct_node_permanently_expunged, partition_heal_reconverges, shrink, McConfig, Property,
};
use std::io::Write;

/// First-bit-diverse id table: alternating top-bit classes so
/// `--class-bits 1` always has nontrivial symmetry classes to quotient.
const ID_TABLE: [u128; 8] = [
    0x2000_0000_0000_0000_0000_0000_0000_0000,
    0x6000_0000_0000_0000_0000_0000_0000_0000,
    0xa000_0000_0000_0000_0000_0000_0000_0000,
    0xe000_0000_0000_0000_0000_0000_0000_0000,
    0x3000_0000_0000_0000_0000_0000_0000_0000,
    0xb000_0000_0000_0000_0000_0000_0000_0000,
    0x7000_0000_0000_0000_0000_0000_0000_0000,
    0xf000_0000_0000_0000_0000_0000_0000_0000,
];

const USAGE: &str = "usage: pw check <run|stats|shrink> [options]

options:
  --ids N         nodes in the id table (2..=8, default 4)
  --depth N       max ops per trace (default 3)
  --levels L,L    levels Shift may target (default 0)
  --no-crash      drop silent crashes from the op alphabet
  --no-dedup      brute-force mode (run/shrink only)
  --budget N      stop after N transitions (0 = unbounded)
  --class-bits N  id prefix bits relabelings preserve (default 1)
  --settle-us N   settle time per op, microseconds
  --partition     blackhole fault plan + liveness properties
  --gap13-bug     re-arm the DESIGN.md gap-13 bug (implies --partition)
  --departed      add the eventually-no-departed-pointer liveness
                  property (the depth-4 off-level-crash scenario)";

/// Runs `pw check` with `args`; returns the exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let result =
        configure(args).and_then(|(command, cfg, props)| explore(command, cfg, &props, out));
    finish(result, USAGE, err)
}

/// The command, the checker configuration and the properties to check.
fn configure(args: &[String]) -> Result<(&str, McConfig, Vec<Property>), Error> {
    let mut a = Args::new(args);
    let command = a.next().ok_or_else(|| Error::usage(""))?;
    if !["run", "stats", "shrink"].contains(&command) {
        return Err(Error::usage(format!("unknown command {command:?}")));
    }
    // `McConfig::new`'s defaults are the documented ones.
    let mut cfg = McConfig::new(&ID_TABLE[..4]);
    let (mut ids, mut partition, mut departed) = (4, false, false);
    while let Some(flag) = a.next() {
        match flag {
            "--ids" => ids = a.parse(flag)?,
            "--depth" => cfg.max_ops = a.parse(flag)?,
            "--levels" => {
                let v = a.value(flag)?.split(',');
                cfg.levels = v.map(|s| parse(flag, s.trim())).collect::<Result<_, _>>()?;
            }
            "--no-crash" => cfg.allow_crash = false,
            "--no-dedup" => cfg.dedup = false,
            "--budget" => cfg.max_transitions = a.parse(flag)?,
            "--class-bits" => cfg.class_bits = a.parse(flag)?,
            "--settle-us" => cfg.settle_us = a.parse(flag)?,
            "--partition" => partition = true,
            // The gap-13 bug only manifests under the blackhole scenario;
            // the flag without the fault plan would silently report "ok".
            "--gap13-bug" => (cfg.reintroduce_gap13, partition) = (true, true),
            "--departed" => departed = true,
            _ => return Err(Args::unknown(flag)),
        }
    }
    if ids < 2 || ids > ID_TABLE.len() || cfg.max_ops == 0 || cfg.levels.is_empty() {
        return Err(Error::usage(format!(
            "need 2 <= --ids <= {} and --depth >= 1",
            ID_TABLE.len()
        )));
    }
    cfg.ids = ID_TABLE[..ids].to_vec();
    let mut props = vec![always_system_invariants()];
    if partition {
        // The validated gap-13 scenario (see tests/invariant_sweep.rs
        // for the timing derivation): a 2s one-way blackhole between
        // the first two joiners swallows exactly one probe cycle's
        // acks, forcing a false obituary whose courtesy copy lands
        // after the heal — refutable iff the gap-13 fix is present.
        cfg.allow_crash = false;
        cfg.protocol.bandwidth_window_us = 30_000_000;
        cfg.plan = Some(FaultPlan::reliable(11).with_rule(FaultRule {
            from_us: 26_000_000,
            until_us: 28_000_000,
            links: LinkSel::one_way(NodeSel::One(2), NodeSel::One(1)),
            condition: Condition::Blackhole,
        }));
        props = vec![
            partition_heal_reconverges(),
            no_correct_node_permanently_expunged(),
        ];
    }
    if departed {
        // The depth-4 off-level-crash scenario; fair extensions detect
        // lonely-peer crashes within the settle allowance on the tuned
        // checker protocol `McConfig::new` installs.
        props.push(eventually_no_departed_pointer());
    }
    Ok((command, cfg, props))
}

fn explore(
    command: &str,
    cfg: McConfig,
    props: &[Property],
    out: &mut dyn Write,
) -> Result<u8, Error> {
    if command != "stats" {
        return Ok(match check(&cfg, props) {
            Ok(stats) => {
                writeln!(out, "ok: {stats}")?;
                writeln!(out, "reduction factor: {:.2}x", stats.reduction_factor())?;
                0
            }
            Err(failure) => {
                writeln!(out, "FAILED: {failure}")?;
                if command == "shrink" {
                    writeln!(out, "{}", shrink(&cfg, props, &failure))?;
                }
                1
            }
        });
    }
    let mut dedup_cfg = cfg.clone();
    dedup_cfg.dedup = true;
    let with = match check(&dedup_cfg, props) {
        Ok(s) => s,
        Err(failure) => {
            writeln!(out, "FAILED (dedup pass): {failure}")?;
            return Ok(1);
        }
    };
    writeln!(out, "dedup:       {with}")?;

    let mut brute_cfg = cfg;
    brute_cfg.dedup = false;
    // Equal-budget comparison: pin brute force to exactly the
    // transition count the dedup pass needed (unless the user chose a
    // tighter budget).
    brute_cfg.max_transitions = match brute_cfg.max_transitions {
        0 => with.transitions,
        budget => budget.min(with.transitions),
    };
    match check(&brute_cfg, props) {
        Ok(brute) => {
            writeln!(out, "brute force: {brute}")?;
            writeln!(
                out,
                "reduction factor: {:.2}x; equal-budget brute force {}",
                with.reduction_factor(),
                if brute.completed {
                    "also finished"
                } else {
                    "did NOT finish"
                }
            )?;
            Ok(0)
        }
        Err(failure) => {
            writeln!(out, "FAILED (brute-force pass): {failure}")?;
            Ok(1)
        }
    }
}
