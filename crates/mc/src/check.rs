//! The explicit-state checker: breadth-first search over membership-op
//! interleavings with canonical-state deduplication.
//!
//! Soundness shape: dedup prunes *re-expansion* only. Every transition
//! that is executed at all runs real machines with per-event local
//! invariant checks; `Always` properties are evaluated on every state
//! *before* the dedup decision; `Eventually`/`LeadsTo` goals are
//! evaluated on the state's fair extension. Collision freedom of the
//! canonical hash is asserted, not assumed: the visited map keeps the
//! full canonical word sequence and compares it on every hash hit.

use crate::canon::canonical_state;
use crate::net::{McNet, NetErr, SweepOp};
use crate::props::Property;
use peerwindow_core::config::ProtocolConfig;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A model-checking run configuration.
#[derive(Clone)]
pub struct McConfig {
    /// The id table; slot 0 is the pre-seeded node.
    pub ids: Vec<u128>,
    /// Maximum operations per trace (search depth).
    pub max_ops: usize,
    /// Settle time after each operation, microseconds.
    pub settle_us: u64,
    /// Levels [`SweepOp::Shift`] may target.
    pub levels: Vec<u8>,
    /// Whether silent crashes are part of the op alphabet.
    pub allow_crash: bool,
    /// Protocol configuration for every machine.
    pub protocol: ProtocolConfig,
    /// Optional fault plan injected into every branch's network.
    pub plan: Option<peerwindow_faults::FaultPlan>,
    /// Canonical-state deduplication (off = the PR 2 brute-force mode,
    /// kept so reduction can be measured against the same engine).
    pub dedup: bool,
    /// Leading id bits every relabeling must preserve (see
    /// `peerwindow_core::invariants::prefix_class`).
    pub class_bits: u8,
    /// Expansion budget: stop expanding after this many transitions
    /// (0 = unbounded). The deterministic replacement for wall-clock
    /// comparisons between dedup and brute-force modes.
    pub max_transitions: u64,
    /// Fair-extension allowance: the goal of an `Eventually`/`LeadsTo`
    /// is evaluated after running quietly to the fault horizon plus
    /// this many settle periods.
    pub fair_settles: u64,
    /// Re-arm the DESIGN.md gap-13 bug (regression tests only).
    pub reintroduce_gap13: bool,
}

impl McConfig {
    /// A small reliable-net configuration over `ids`.
    pub fn new(ids: &[u128]) -> Self {
        McConfig {
            ids: ids.to_vec(),
            max_ops: 3,
            settle_us: 12_000_000,
            levels: vec![0],
            allow_crash: true,
            protocol: mc_protocol_config(),
            plan: None,
            dedup: true,
            class_bits: 1,
            max_transitions: 0,
            fair_settles: 4,
            reintroduce_gap13: false,
        }
    }
}

/// Protocol timings compressed so a settle period covers several probe
/// cycles (the old `sweep_protocol_config`, promoted out of the retired
/// brute-force sweep).
pub fn mc_protocol_config() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 1_000_000,
        rpc_timeout_us: 300_000,
        processing_delay_us: 1_000,
        bandwidth_window_us: 5_000_000,
        ..ProtocolConfig::default()
    }
}

/// Counters from a completed (or budget-stopped) run.
#[derive(Clone, Debug, Default)]
pub struct McStats {
    /// States reached (pre-dedup): root + every executed transition.
    pub raw_states: u64,
    /// Distinct canonical states in the visited set.
    pub canonical_states: u64,
    /// Transitions executed (op applications, each fully settled).
    pub transitions: u64,
    /// Machine events handled and local-invariant-checked across all
    /// branches (including fair extensions).
    pub events_checked: u64,
    /// Reached states that were pruned as already-visited.
    pub pruned: u64,
    /// Whether the search exhausted the op space within the budget.
    pub completed: bool,
}

impl McStats {
    /// Raw states per canonical state: > 1 means dedup (symmetry +
    /// reconvergence) is collapsing the graph.
    pub fn reduction_factor(&self) -> f64 {
        if self.canonical_states == 0 {
            return 1.0;
        }
        self.raw_states as f64 / self.canonical_states as f64
    }
}

impl fmt::Display for McStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "raw states {}, canonical {}, reduction {:.2}x, transitions {}, \
             pruned {}, events checked {}, completed {}",
            self.raw_states,
            self.canonical_states,
            self.reduction_factor(),
            self.transitions,
            self.pruned,
            self.events_checked,
            self.completed
        )
    }
}

/// Why a run failed.
#[derive(Clone, Debug)]
pub enum FailReason {
    /// A protocol invariant (local or fatal-on-reliable-net) broke
    /// while driving the network.
    Invariant(String),
    /// A temporal property was refuted.
    Property {
        /// The refuted property's name.
        name: &'static str,
        /// Human-readable account of the refutation.
        detail: String,
    },
    /// Two distinct canonical word sequences hashed identically. The
    /// visited set refuses to continue rather than silently merging
    /// distinct states.
    HashCollision,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            FailReason::Property { name, detail } => {
                write!(f, "property '{name}' refuted: {detail}")
            }
            FailReason::HashCollision => write!(f, "canonical hash collision"),
        }
    }
}

/// A failing run: the op trace that reproduces it plus the reason.
/// Feed through [`crate::shrink::shrink`] before reporting.
#[derive(Clone, Debug)]
pub struct McFailure {
    /// Operations from the initial settled seed state, in order.
    pub trace: Vec<SweepOp>,
    /// What failed.
    pub reason: FailReason,
}

impl fmt::Display for McFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after trace {:?}", self.reason, self.trace)
    }
}

fn net_err_reason(e: NetErr) -> FailReason {
    match e {
        NetErr::Violation(v) => FailReason::Invariant(v.to_string()),
        NetErr::Fatal(id, reason) => FailReason::Invariant(format!(
            "node {id:?} died fatally on a reliable net: {reason}"
        )),
    }
}

/// Runs the net quietly (no further ops) past the fault horizon plus
/// the fairness allowance, so liveness goals are judged on a healed,
/// settled network.
pub fn fair_extend(net: &McNet, cfg: &McConfig) -> Result<McNet, NetErr> {
    let mut ext = net.clone();
    let horizon = ext.fault_horizon_us().max(ext.now());
    ext.run_until(horizon + cfg.fair_settles * cfg.settle_us)?;
    Ok(ext)
}

/// Evaluates all properties at one visited state. Returns the fair
/// extension's event count so the caller can fold it into the stats.
fn eval_props(
    net: &McNet,
    cfg: &McConfig,
    props: &[Property],
    trace: &[SweepOp],
) -> Result<u64, McFailure> {
    let mut ext_events = 0u64;
    // The fair extension is shared by every liveness property at this
    // state; build it lazily, at most once.
    let mut extension: Option<McNet> = None;
    let mut extend = |ext_events: &mut u64| -> Result<McNet, McFailure> {
        if extension.is_none() {
            let ext = fair_extend(net, cfg).map_err(|e| McFailure {
                trace: trace.to_vec(),
                reason: net_err_reason(e),
            })?;
            *ext_events += ext.events_checked() - net.events_checked();
            extension = Some(ext);
        }
        Ok(extension.clone().expect("just built"))
    };

    for p in props {
        match *p {
            Property::Always { name, check } => {
                if let Err(detail) = check(net) {
                    return Err(McFailure {
                        trace: trace.to_vec(),
                        reason: FailReason::Property { name, detail },
                    });
                }
            }
            Property::Eventually { name, pred } => {
                let ext = extend(&mut ext_events)?;
                if let Err(detail) = pred(&ext) {
                    return Err(McFailure {
                        trace: trace.to_vec(),
                        reason: FailReason::Property { name, detail },
                    });
                }
            }
            Property::LeadsTo {
                name,
                premise,
                conclusion,
            } => {
                if premise(net) {
                    let ext = extend(&mut ext_events)?;
                    if let Err(detail) = conclusion(&ext) {
                        return Err(McFailure {
                            trace: trace.to_vec(),
                            reason: FailReason::Property { name, detail },
                        });
                    }
                }
            }
        }
    }
    Ok(ext_events)
}

struct Node {
    net: McNet,
    joined: Vec<bool>,
    trace: Vec<SweepOp>,
}

/// Explores the op space breadth-first and checks `props` at every
/// reached state. Returns counters on success, the first failing trace
/// otherwise.
pub fn check(cfg: &McConfig, props: &[Property]) -> Result<McStats, McFailure> {
    let mut stats = McStats::default();
    let mut visited: BTreeMap<u64, Vec<u64>> = BTreeMap::new();

    let fail = |trace: &[SweepOp], e: NetErr| McFailure {
        trace: trace.to_vec(),
        reason: net_err_reason(e),
    };

    // Root: the seed alone, fully settled.
    let mut root = McNet::new(
        &cfg.ids,
        &cfg.protocol,
        cfg.plan.as_ref(),
        cfg.reintroduce_gap13,
    );
    root.run_until(cfg.settle_us).map_err(|e| fail(&[], e))?;
    stats.events_checked += root.events_checked();
    stats.raw_states += 1;
    stats.events_checked += eval_props(&root, cfg, props, &[])?;

    let mut joined = vec![false; cfg.ids.len()];
    joined[0] = true;

    let mut frontier: VecDeque<Node> = VecDeque::new();
    if cfg.dedup {
        let c = canonical_state(&root, cfg.class_bits);
        visited.insert(c.hash, c.words);
    }
    frontier.push_back(Node {
        net: root,
        joined,
        trace: Vec::new(),
    });

    let mut budget_hit = false;
    'search: while let Some(node) = frontier.pop_front() {
        if node.trace.len() >= cfg.max_ops {
            continue;
        }
        for op in node
            .net
            .legal_ops(&node.joined, &cfg.levels, cfg.allow_crash)
        {
            if cfg.max_transitions > 0 && stats.transitions >= cfg.max_transitions {
                budget_hit = true;
                break 'search;
            }
            let mut child = node.net.clone();
            let before = child.events_checked();
            let mut trace = node.trace.clone();
            trace.push(op);
            child
                .apply_op(op, cfg.settle_us)
                .map_err(|e| fail(&trace, e))?;
            stats.transitions += 1;
            stats.raw_states += 1;
            stats.events_checked += child.events_checked() - before;
            stats.events_checked += eval_props(&child, cfg, props, &trace)?;

            if cfg.dedup {
                let c = canonical_state(&child, cfg.class_bits);
                match visited.get(&c.hash) {
                    Some(words) if *words == c.words => {
                        stats.pruned += 1;
                        continue;
                    }
                    Some(_) => {
                        return Err(McFailure {
                            trace,
                            reason: FailReason::HashCollision,
                        });
                    }
                    None => {
                        visited.insert(c.hash, c.words);
                    }
                }
            }

            let mut joined = node.joined.clone();
            if let SweepOp::Join(k) = op {
                joined[k] = true;
            }
            frontier.push_back(Node {
                net: child,
                joined,
                trace,
            });
        }
    }

    stats.canonical_states = if cfg.dedup {
        visited.len() as u64
    } else {
        stats.raw_states
    };
    stats.completed = !budget_hit;
    Ok(stats)
}

/// Replays `trace` linearly from the settled seed state, evaluating
/// `props` at every step — the oracle [`crate::shrink`](fn@crate::shrink) minimizes
/// against. Returns the first failure, or `None` if the trace passes.
pub fn replay(cfg: &McConfig, props: &[Property], trace: &[SweepOp]) -> Option<McFailure> {
    let fail = |t: &[SweepOp], e: NetErr| McFailure {
        trace: t.to_vec(),
        reason: net_err_reason(e),
    };
    let mut net = McNet::new(
        &cfg.ids,
        &cfg.protocol,
        cfg.plan.as_ref(),
        cfg.reintroduce_gap13,
    );
    if let Err(e) = net.run_until(cfg.settle_us) {
        return Some(fail(&[], e));
    }
    if let Err(f) = eval_props(&net, cfg, props, &[]) {
        return Some(f);
    }
    for (i, &op) in trace.iter().enumerate() {
        if let Err(e) = net.apply_op(op, cfg.settle_us) {
            return Some(fail(&trace[..=i], e));
        }
        if let Err(f) = eval_props(&net, cfg, props, &trace[..=i]) {
            return Some(f);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::always_system_invariants;

    const A: u128 = 0x2000_0000_0000_0000_0000_0000_0000_0000;
    const B: u128 = 0x6000_0000_0000_0000_0000_0000_0000_0000;
    const C: u128 = 0xa000_0000_0000_0000_0000_0000_0000_0000;

    #[test]
    fn three_ids_depth_two_holds_invariants() {
        let mut cfg = McConfig::new(&[A, B, C]);
        cfg.max_ops = 2;
        let stats = check(&cfg, &[always_system_invariants()]).expect("no violations expected");
        assert!(stats.completed);
        assert!(stats.raw_states > 1);
        assert!(stats.canonical_states <= stats.raw_states);
    }

    #[test]
    fn dedup_prunes_reconverging_branches() {
        let mut cfg = McConfig::new(&[A, B, C]);
        cfg.max_ops = 3;
        let stats = check(&cfg, &[]).expect("clean run");
        assert!(stats.completed);
        assert!(
            stats.pruned > 0,
            "join/leave/rejoin branches must reconverge onto visited states; {stats}"
        );
        assert!(stats.reduction_factor() > 1.0, "{stats}");
    }

    #[test]
    fn brute_force_mode_counts_every_state() {
        let mut cfg = McConfig::new(&[A, B]);
        cfg.max_ops = 2;
        cfg.dedup = false;
        let stats = check(&cfg, &[]).expect("clean run");
        assert_eq!(stats.canonical_states, stats.raw_states);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn transition_budget_stops_search() {
        let mut cfg = McConfig::new(&[A, B, C]);
        cfg.max_ops = 4;
        cfg.dedup = false;
        cfg.max_transitions = 5;
        let stats = check(&cfg, &[]).expect("clean run");
        assert!(!stats.completed);
        assert_eq!(stats.transitions, 5);
    }
}
