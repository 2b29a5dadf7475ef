//! What `fullsim_churn` and `parallel_churn` share: the churn script and
//! the timed loop over identical units.
//!
//! A unit builds a fresh world from the seed (timed: one `setup_s`
//! sample), then runs a fixed number of simulated seconds of churn
//! (timed: one throughput sample). Every unit of a run does exactly the
//! same work, so its digest must repeat exactly, its rates differ only
//! by what the host did, and the simulated quantities do not depend on
//! how many units the wall-clock budget allowed.

use super::{
    alternate_tracing, keep_going, list_error_rate, max_list_error, Outcome, Rates, RunArgs,
};
use crate::span::Tracer;
use crate::stats;
use peerwindow_des::DetRng;
use std::time::Instant;

/// Input sizes of a churn workload.
pub struct ChurnScale {
    /// Settled population.
    pub nodes: usize,
    /// Simulated seconds between the last join and the end of set-up.
    pub settle_s: u64,
    /// Simulated seconds of churn per unit.
    pub churn_s: u64,
}

/// Simulated seconds between two accuracy samples (and per wall-clock
/// reading: the samples are taken with the clock stopped).
const SLICE_S: u64 = 4;

/// Units every run completes, so `setup_s` is a median of at least three.
const MIN_UNITS: usize = 3;

/// A simulated world under the churn script.
pub trait ChurnWorld {
    /// Scripts and runs one simulated second of churn.
    fn churn_second(&mut self);
    /// Engine events processed so far.
    fn processed(&self) -> u64;
    /// Digest of the whole simulated state.
    fn fingerprint(&self) -> u64;
    /// `(required, missing, stale)` pointers over all active lists.
    fn accuracy(&self) -> (usize, usize, usize);
}

/// What the unit loop measured.
pub struct ChurnRun<W> {
    /// Per-unit churn throughput, engine events per second.
    pub rates: Rates,
    /// Events, fingerprint and accuracy every unit ended with.
    pub digest: (u64, u64, (usize, usize, usize)),
    /// Engine events of one unit's churn.
    pub unit_events: u64,
    /// Wall seconds of each unit's churn.
    pub unit_wall_s: Vec<f64>,
    /// The last unit's world, for the traced run's probes.
    pub world: W,
}

/// Runs units until the budget is spent and records the checks every
/// churn workload shares. `second_span` names the span around each
/// simulated second.
pub fn run_units<W: ChurnWorld>(
    args: &RunArgs,
    tr: &mut Tracer,
    scale: &ChurnScale,
    second_span: &'static str,
    build: impl Fn() -> W,
    out: &mut Outcome,
) -> ChurnRun<W> {
    let mut rates = Rates::default();
    let mut setup_secs = Vec::new();
    let mut unit_wall_s = Vec::new();
    let mut digests = Vec::new();
    let mut sampled = (0, 0, 0);
    let mut unit_events = 0;
    let mut world = None;
    let started = Instant::now();
    while keep_going(started, args.seconds, rates.len(), MIN_UNITS) {
        let traced = alternate_tracing(tr, args.trace, rates.len());
        drop(world.take()); // one world at a time in memory
        let span = tr.begin("bench.setup");
        let t = Instant::now();
        let mut w = build();
        setup_secs.push(t.elapsed().as_secs_f64());
        tr.end(span);

        let settled = w.processed();
        let mut wall = 0.0;
        let mut acc = (0, 0, 0);
        for slice in 0..scale.churn_s.div_ceil(SLICE_S) {
            let t = Instant::now();
            for _ in slice * SLICE_S..((slice + 1) * SLICE_S).min(scale.churn_s) {
                let s = tr.begin(second_span);
                w.churn_second();
                tr.end(s);
            }
            wall += t.elapsed().as_secs_f64();
            // Clock stopped: accuracy() is a check, not the workload. It
            // runs in every unit all the same, because it walks every
            // list and so leaves the caches as cold for the next slice.
            let a = w.accuracy();
            acc = (acc.0 + a.0, acc.1 + a.1, acc.2 + a.2);
        }
        unit_events = w.processed() - settled;
        rates.push(traced, unit_events as f64 / wall);
        unit_wall_s.push(wall);
        digests.push((w.processed(), w.fingerprint(), w.accuracy()));
        sampled = acc;
        world = Some(w);
    }
    tr.set_on(args.trace);

    let digest = digests[0];
    let events = unit_events * digests.len() as u64;
    out.attempted = events;
    out.check(
        "units_repeat_exactly",
        digests.iter().all(|d| *d == digest),
        events,
        format!("{} units, first {digest:?}", digests.len()),
    );
    // Figure 7's quantity, averaged over the unit's slice ends.
    let err = list_error_rate(sampled);
    let limit = max_list_error(scale.nodes);
    out.check(
        "list_error_rate_bounded",
        err <= limit,
        events,
        format!("{err:.5} <= {limit:.5}"),
    );
    out.set("throughput_per_s", rates.throughput());
    out.samples.push(("throughput_per_s", "1/s", rates.all()));
    out.set("setup_s", stats::median(&setup_secs));
    out.samples.push(("setup_s", "s", setup_secs.clone()));
    out.set("list_accuracy", 1.0 - err);
    out.digests = vec![
        ("unit_processed", digest.0.to_string()),
        ("unit_fingerprint", format!("{:016x}", digest.1)),
        ("unit_end_accuracy", format!("{:?}", digest.2)),
        ("unit_sampled_accuracy", format!("{sampled:?}")),
    ];
    out.sizes = vec![
        ("nodes", scale.nodes as u64),
        ("churn_sim_seconds_per_unit", scale.churn_s),
        ("units", digests.len() as u64),
    ];
    ChurnRun {
        rates,
        digest,
        unit_events,
        unit_wall_s,
        world: world.expect("at least MIN_UNITS units ran"),
    }
}

/// Median and 95th percentile of the host µs one simulated second took,
/// from the spans named `second_span`.
pub fn host_us_per_sim_s(tr: &Tracer, second_span: &str) -> (f64, f64) {
    let us: Vec<f64> = tr
        .durations_ns(second_span)
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    (stats::median(&us), stats::quantile(&us, 0.95))
}

/// The churn script shared by `fullsim_churn` and `parallel_churn`: who
/// departs, who joins and who changes info in each simulated second.
/// Node handles are dense indices in join order (a `FullSim` slot, a
/// `ParallelFullSim` actor).
pub struct ChurnScript {
    rng: DetRng,
    /// Live nodes in join order, the genesis node excluded (it is every
    /// scripted joiner's bootstrap in the parallel harness).
    live: Vec<u32>,
    /// Simulated seconds scripted so far.
    second: u64,
}

/// One simulated second of churn.
pub struct ChurnSecond {
    /// Node that departs 300 ms into the second.
    pub victim: u32,
    /// Whether it leaves gracefully (odd seconds) or crashes (even).
    pub graceful: bool,
    /// Node that changes its info 600 ms into the second, and the info.
    pub info_target: u32,
    /// The new attached info.
    pub info: bytes::Bytes,
}

/// Nodes that joined within this many seconds do not change info: they
/// may still be downloading their list.
const SETTLING: usize = 10;

impl ChurnScript {
    /// A script over nodes `1..n` (node 0 is the genesis node).
    pub fn new(seed: u64, n: usize) -> Self {
        ChurnScript {
            rng: DetRng::for_stream(seed, 0xC4_0521),
            live: (1..n as u32).collect(),
            second: 0,
        }
    }

    /// Draws the next second's departure and info change. The caller
    /// reports the second's joiner with [`Self::joined`].
    ///
    /// The departing node is drawn from the older half of the live
    /// nodes. §4.6 expires a pointer after three observed lifetimes, and
    /// a list learns lifetimes from the departures it sees: a node that
    /// departs seconds after joining teaches its observers a lifetime
    /// shorter than the age of most of their pointers, and they expire
    /// half their list at once (seen with seed 2 while sizing: list error
    /// 5 % for a minute). With departures among the long-lived the expiry
    /// horizon stays beyond every pointer's age, as in a system that has
    /// run for longer than a benchmark can.
    pub fn next(&mut self) -> ChurnSecond {
        let old = (self.live.len() / 2).max(1);
        let victim = self.live.remove(self.rng.below(old as u64) as usize);
        let mature = self.live.len().saturating_sub(SETTLING).max(1);
        let info_target = self.live[self.rng.below(mature as u64) as usize];
        let info = bytes::Bytes::copy_from_slice(&self.rng.next_u64().to_le_bytes());
        let graceful = self.second % 2 == 1;
        self.second += 1;
        ChurnSecond {
            victim,
            graceful,
            info_target,
            info,
        }
    }

    /// Records this second's joiner as live.
    pub fn joined(&mut self, node: u32) {
        self.live.push(node);
    }
}
