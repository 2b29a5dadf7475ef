//! Perf smoke gates (the timing assertions are release-only).
//!
//! Three gates:
//!
//! * **Fanout scaling** — on hosts with ≥4 cores, 4-shard throughput
//!   must not fall below 1-shard (with a 0.9 fudge for noise). Skipped
//!   on smaller hosts, where extra shards measure oversubscription, not
//!   the engine.
//! * **Probe-tick scaling** — one odd-round `Timer::Probe` (the kind
//!   that runs the lonely-peer pass) on a machine holding 4 096 pointers
//!   must cost < 24× the same tick at 512 pointers (linear is 8; the
//!   per-peer group count it replaced was ≈ 64). A ratio of two timings
//!   from one process, so it holds on any runner.
//! * **Oracle scaling** — the same kind of ratio for the two linear
//!   pieces of `run_oracle`: `Directory::join_all` of 80 000 nodes must
//!   grow < 3× as much over 10 000 as sorting the same nodes by id does
//!   (one sort per call reads ≈ 1×; one sorted insert per node ≈ 6×, and
//!   a bare 16× bar read 16–18× on a 2 MB-L2 host where the column spills
//!   the cache), and planning a 64 000-entry audience < 12× an
//!   8 000-entry one (linear is 8).
//!
//! Each ratio gate is additionally wrapped in [`retry_gate`]: the full
//! comparison is re-measured up to three times and only fails if every
//! round misses the bar, so noisy neighbours on shared CI runners don't
//! fail unrelated PRs.

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::{DetRng, ModuloShardMap, Outbox, ParallelEngine, ShardLogic, SimTime};
use peerwindow_sim::directory::{AudienceEntry, Directory};
use peerwindow_sim::plan::{plan_event_indexed, Rmq};
use std::time::Instant;

const TRIES: usize = 3;

fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(0.0, f64::max)
}

/// Retries a noisy throughput-ratio gate on shared CI runners: the whole
/// comparison is re-measured up to `rounds` times and the gate passes if
/// any round meets the bar. A real regression fails every round; a noisy
/// neighbour perturbing one side of one round does not.
fn retry_gate(rounds: usize, mut attempt: impl FnMut() -> Result<(), String>) {
    let mut last = String::new();
    for i in 1..=rounds {
        match attempt() {
            Ok(()) => return,
            Err(e) => {
                eprintln!("perf gate attempt {i}/{rounds} failed: {e}");
                last = e;
            }
        }
    }
    panic!("{last} — failed {rounds} consecutive measurement rounds");
}

struct Fanout {
    actors: u32,
    count: u64,
}

impl ShardLogic for Fanout {
    type Msg = u32;
    fn handle(&mut self, _now: SimTime, _actor: u32, hops: u32, out: &mut Outbox<u32>) {
        self.count += 1;
        if hops > 0 {
            let a = (self.count as u32).wrapping_mul(2654435761) % self.actors;
            let b = (self.count as u32).wrapping_mul(40503) % self.actors;
            out.send(1_000, a, hops - 1);
            out.send(1_500, b, hops - 1);
        }
    }
}

fn fanout(shards: usize) -> f64 {
    let logics: Vec<Fanout> = (0..shards)
        .map(|_| Fanout {
            actors: 256,
            count: 0,
        })
        .collect();
    let mut e = ParallelEngine::with_map(logics, 1_000, ModuloShardMap);
    for i in 0..8 {
        e.schedule(SimTime(0), i, 13);
    }
    let t = Instant::now();
    e.run_until(SimTime::from_secs(600));
    let secs = t.elapsed().as_secs_f64();
    e.processed() as f64 / secs
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing assertion needs the release profile; \
              run with cargo test --release"
)]
fn four_shards_keep_up_with_one_on_multicore_hosts() {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping 4-shard scaling gate: host has {cores} core(s)");
        return;
    }
    fanout(1); // warm-up
    retry_gate(3, || {
        let one = best_of(TRIES, || fanout(1));
        let four = best_of(TRIES, || fanout(4));
        if four < 0.9 * one {
            return Err(format!(
                "4-shard throughput fell below 1-shard on a {cores}-core host \
                 (1 shard {one:.0} ev/s, 4 shards {four:.0} ev/s)"
            ));
        }
        Ok(())
    });
}

/// The benchmark's level mix: ≈ 85 % level 0, the rest over levels 1–7.
fn mixed_level(rng: &mut DetRng) -> u8 {
    match rng.below(100) {
        0..85 => 0,
        _ => 1 + rng.below(7) as u8,
    }
}

/// A level-0 seed holding `n` pointers at the benchmark's level mix,
/// filled through the machine's public input: one leaf join multicast per
/// peer.
fn machine_holding(n: u64) -> NodeMachine {
    let mut rng = DetRng::new(0x10e1);
    let me = NodeId(rng.next_u128());
    let (mut m, _) =
        NodeMachine::new_seed(ProtocolConfig::default(), me, Addr(0), Bytes::new(), 1e9, 1);
    for k in 1..=n {
        let level = Level::new(mixed_level(&mut rng));
        let event = StateEvent {
            subject: NodeId(rng.next_u128()),
            addr: Addr(k),
            level,
            kind: EventKind::Join,
            seq: 0,
            origin_us: 1,
            info: Bytes::new(),
        };
        m.handle(
            1,
            Input::Message {
                from: event.subject,
                from_addr: event.addr,
                // Step `ID_BITS` makes the copy a leaf: applied, not forwarded.
                msg: Message::Multicast {
                    event,
                    step: ID_BITS,
                },
            },
        );
    }
    assert_eq!(m.peers().len() as u64, n);
    m
}

/// `m` one probe round in: its round-0 ring probe sent and acked, so its
/// next tick is round 1 — an odd round, the kind that runs the lonely-peer
/// pass (round 0 has a ring successor and skips it).
fn after_first_probe(mut m: NodeMachine) -> NodeMachine {
    m.handle(2, Input::Timer(Timer::Probe));
    let target = m.pending_probe_target().expect("round 0 probes a peer");
    let from_addr = m.peers().get(target).expect("probed a held peer").addr;
    m.handle(
        3,
        Input::Message {
            from: target,
            from_addr,
            msg: Message::ProbeAck,
        },
    );
    assert_eq!(m.pending_probe_target(), None, "the ack resolves the probe");
    m
}

/// Seconds per probe tick. Each tick runs on a fresh clone (a machine
/// with a probe outstanding skips the next tick); cloning is not timed.
fn probe_tick_secs(m: &NodeMachine) -> f64 {
    const TICKS: usize = 32;
    let mut clones: Vec<NodeMachine> = (0..TICKS).map(|_| m.clone()).collect();
    let t = Instant::now();
    for c in &mut clones {
        let outs = c.handle(4, Input::Timer(Timer::Probe));
        assert!(!std::hint::black_box(outs).is_empty());
    }
    t.elapsed().as_secs_f64() / TICKS as f64
}

#[test]
#[ignore = "timing ratio needs core built without `invariants`, which the root \
            `cargo test` unifies in (every probe tick then also runs the quadratic \
            reference); CI's Perf smoke builds -p peerwindow-bench alone"]
fn probe_tick_scales_linearly_in_the_peer_list() {
    let small = after_first_probe(machine_holding(512));
    let large = after_first_probe(machine_holding(4096));
    probe_tick_secs(&small); // warm-up
    retry_gate(3, || {
        let fastest = |m| {
            (0..TRIES)
                .map(|_| probe_tick_secs(m))
                .fold(f64::MAX, f64::min)
        };
        let (t_small, t_large) = (fastest(&small), fastest(&large));
        let ratio = t_large / t_small;
        eprintln!(
            "probe tick: {:.1} us at 512 pointers, {:.1} us at 4096 ({ratio:.1}x)",
            t_small * 1e6,
            t_large * 1e6
        );
        if ratio >= 24.0 {
            return Err(format!(
                "probe tick grew {ratio:.1}x from 512 to 4096 pointers (linear is 8x, \
                 want < 24x) — a per-peer pass over the list is back in probe_successor"
            ));
        }
        Ok(())
    });
}

/// `n` nodes as `Directory::join_all` takes them.
fn joiners(n: u32) -> Vec<(NodeId, u32, Level, f64, f64)> {
    let mut rng = DetRng::new(0x901a);
    (0..n)
        .map(|addr| {
            let level = Level::new(mixed_level(&mut rng));
            (NodeId(rng.next_u128()), addr, level, 500.0, 1e6)
        })
        .collect()
}

/// Seconds to `join_all` `nodes` into an empty directory.
fn join_all_secs(nodes: &[(NodeId, u32, Level, f64, f64)]) -> f64 {
    let mut dir = Directory::new();
    let t = Instant::now();
    dir.join_all(nodes.iter().copied());
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(std::hint::black_box(dir).len(), nodes.len());
    secs
}

/// An audience of `n` members of some subject: a level-`l` member shares
/// the subject's first `l` bits, and entry 0 is a top node.
fn audience_of(n: u32) -> Vec<AudienceEntry> {
    let mut rng = DetRng::new(0xa0d1);
    let subject = rng.next_u128();
    let mut audience: Vec<AudienceEntry> = (0..n)
        .map(|slot| {
            let level = mixed_level(&mut rng);
            let tail = u128::MAX >> level;
            AudienceEntry {
                id: subject & !tail | rng.next_u128() & tail,
                level,
                slot,
                addr: slot,
            }
        })
        .collect();
    audience.sort_unstable_by_key(|e| e.id);
    assert!(audience.windows(2).all(|w| w[0].id < w[1].id));
    audience[0].level = 0;
    audience
}

/// Seconds to plan one event (trie build included) over `audience`.
fn plan_secs(audience: &[AudienceEntry], rmq: &mut Rmq) -> f64 {
    let mut deliveries = 0;
    let t = Instant::now();
    plan_event_indexed(
        std::hint::black_box(audience),
        rmq,
        0,
        0,
        0,
        0,
        |_, _| 1,
        |d| deliveries += std::hint::black_box(d.at_us).min(1) as usize,
    );
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(deliveries, audience.len() - 1);
    secs
}

/// Seconds to sort a copy of `nodes` by id, as `join_all` sorts its
/// column: the same n log n over memory of the same size, so its growth
/// from 10 000 to 80 000 nodes carries this host's cache spill too.
fn sort_secs(nodes: &[(NodeId, u32, Level, f64, f64)]) -> f64 {
    let mut copy = nodes.to_vec();
    let t = Instant::now();
    copy.sort_unstable_by_key(|n| n.0);
    let secs = t.elapsed().as_secs_f64();
    assert!(std::hint::black_box(copy)
        .windows(2)
        .all(|w| w[0].0 < w[1].0));
    secs
}

/// The fastest of 16 calls. One call is milliseconds, so this leaves the
/// host's noise out.
fn fastest(f: &mut dyn FnMut() -> f64) -> f64 {
    (0..16).map(|_| f()).fold(f64::MAX, f64::min)
}

/// Fails unless `large()` costs less than `bound × allowance()` ×
/// `small()`. The allowance is 1 for a bar in absolute terms, or the
/// growth of a same-process reference over the same two inputs where the
/// host's cache sizes would otherwise set the ratio.
fn scaling_gate(
    what: &str,
    bound: f64,
    mut small: impl FnMut() -> f64,
    mut large: impl FnMut() -> f64,
    mut allowance: impl FnMut() -> f64,
    blame: &str,
) {
    small(); // warm-up
    retry_gate(3, || {
        let (t_small, t_large) = (fastest(&mut small), fastest(&mut large));
        let (ratio, want) = (t_large / t_small, bound * allowance());
        eprintln!(
            "{what}: {:.0} us small, {:.0} us large ({ratio:.1}x, want < {want:.1}x)",
            t_small * 1e6,
            t_large * 1e6
        );
        if ratio >= want {
            return Err(format!(
                "{what} grew {ratio:.1}x over an 8x larger input (want < {want:.1}x) — {blame}"
            ));
        }
        Ok(())
    });
}

#[test]
#[ignore = "timing ratio needs the release profile; CI's Perf smoke passes --include-ignored"]
fn oracle_warm_start_and_planner_scale_linearly() {
    let (small, large) = (joiners(10_000), joiners(80_000));
    scaling_gate(
        "join_all of 10 000 / 80 000 nodes",
        3.0, // × the sort's own growth: one sort reads ≈ 1x, a sorted insert per node ≈ 6x
        || join_all_secs(&small),
        || join_all_secs(&large),
        || fastest(&mut || sort_secs(&large)) / fastest(&mut || sort_secs(&small)),
        "a sorted insert per node is back in the warm start",
    );
    let (small, large) = (audience_of(8_000), audience_of(64_000));
    let (mut rmq_small, mut rmq_large) = (Rmq::new(), Rmq::new());
    scaling_gate(
        "plan_event_indexed over 8 000 / 64 000 entries",
        12.0, // linear is 8x
        || plan_secs(&small, &mut rmq_small),
        || plan_secs(&large, &mut rmq_large),
        || 1.0,
        "per-split searches or a per-event table are back in the planner",
    );
}
