//! Release-only gates on what serving costs, with 50 000 pointers
//! served and 256 of them changed per epoch:
//!
//! * refreshing the query engine must cost less than a quarter of
//!   preparing the same snapshot from nothing. Refresh derives the next
//!   prepared snapshot from the served one, so its cost follows the
//!   runs, pointers and indexes it walks once, not the decoding and
//!   sorting of every pointer; if a from-scratch build comes back
//!   behind `QueryEngine::refresh` the ratio reads ≈ 1;
//! * publishing the epoch (`SnapshotPublisher::maybe_publish_list`,
//!   which captures against the epoch it published last and frees the
//!   one the cell evicts) must cost less than two thirds of
//!   `PeerSnapshot::capture` from nothing. A publisher that copies
//!   every pointer, as one without shared runs does, reads 0.91–1.13;
//!   one that shares reads 0.40–0.53 (5 runs each on a 2-core host).
//!   The walk over the whole list is most of what is left;
//! * and, without that walk, under a third of a capture. The publisher
//!   reads from the list's change log which ids changed, and re-reads
//!   only the ranges of the runs that hold one. A publisher that walks
//!   the whole list beside the previous runs, sharing what is
//!   unchanged, reads 0.36–0.42 and fails 4 of 5 runs (one round read
//!   0.29 beside the other gates); one that follows the log reads
//!   0.22–0.27 (10 runs, 2-core host);
//! * a batched holders query over the prepared snapshot must cost less
//!   than a fifth of a per-pointer `BloomView::parse(..)
//!   .contains_probe(..)` scan of the same snapshot, with equal hits.
//!   The prepared groups store each filter shape column-major, so a
//!   query reads the `k` probed columns of a group. A sweep over
//!   row-major filter bytes reads 0.19–0.29 of the scan and fails the
//!   gate in most runs; a column sweep reads 0.08–0.13 (2-core host).
//!
//! Each is a ratio of two timings from one process, so it holds on any
//! runner. Each side is the fastest of several epochs (documents, for
//! the holders query), and the whole comparison is retried
//! (`perf_smoke`'s `retry_gate` shape): a real regression fails every
//! round, a noisy neighbour does not.

use bytes::Bytes;
use peerwindow_apps::query::{PreparedSnapshot, QueryEngine};
use peerwindow_apps::{Bloom, BloomView, InfoMap};
use peerwindow_core::peer_list::PeerList;
use peerwindow_core::prelude::*;
use std::time::Instant;

const POINTERS: usize = 50_000;
const CHANGES: usize = 256;
const EPOCHS: usize = 8;
const ROUNDS: usize = 3;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `pwbench query_serve`'s attachment mix: 80 % typed maps, 15 % bloom
/// filters, 5 % undecodable bytes.
fn attachment(rng: &mut u64) -> Bytes {
    let roll = splitmix(rng) % 100;
    if roll < 80 {
        let mut m = InfoMap::new();
        m.set_str(
            "os",
            ["linux", "windows", "macos", "bsd"][(splitmix(rng) % 4) as usize],
        )
        .set_f64("load", (splitmix(rng) % 1000) as f64 / 1000.0)
        .set_u64("files", splitmix(rng) % 10_000);
        m.encode().expect("three small fields fit")
    } else if roll < 95 {
        let mut f = Bloom::for_items(32, 0.01);
        for _ in 0..24 {
            f.insert(&splitmix(rng).to_le_bytes());
        }
        f.to_bytes()
    } else {
        Bytes::from_static(&[0x00, 0xFF, 0xFF])
    }
}

fn pointer(rng: &mut u64) -> Pointer {
    let id = (splitmix(rng) as u128) << 64 | splitmix(rng) as u128;
    let level = Level::new((splitmix(rng) % 5) as u8);
    Pointer::with_info(NodeId(id), Addr(id as u64), level, attachment(rng))
}

/// A served list and its publisher, published once.
struct Served {
    rng: u64,
    list: PeerList,
    members: Vec<NodeId>,
    me: NodeIdentity,
    now_us: u64,
    publisher: SnapshotPublisher,
}

impl Served {
    fn new() -> Served {
        let mut rng = 21u64;
        let mut list = PeerList::new(Prefix::EMPTY);
        let mut members = Vec::with_capacity(POINTERS);
        while members.len() < POINTERS {
            let p = pointer(&mut rng);
            members.push(p.id);
            list.insert(p);
        }
        let me = NodeIdentity::new(NodeId(1), Level::TOP);
        let mut publisher = SnapshotPublisher::new();
        publisher.maybe_publish_list(me, Addr(1), &list, 1);
        Served {
            rng,
            list,
            members,
            me,
            now_us: 1,
            publisher,
        }
    }

    /// One epoch's changes: 256 of them, 20 % joins, 20 % departures,
    /// 60 % info updates.
    fn change(&mut self) {
        let rng = &mut self.rng;
        for _ in 0..CHANGES {
            let pick = (splitmix(rng) % self.members.len() as u64) as usize;
            match splitmix(rng) % 10 {
                0..=1 => {
                    let p = pointer(rng);
                    self.members.push(p.id);
                    self.list.insert(p);
                }
                2..=3 => {
                    self.list.remove(self.members.swap_remove(pick));
                }
                _ => {
                    self.list
                        .update_info(self.members[pick], attachment(rng), self.now_us);
                }
            }
        }
        self.now_us += 1;
    }

    /// Publishes the changed list, timed.
    fn publish(&mut self) -> f64 {
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        assert!(self
            .publisher
            .maybe_publish_list(self.me, Addr(1), &self.list, self.now_us));
        t.elapsed().as_secs_f64()
    }
}

/// Retries a noisy timing-ratio gate: the whole comparison is
/// re-measured up to [`ROUNDS`] times and the gate passes if any round
/// meets the bar.
fn retry_gate(mut attempt: impl FnMut() -> Result<(), String>) {
    let mut last = String::new();
    for round in 1..=ROUNDS {
        match attempt() {
            Ok(()) => return,
            Err(e) => {
                eprintln!("perf gate attempt {round}/{ROUNDS} failed: {e}");
                last = e;
            }
        }
    }
    panic!("{last} — failed {ROUNDS} consecutive measurement rounds");
}

/// The fastest of [`EPOCHS`] timings of each side of `epoch`.
fn fastest(mut epoch: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    (0..EPOCHS).fold((f64::MAX, f64::MAX), |(a, b), _| {
        let (x, y) = epoch();
        (a.min(x), b.min(y))
    })
}

#[test]
#[ignore = "timing ratio needs the release profile; CI's Query smoke passes --include-ignored"]
fn refreshing_a_small_change_costs_under_a_quarter_of_a_prepare() {
    let mut served = Served::new();
    let engine = QueryEngine::new(served.publisher.reader());

    // One epoch: the refresh and a from-nothing prepare of the same
    // snapshot, each timed.
    let mut epoch = || {
        served.change();
        served.publish();
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        assert!(engine.refresh());
        let refresh = t.elapsed().as_secs_f64();
        let snap = served.publisher.reader().load();
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        let prepared = PreparedSnapshot::prepare(snap);
        let prepare = t.elapsed().as_secs_f64();
        assert_eq!(prepared.epoch(), engine.prepared().epoch());
        assert_eq!(prepared.decode_errors(), engine.prepared().decode_errors());
        (refresh, prepare)
    };

    epoch(); // warm-up
    retry_gate(|| {
        let (refresh, prepare) = fastest(&mut epoch);
        let ratio = refresh / prepare;
        eprintln!(
            "refresh of a {CHANGES}-change epoch {:.2} ms, prepare from nothing {:.2} ms ({ratio:.3}x)",
            refresh * 1e3,
            prepare * 1e3
        );
        if ratio < 0.25 {
            return Ok(());
        }
        Err(format!(
            "refreshing {CHANGES} changes over {POINTERS} pointers cost {ratio:.2}x a prepare \
             from nothing (want < 0.25x) — refresh is decoding or sorting what it carries"
        ))
    });
}

/// Publishing each epoch's changes must cost under `bar` times a capture
/// from nothing of the same list; `failing` says what a miss means.
fn publish_gate(bar: f64, failing: &str) {
    let mut served = Served::new();

    // One epoch: the publish, and a capture from nothing of the same
    // list, each timed. The capture is dropped inside its timing, as the
    // publish frees the epoch its cell evicts.
    let mut epoch = || {
        served.change();
        let publish = served.publish();
        let Served {
            me, list, now_us, ..
        } = &served;
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        let fresh = PeerSnapshot::capture(0, *now_us, *me, Addr(1), list);
        assert_eq!(fresh.len(), list.len());
        drop(fresh);
        (publish, t.elapsed().as_secs_f64())
    };

    for _ in 0..4 {
        epoch(); // warm-up, and fill the cell's ring with shared epochs
    }
    retry_gate(|| {
        let (publish, capture) = fastest(&mut epoch);
        let ratio = publish / capture;
        eprintln!(
            "publish of a {CHANGES}-change epoch {:.3} ms, capture from nothing {:.3} ms ({ratio:.3}x)",
            publish * 1e3,
            capture * 1e3
        );
        if ratio < bar {
            return Ok(());
        }
        Err(format!(
            "publishing {CHANGES} changes over {POINTERS} pointers cost {ratio:.2}x a capture \
             from nothing (want < {bar:.2}x) — {failing}"
        ))
    });
}

#[test]
#[ignore = "timing ratio needs the release profile; CI's Query smoke passes --include-ignored"]
fn publishing_a_small_change_costs_under_two_thirds_of_a_capture() {
    publish_gate(2.0 / 3.0, "the publisher is copying what it could share");
}

#[test]
#[ignore = "timing ratio needs the release profile; CI's Query smoke passes --include-ignored"]
fn publishing_a_small_change_costs_under_a_third_of_a_capture() {
    publish_gate(
        1.0 / 3.0,
        "the publisher is reading more of the list than changed",
    );
}

#[test]
#[ignore = "timing ratio needs the release profile; CI's Query smoke passes --include-ignored"]
fn a_holders_query_costs_under_a_fifth_of_a_per_pointer_scan() {
    let served = Served::new();
    let snap = served.publisher.reader().load();
    let prepared = PreparedSnapshot::prepare(snap.clone());

    // One document: the batched query and the per-pointer scan of the
    // same snapshot, each timed, their hit counts equal.
    let mut doc = 0u32;
    let mut epoch = || {
        doc += 1;
        let probe = Bloom::probe(format!("doc-{doc}").as_bytes());
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        let batched = prepared.probable_holders_probe(probe).len();
        let query = t.elapsed().as_secs_f64();
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        let scanned = snap
            .runs()
            .iter()
            .flat_map(|run| run.iter())
            .filter(|p| BloomView::parse(&p.info).is_some_and(|v| v.contains_probe(probe)))
            .count();
        let scan = t.elapsed().as_secs_f64();
        assert_eq!(batched, scanned, "doc-{doc}");
        (query, scan)
    };

    epoch(); // warm-up
    retry_gate(|| {
        let (query, scan) = fastest(&mut epoch);
        let ratio = query / scan;
        eprintln!(
            "holders query {:.3} ms, per-pointer scan {:.3} ms ({ratio:.3}x)",
            query * 1e3,
            scan * 1e3
        );
        if ratio < 0.2 {
            return Ok(());
        }
        Err(format!(
            "a holders query over {POINTERS} pointers cost {ratio:.2}x a per-pointer scan \
             (want < 0.2x) — the sweep is reading more than the probed columns"
        ))
    });
}
