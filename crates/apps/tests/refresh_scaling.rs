//! Release-only gate on what a refresh costs (ISSUE 21): with 50 000
//! pointers served, folding in an epoch that changed 256 of them must
//! cost less than a quarter of preparing the same snapshot from
//! nothing. Refresh derives the next prepared snapshot from the served
//! one, so its cost follows the pointer arrays and indexes it walks
//! once, not the decoding and sorting of every pointer; if a from-scratch
//! build comes back behind `QueryEngine::refresh` the ratio reads ≈ 1.
//!
//! A ratio of two timings from one process, so it holds on any runner.
//! Each side is the fastest of several epochs, and the whole comparison
//! is retried (`perf_smoke`'s `retry_gate` shape): a real regression
//! fails every round, a noisy neighbour does not.

use bytes::Bytes;
use peerwindow_apps::query::{PreparedSnapshot, QueryEngine};
use peerwindow_apps::{Bloom, InfoMap};
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

#[test]
#[ignore = "timing ratio needs the release profile; CI's Query smoke passes --include-ignored"]
fn refreshing_a_small_change_costs_under_a_quarter_of_a_prepare() {
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
    let mut now_us = 1;
    publisher.maybe_publish_list(me, Addr(1), &list, now_us);
    let engine = QueryEngine::new(publisher.reader());

    // One epoch: 256 changes (20 % joins, 20 % departures, 60 % info
    // updates), then the refresh and a from-nothing prepare of the same
    // snapshot, each timed.
    let mut epoch = || {
        for _ in 0..CHANGES {
            let pick = (splitmix(&mut rng) % members.len() as u64) as usize;
            match splitmix(&mut rng) % 10 {
                0..=1 => {
                    let p = pointer(&mut rng);
                    members.push(p.id);
                    list.insert(p);
                }
                2..=3 => {
                    list.remove(members.swap_remove(pick));
                }
                _ => {
                    list.update_info(members[pick], attachment(&mut rng), now_us);
                }
            }
        }
        now_us += 1;
        assert!(publisher.maybe_publish_list(me, Addr(1), &list, now_us));
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        assert!(engine.refresh());
        let refresh = t.elapsed().as_secs_f64();
        let snap = publisher.reader().load();
        let t = Instant::now(); // audit: wall-clock-ok — the gate is a ratio of two timings
        let prepared = PreparedSnapshot::prepare(snap);
        let prepare = t.elapsed().as_secs_f64();
        assert_eq!(prepared.epoch(), engine.prepared().epoch());
        assert_eq!(prepared.decode_errors(), engine.prepared().decode_errors());
        (refresh, prepare)
    };

    epoch(); // warm-up
    let mut last = String::new();
    for round in 1..=ROUNDS {
        let (mut refresh, mut prepare) = (f64::MAX, f64::MAX);
        for _ in 0..EPOCHS {
            let (r, p) = epoch();
            refresh = refresh.min(r);
            prepare = prepare.min(p);
        }
        let ratio = refresh / prepare;
        eprintln!(
            "refresh of a {CHANGES}-change epoch {:.2} ms, prepare from nothing {:.2} ms ({ratio:.3}x)",
            refresh * 1e3,
            prepare * 1e3
        );
        if ratio < 0.25 {
            return;
        }
        last = format!(
            "refreshing {CHANGES} changes over {POINTERS} pointers cost {ratio:.2}x a prepare \
             from nothing (want < 0.25x) — refresh is decoding or sorting what it carries"
        );
        eprintln!("perf gate attempt {round}/{ROUNDS} failed: {last}");
    }
    panic!("{last} — failed {ROUNDS} consecutive measurement rounds");
}
