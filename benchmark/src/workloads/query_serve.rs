//! `query_serve`: reads beside writes on the §3 serving layer.
//!
//! Set-up builds a peer list with `pwquery`'s attached-info mix (80 %
//! typed `InfoMap`s, 15 % bloom filters, 5 % undecodable bytes),
//! publishes it and prepares the query engine. A cycle then applies 256
//! seeded insert / remove / `update_info` operations, publishes a
//! snapshot (`SnapshotPublisher::maybe_publish_list`), refreshes the
//! engine (`QueryEngine::refresh`), and answers 30,000 indexed queries
//! split evenly over `partners_eq` / `k_lightest` / `strongest` plus 16
//! bloom `holders` queries. Cycles repeat until the wall-clock budget is
//! spent. `core::snapshot` capture, `apps::query` prepare and the bloom
//! sweep dominate; an index built at prepare time speeds the reads and
//! slows the refresh, and both count. Unit of work: queries answered per
//! wall second of the whole cycle, refresh included.

use super::{
    alternate_tracing, keep_going, span_coverage_pct, timed_setups, Outcome, Rates, RunArgs,
};
use crate::probes::{block_ns, mean_ns, mean_us};
use crate::span::Tracer;
use crate::stats;
use bytes::Bytes;
use peerwindow_apps::query::{QueryEngine, QueryPlan};
use peerwindow_apps::{select, Bloom, BloomView, InfoMap};
use peerwindow_core::prelude::*;
use peerwindow_des::DetRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Input sizes.
struct Scale {
    /// Pointers in the list.
    pointers: usize,
    /// Indexed queries per class per cycle.
    per_class: usize,
}

impl Scale {
    fn of(quick: bool) -> Scale {
        if quick {
            Scale {
                pointers: 4_000,
                per_class: 1_000,
            }
        } else {
            Scale {
                pointers: 50_000,
                per_class: 10_000,
            }
        }
    }
}

/// List operations per cycle.
const OPS_PER_CYCLE: usize = 256;
/// Holders queries per cycle, one per probed document.
const HOLDERS_PER_CYCLE: usize = 16;
/// Indexed queries run against one loaded snapshot before it is loaded
/// again, and the block a traced run spans at once.
const QUERY_BLOCK: usize = 1_000;
/// Result budget of the indexed queries.
const K: usize = 16;
/// Every this many cycles the answers are compared with `apps::select`
/// on the live list (a full scan per query: too slow for every cycle).
const VERIFY_EVERY: usize = 4;
/// Documents a bloom attachment may hold.
const DOCS: u64 = 4096;
/// Documents each bloom attachment does hold.
const DOCS_PER_BLOOM: usize = 24;

const OSES: [&str; 5] = ["linux", "windows", "macos", "bsd", "solaris"];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a pointer's attached info holds, as a pure function of its id
/// and info version, so the bench can say who truly holds a document
/// without decoding anything.
enum InfoSpec {
    Map {
        os: &'static str,
        load: f64,
        files: u64,
    },
    Bloom {
        docs: [u16; DOCS_PER_BLOOM],
    },
    Garbage,
}

fn info_spec(id: u128, version: u32) -> InfoSpec {
    let mut h = id as u64 ^ (id >> 64) as u64 ^ ((version as u64) << 32);
    let roll = splitmix(&mut h) % 100;
    if roll < 80 {
        InfoSpec::Map {
            os: OSES[(splitmix(&mut h) % OSES.len() as u64) as usize],
            load: (splitmix(&mut h) % 1000) as f64 / 1000.0,
            files: splitmix(&mut h) % 10_000,
        }
    } else if roll < 95 {
        let mut docs = [0u16; DOCS_PER_BLOOM];
        for d in &mut docs {
            *d = (splitmix(&mut h) % DOCS) as u16;
        }
        InfoSpec::Bloom { docs }
    } else {
        InfoSpec::Garbage
    }
}

fn doc_name(doc: u16) -> Vec<u8> {
    format!("doc-{doc}").into_bytes()
}

fn encode_info(spec: &InfoSpec) -> Bytes {
    match spec {
        InfoSpec::Map { os, load, files } => {
            let mut m = InfoMap::new();
            m.set_str("os", os)
                .set_f64("load", *load)
                .set_u64("files", *files);
            m.encode().expect("three small fields fit")
        }
        InfoSpec::Bloom { docs } => {
            let mut f = Bloom::for_items(32, 0.01);
            for &d in docs {
                f.insert(&doc_name(d));
            }
            f.to_bytes()
        }
        // Leading 0x00 fails `BloomView` (k = 0), tag 0xFF fails `InfoMap`.
        InfoSpec::Garbage => Bytes::from_static(&[0x00, 0xFF, 0xFF]),
    }
}

fn pointer_for(id: u128, version: u32, now_us: u64) -> Pointer {
    let level = Level::new((id >> 120) as u8 % 5);
    let mut p = Pointer::with_info(
        NodeId(id),
        Addr(id as u64),
        level,
        encode_info(&info_spec(id, version)),
    );
    p.last_refresh_us = now_us;
    p
}

/// The list, its writer side and its reader side.
struct Serve {
    list: PeerList,
    /// Live ids with their info version.
    members: Vec<(u128, u32)>,
    rng: DetRng,
    now_us: u64,
    me: NodeIdentity,
    publisher: SnapshotPublisher,
    engine: QueryEngine,
}

impl Serve {
    /// Set-up: fill the list, publish it, prepare the engine.
    fn build(seed: u64, scale: &Scale) -> Serve {
        let mut rng = DetRng::for_stream(seed, 0x5E27E);
        let mut list = PeerList::new(Prefix::EMPTY);
        let mut members = Vec::with_capacity(scale.pointers);
        let mut now_us = 0;
        while members.len() < scale.pointers {
            now_us += 1_000;
            let id = rng.next_u128();
            if list.insert(pointer_for(id, 0, now_us)).is_none() {
                members.push((id, 0));
            }
        }
        let me = NodeIdentity::new(NodeId(1), Level::TOP);
        let mut publisher = SnapshotPublisher::new();
        publisher.maybe_publish_list(me, Addr(1), &list, now_us);
        let engine = QueryEngine::new(publisher.reader());
        Serve {
            list,
            members,
            rng,
            now_us,
            me,
            publisher,
            engine,
        }
    }

    /// One seeded list operation: 20 % insert, 20 % remove, 60 % info
    /// update. Only the `PeerList` call is spanned; making the pointer is
    /// the bench's own cost.
    fn list_op(&mut self, tr: &mut Tracer) {
        self.now_us += 1_000;
        let pick = self.rng.below(self.members.len() as u64) as usize;
        match self.rng.below(10) {
            0..=1 => {
                let id = self.rng.next_u128();
                let p = pointer_for(id, 0, self.now_us);
                if tr
                    .time("core.peer_list.insert", || self.list.insert(p))
                    .is_none()
                {
                    self.members.push((id, 0));
                }
            }
            2..=3 if self.members.len() > 1 => {
                let (id, _) = self.members.swap_remove(pick);
                tr.time("core.peer_list.remove", || self.list.remove(NodeId(id)));
            }
            _ => {
                let (id, version) = &mut self.members[pick];
                *version += 1;
                let info = encode_info(&info_spec(*id, *version));
                let (id, now) = (NodeId(*id), self.now_us);
                tr.time("core.peer_list.update_info", || {
                    self.list.update_info(id, info, now)
                });
            }
        }
    }

    /// Ids that truly hold `doc`, from the specs alone.
    fn true_holders(&self, doc: u16) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|&&(id, v)| {
                matches!(info_spec(id, v), InfoSpec::Bloom { docs } if docs.contains(&doc))
            })
            .map(|&(id, _)| NodeId(id))
            .collect()
    }
}

fn ids(ps: &[&Pointer]) -> Vec<NodeId> {
    ps.iter().map(|p| p.id).collect()
}

/// Cheap fingerprint of an answer, compared across the repeats of one
/// query within a cycle.
fn shape(answer: &[&Pointer]) -> (usize, u128, u128) {
    (
        answer.len(),
        answer.first().map_or(0, |p| p.id.raw()),
        answer.last().map_or(0, |p| p.id.raw()),
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs, tr: &mut Tracer) -> Outcome {
    let scale = Scale::of(args.quick);
    let mut out = Outcome::default();
    let (mut sv, setup_s) = timed_setups(tr, |_| Serve::build(args.seed, &scale));

    let mut doc_rng = DetRng::for_stream(args.seed, 0xD0C5);
    let docs: Vec<u16> = (0..HOLDERS_PER_CYCLE)
        .map(|_| doc_rng.below(DOCS) as u16)
        .collect();
    let holder_plans: Vec<QueryPlan> = docs
        .iter()
        .map(|&d| QueryPlan::holders(&doc_name(d)))
        .collect();
    let partner_plans: Vec<QueryPlan> = OSES
        .iter()
        .map(|os| QueryPlan::PartnersEq {
            key: "os".to_string(),
            value: os.to_string(),
            limit: K,
        })
        .collect();
    let lightest = QueryPlan::KSmallest {
        key: "load".to_string(),
        k: K,
    };
    let strongest = QueryPlan::Strongest { k: K };

    let mut rates = Rates::default();
    let mut traced_wall_ns = 0u64;
    let mut refresh_ms = Vec::new();
    let mut holders_ms = Vec::new();
    let mut queries = 0u64;
    let mut unstable = 0u64; // answers differing from the cycle's first
    let mut wrong = 0u64; // verified answers differing from apps::select
    let mut missed_holders = 0u64;
    let mut verified = 0u64;
    let mut empty_answers = 0u64;
    let first_span = tr.len();
    let started = Instant::now();
    let mut cycles = 0usize;
    while keep_going(started, args.seconds, cycles, 2 * VERIFY_EVERY) {
        let traced = alternate_tracing(tr, args.trace, cycles);
        let cycle_span = tr.begin("bench.query_serve.cycle");
        let t = Instant::now();

        for _ in 0..OPS_PER_CYCLE {
            sv.list_op(tr);
        }

        let t_refresh = Instant::now();
        let (me, now) = (sv.me, sv.now_us);
        let published = tr.time("core.snapshot.capture", || {
            sv.publisher.maybe_publish_list(me, Addr(1), &sv.list, now)
        });
        let refreshed = tr.time("apps.query.prepare", || sv.engine.refresh());
        refresh_ms.push(t_refresh.elapsed().as_secs_f64() * 1e3);
        if !(published && refreshed) {
            wrong += 1; // 256 content changes must yield a new epoch
        }

        for (class, name) in [
            (0usize, "apps.query.partners_eq"),
            (1, "apps.query.k_lightest"),
            (2, "apps.query.strongest"),
        ] {
            let mut first: [Option<(usize, u128, u128)>; OSES.len()] = [None; OSES.len()];
            for block in 0..scale.per_class / QUERY_BLOCK {
                let ps = sv.engine.prepared();
                let span = tr.begin(name);
                for q in 0..QUERY_BLOCK {
                    let which = (block * QUERY_BLOCK + q) % OSES.len();
                    let (plan, slot) = match class {
                        0 => (&partner_plans[which], which),
                        1 => (&lightest, 0),
                        _ => (&strongest, 0),
                    };
                    let answer = plan.execute(&ps);
                    let sh = shape(&answer);
                    match first[slot] {
                        None => first[slot] = Some(sh),
                        Some(f) if f != sh => unstable += 1,
                        Some(_) => {}
                    }
                }
                tr.end(span);
            }
            queries += (scale.per_class / QUERY_BLOCK * QUERY_BLOCK) as u64;
            empty_answers += first.iter().flatten().filter(|f| f.0 == 0).count() as u64;
        }

        let ps = sv.engine.prepared();
        for plan in &holder_plans {
            let span = tr.begin("apps.query.holders");
            let t_q = Instant::now();
            let answer = plan.execute(&ps);
            holders_ms.push(t_q.elapsed().as_secs_f64() * 1e3);
            tr.end(span);
            black_box(answer.len());
        }
        queries += holder_plans.len() as u64;

        let wall = t.elapsed();
        tr.end(cycle_span);
        if traced {
            traced_wall_ns += wall.as_nanos() as u64;
        }
        rates.push(
            traced,
            (3 * (scale.per_class / QUERY_BLOCK * QUERY_BLOCK) + HOLDERS_PER_CYCLE) as f64
                / wall.as_secs_f64(),
        );

        // Untimed: the served answers against `apps::select` on the live
        // list, which holds exactly what the served epoch captured.
        if cycles.is_multiple_of(VERIFY_EVERY) {
            let round = cycles / VERIFY_EVERY;
            let os = OSES[round % OSES.len()];
            let want: Vec<NodeId> =
                select::find_partners(&sv.list, |_, m| m.get_str("os") == Some(os))
                    .take(K)
                    .map(|p| p.id)
                    .collect();
            wrong += (ids(&partner_plans[round % OSES.len()].execute(&ps)) != want) as u64;
            wrong += (ids(&lightest.execute(&ps))
                != ids(&select::k_smallest_by(&sv.list, "load", K))) as u64;
            wrong +=
                (ids(&strongest.execute(&ps)) != ids(&select::strongest_nodes(&sv.list, K))) as u64;
            let d = round % docs.len();
            let name = doc_name(docs[d]);
            let got = ids(&holder_plans[d].execute(&ps));
            wrong += (got != ids(&select::probable_holders(&sv.list, &name))) as u64;
            missed_holders += sv
                .true_holders(docs[d])
                .iter()
                .filter(|id| !got.contains(id))
                .count() as u64;
            verified += 4;
        }
        cycles += 1;
    }
    tr.set_on(args.trace);
    let loop_spans = first_span..tr.len();

    out.attempted = queries;
    out.check(
        "answers_stable_within_an_epoch",
        unstable == 0 && empty_answers == 0,
        queries,
        format!("{unstable} differing, {empty_answers} empty"),
    );
    out.check(
        "answers_equal_apps_select",
        wrong == 0 && verified > 0,
        queries,
        format!("{wrong} of {verified} verified answers differ"),
    );
    out.check(
        "holders_never_miss_a_true_holder",
        missed_holders == 0,
        (cycles * HOLDERS_PER_CYCLE) as u64,
        format!("{missed_holders} true holders missed"),
    );
    out.set("throughput_per_s", rates.throughput());
    out.samples.push(("throughput_per_s", "1/s", rates.all()));
    out.set("setup_s", setup_s);
    out.set(
        "list_accuracy",
        1.0 - (wrong + unstable) as f64 / (verified + queries).max(1) as f64,
    );
    out.digests = vec![];
    out.sizes = vec![
        ("pointers", scale.pointers as u64),
        ("cycles", cycles as u64),
        ("queries", queries),
        ("holders_samples", holders_ms.len() as u64),
        ("refresh_samples", refresh_ms.len() as u64),
    ];

    if args.trace {
        let per_query = |name: &str| mean_ns(tr, name) / QUERY_BLOCK as f64;
        out.set(
            "core.peer_list.insert_ns",
            mean_ns(tr, "core.peer_list.insert"),
        );
        out.set(
            "core.peer_list.remove_ns",
            mean_ns(tr, "core.peer_list.remove"),
        );
        out.set(
            "core.peer_list.update_info_ns",
            mean_ns(tr, "core.peer_list.update_info"),
        );
        out.set(
            "core.snapshot.capture_us",
            mean_us(tr, "core.snapshot.capture"),
        );
        out.set("core.snapshot.published", sv.publisher.epoch() as f64);
        out.set(
            "apps.query.prepare_ms",
            mean_us(tr, "apps.query.prepare") / 1e3,
        );
        out.set(
            "apps.query.partners_eq_ns",
            per_query("apps.query.partners_eq"),
        );
        out.set(
            "apps.query.k_lightest_ns",
            per_query("apps.query.k_lightest"),
        );
        out.set("apps.query.strongest_ns", per_query("apps.query.strongest"));
        out.set("apps.query.holders_ms", stats::mean(&holders_ms));
        out.set("apps.query.holders_p50_ms", stats::median(&holders_ms));
        out.set(
            "apps.query.holders_p99_ms",
            stats::quantile(&holders_ms, 0.99),
        );
        out.set("apps.query.refresh_p50_ms", stats::median(&refresh_ms));
        out.set(
            "apps.query.refresh_p90_ms",
            stats::quantile(&refresh_ms, 0.90),
        );
        let ps = sv.engine.prepared();
        out.set("apps.query.decode_errors", ps.decode_errors() as f64);
        out.set("apps.query.epochs_served", ps.epoch() as f64);
        out.set("bench.trace_overhead_pct", rates.trace_overhead_pct());
        out.set(
            "bench.span_coverage_pct",
            span_coverage_pct(tr, loop_spans, traced_wall_ns),
        );
        layer_probes(tr, &mut sv, &mut out);
    }
    out
}

/// The calls the cycle makes too briefly or too indirectly to span in
/// place, on the final list and snapshot.
fn layer_probes(tr: &mut Tracer, sv: &mut Serve, out: &mut Outcome) {
    let n = sv.members.len() as u64;
    let mut hits = 0u64;
    let ns = block_ns(tr, "core.peer_list.get", 200_000, |i| {
        let (id, _) = sv.members[(i.wrapping_mul(2_654_435_761) % n) as usize];
        hits += sv.list.get(NodeId(id)).is_some() as u64;
    });
    out.set("core.peer_list.get_ns", ns);
    for k in 0..20 {
        let changing = NodeId(sv.members[(k * 7919) % sv.members.len()].0);
        let members = tr.time("core.peer_list.audience_members", || {
            sv.list.audience_members(changing)
        });
        hits += members.len() as u64;
    }
    out.set(
        "core.peer_list.audience_members_us",
        mean_us(tr, "core.peer_list.audience_members"),
    );

    let cell = Published::new(Arc::new(0u64));
    let ns = block_ns(tr, "core.snapshot.publish", 200_000, |i| {
        hits += cell.publish(Arc::new(i));
    });
    out.set("core.snapshot.publish_ns", ns);
    let ns = block_ns(tr, "core.snapshot.load", 1_000_000, |_| {
        hits += *cell.load();
    });
    out.set("core.snapshot.load_ns", ns);

    let ps = sv.engine.prepared();
    let pointers = ps.snapshot().pointers();
    let probe = Bloom::probe(b"doc-42");
    let blooms: Vec<&Pointer> = pointers
        .iter()
        .filter(|p| BloomView::parse(&p.info).is_some())
        .collect();
    let ns = block_ns(tr, "apps.bloom.contains_probe", 500_000, |i| {
        let p = blooms[i as usize % blooms.len().max(1)];
        hits += BloomView::parse(&p.info).is_some_and(|v| v.contains_probe(probe)) as u64;
    });
    out.set("apps.bloom.contains_probe_ns", ns);
    let ns = block_ns(tr, "apps.info.decode", 200_000, |i| {
        let p = &pointers[i as usize % pointers.len()];
        hits += InfoMap::decode(&p.info).is_ok() as u64;
    });
    out.set("apps.info.decode_ns", ns);
    black_box(hits);
}
