//! `node_loop`: what one `pwnode` does per datagram, without sockets or
//! timers.
//!
//! Set-up settles the population in a `FullSim` and clones the machines
//! out. A round gives every machine `Command::ChangeInfo` in turn and
//! carries every `Output::Send` through `transport::codec::encode` → a
//! FIFO queue → `codec::decode` → `NodeMachine::handle(Input::Message)`
//! until the queue drains (closed loop: the next command is issued when
//! the previous multicast has been delivered and acknowledged
//! everywhere). A unit is a few rounds on fresh clones of the settled
//! machines, so every unit carries exactly the same datagrams; units
//! repeat until the wall-clock budget is spent. A final untimed bulk
//! phase has each machine answer a whole-scope `Message::Download`, so
//! the largest frame is encoded and decoded too.
//! `transport::codec`, the multicast-forward path of `core::node` and
//! `core::multicast` dominate; `des` and every timer do nothing. Unit of
//! work: datagrams.

use super::churn::ChurnScale;
use super::{
    alternate_tracing, keep_going, span_coverage_pct, timed_setups, Outcome, Rates, RunArgs,
};
use crate::probes::{mean_ns, mean_us};
use crate::span::Tracer;
use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::DetRng;
use peerwindow_transport::codec;
use std::collections::VecDeque;
use std::time::Instant;

/// Settled machines the loop drives, and rounds per unit.
fn sizes(quick: bool) -> (usize, usize) {
    if quick {
        (48, 1)
    } else {
        (384, 3)
    }
}

/// Units every run completes.
const MIN_UNITS: usize = 2;

/// Set-up's product: the settled machines, indexed by transport address
/// (their `FullSim` slot), and the simulated time they were cloned at.
struct Settled {
    machines: Vec<NodeMachine>,
    now_us: u64,
}

impl Settled {
    /// Settles the population in a sim and clones it out.
    fn build(seed: u64, quick: bool) -> Settled {
        let scale = ChurnScale {
            nodes: sizes(quick).0,
            churn_s: 0,
            ..super::fullsim_churn::scale(quick)
        };
        let world = super::fullsim_churn::build(seed, &scale);
        let machines = (0..scale.nodes as u32)
            .map(|slot| {
                world
                    .sim
                    .machine(slot)
                    .expect("no churn during set-up")
                    .clone()
            })
            .collect();
        Settled {
            machines,
            now_us: world.sim.now().as_micros(),
        }
    }
}

/// One in this many datagrams is spanned in the traced run; at under
/// 2 µs a datagram, a span on every one would measure the clock. Prime,
/// and counted over the whole run, so the samples do not keep landing
/// on the same position of every multicast tree.
const SAMPLE: u32 = 67;

/// The datagram loop around the cloned machines.
struct Loop {
    /// Machines indexed by transport address (their `FullSim` slot).
    machines: Vec<NodeMachine>,
    queue: VecDeque<(usize, Vec<u8>)>,
    now_us: u64,
    datagrams: u64,
    delivered: u64,
    bytes: u64,
    decode_errors: u64,
    /// Last info each machine announced.
    last_info: Vec<Bytes>,
    rng: DetRng,
}

impl Loop {
    /// A fresh loop over clones of the settled machines.
    fn new(settled: &Settled, seed: u64) -> Loop {
        Loop {
            last_info: settled.machines.iter().map(|m| m.info().clone()).collect(),
            machines: settled.machines.clone(),
            queue: VecDeque::new(),
            now_us: settled.now_us,
            datagrams: 0,
            delivered: 0,
            bytes: 0,
            decode_errors: 0,
            rng: DetRng::for_stream(seed, 0x100F),
        }
    }

    /// Encodes and queues every `Output::Send` of machine `from`; timers
    /// and notifications are dropped (no timer fires in this workload).
    fn emit(&mut self, tr: &mut Tracer, from: usize, outs: Vec<Output>) {
        let (id, addr) = (self.machines[from].id(), self.machines[from].addr());
        for o in outs {
            if let Output::Send { to, msg, .. } = o {
                let sampled = tr.on() && self.datagrams.is_multiple_of(SAMPLE as u64);
                let frame = if sampled {
                    let s = tr.begin_weighted("transport.codec.encode", SAMPLE);
                    let f = codec::encode(id, addr, &msg);
                    tr.end(s);
                    f
                } else {
                    codec::encode(id, addr, &msg)
                };
                self.datagrams += 1;
                self.bytes += frame.len() as u64;
                self.queue.push_back((to.addr.0 as usize, frame));
            }
        }
    }

    /// Delivers queued datagrams until none is left.
    fn drain(&mut self, tr: &mut Tracer) {
        while let Some((to, frame)) = self.queue.pop_front() {
            self.delivered += 1;
            let sampled = tr.on() && self.delivered.is_multiple_of(SAMPLE as u64);
            let env = if sampled {
                let s = tr.begin_weighted("transport.codec.decode", SAMPLE);
                let e = codec::decode(&frame);
                tr.end(s);
                e
            } else {
                codec::decode(&frame)
            };
            let Ok(env) = env else {
                self.decode_errors += 1;
                continue;
            };
            let span = sampled.then(|| {
                tr.begin_weighted(
                    match env.msg {
                        Message::Multicast { .. } => "core.node.handle.multicast_msg",
                        Message::Report { .. } => "core.node.handle.report_msg",
                        _ => "core.node.handle.ack_msg",
                    },
                    SAMPLE,
                )
            });
            let outs = self.machines[to].handle(
                self.now_us,
                Input::Message {
                    from: env.from,
                    from_addr: env.from_addr,
                    msg: env.msg,
                },
            );
            if let Some(s) = span {
                tr.end(s);
            }
            self.emit(tr, to, outs);
        }
    }

    /// One round: every machine changes its info once, each multicast
    /// drained before the next command.
    fn round(&mut self, tr: &mut Tracer) {
        for i in 0..self.machines.len() {
            self.now_us += 1_000; // distinct origin stamps
            let info = Bytes::copy_from_slice(&self.rng.next_u64().to_le_bytes());
            self.last_info[i] = info.clone();
            let s = tr.begin("core.node.handle.change_info_cmd");
            let outs =
                self.machines[i].handle(self.now_us, Input::Command(Command::ChangeInfo(info)));
            tr.end(s);
            self.emit(tr, i, outs);
            self.drain(tr);
        }
    }

    /// How many pointers over all lists carry their peer's last announced
    /// info, and how many pointers there are.
    fn info_arrival(&self) -> (u64, u64) {
        let mut pairs = 0u64;
        let mut current = 0u64;
        for m in &self.machines {
            for p in m.peers().iter() {
                pairs += 1;
                current += (p.info == self.last_info[p.addr.0 as usize]) as u64;
            }
        }
        (current, pairs)
    }

    /// Bulk phase: every machine answers a whole-scope download from its
    /// ring neighbour; the reply goes through the codec and must decode
    /// to the message that was encoded. Returns (datagrams, mismatches).
    fn bulk(&mut self, tr: &mut Tracer) -> (u64, u64) {
        let n = self.machines.len();
        let mut frames = 0;
        let mut mismatches = 0;
        for i in 0..n {
            let asker = &self.machines[(i + 1) % n];
            let input = Input::Message {
                from: asker.id(),
                from_addr: asker.addr(),
                msg: Message::Download {
                    scope: self.machines[i].eigenstring(),
                },
            };
            let s = tr.begin("core.node.handle.download_msg");
            let outs = self.machines[i].handle(self.now_us, input);
            tr.end(s);
            let (id, addr) = (self.machines[i].id(), self.machines[i].addr());
            for o in outs {
                let Output::Send { msg, .. } = o else {
                    continue;
                };
                let s = tr.begin("transport.codec.encode.download_reply");
                let frame = codec::encode(id, addr, &msg);
                tr.end(s);
                let s = tr.begin("transport.codec.decode.download_reply");
                let env = codec::decode(&frame);
                tr.end(s);
                frames += 1;
                match env {
                    Ok(env) if env.from == id && same_reply_on_the_wire(&env.msg, &msg) => {}
                    Ok(_) => mismatches += 1,
                    Err(_) => self.decode_errors += 1,
                }
            }
        }
        (frames, mismatches)
    }
}

/// Whether a decoded download reply carries what was encoded. Refresh
/// stamps are local bookkeeping and never cross the wire.
fn same_reply_on_the_wire(got: &Message, sent: &Message) -> bool {
    let wire = |p: &Pointer| (p.id, p.addr, p.level, p.info.clone());
    match (got, sent) {
        (
            Message::DownloadReply {
                scope: gs,
                pointers: gp,
                tops: gt,
            },
            Message::DownloadReply {
                scope: ss,
                pointers: sp,
                tops: st,
            },
        ) => gs == ss && gt == st && gp.iter().map(wire).eq(sp.iter().map(wire)),
        _ => false,
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (settled, setup_s) = timed_setups(tr, |_| Settled::build(args.seed, args.quick));
    let rounds = sizes(args.quick).1;

    let mut rates = Rates::default();
    let mut traced_wall_ns = 0u64;
    let mut carried = Vec::new(); // (datagrams, bytes) per unit
    let mut datagrams = 0u64;
    let mut decode_errors = 0u64;
    let mut arrived = (0u64, 0u64); // (current pointers, pointers)
    let first_span = tr.len();
    let started = Instant::now();
    let mut last = None;
    while keep_going(started, args.seconds, rates.len(), MIN_UNITS) {
        let traced = alternate_tracing(tr, args.trace, rates.len());
        let mut lp = Loop::new(&settled, args.seed);
        let span = tr.begin("bench.node_loop.unit");
        let t = Instant::now();
        for _ in 0..rounds {
            lp.round(tr);
        }
        let wall = t.elapsed();
        tr.end(span);
        if traced {
            traced_wall_ns += wall.as_nanos() as u64;
        }
        rates.push(traced, lp.datagrams as f64 / wall.as_secs_f64());
        carried.push((lp.datagrams, lp.bytes));
        datagrams += lp.datagrams;
        decode_errors += lp.decode_errors;
        let (current, pairs) = lp.info_arrival();
        arrived = (arrived.0 + current, arrived.1 + pairs);
        last = Some(lp);
    }
    tr.set_on(args.trace);
    let loop_spans = first_span..tr.len();
    let mut lp = last.expect("at least MIN_UNITS units ran");
    let before_bulk = lp.decode_errors;
    let (bulk_frames, bulk_mismatches) = lp.bulk(tr);
    decode_errors += lp.decode_errors - before_bulk;

    out.attempted = datagrams + bulk_frames;
    out.check(
        "units_repeat_exactly",
        carried.iter().all(|c| *c == carried[0]),
        datagrams,
        format!(
            "{} units of {:?} (datagrams, bytes)",
            carried.len(),
            carried[0]
        ),
    );
    out.check(
        "no_decode_errors",
        decode_errors == 0,
        out.attempted,
        format!("{decode_errors} decode errors"),
    );
    out.check(
        "every_list_holds_every_last_info",
        arrived.0 == arrived.1 && arrived.1 > 0,
        datagrams,
        format!("{} of {} pointers current", arrived.0, arrived.1),
    );
    out.check(
        "download_replies_round_trip",
        bulk_mismatches == 0 && bulk_frames == lp.machines.len() as u64,
        bulk_frames,
        format!("{bulk_frames} replies, {bulk_mismatches} mismatches"),
    );
    out.set("throughput_per_s", rates.throughput());
    out.samples.push(("throughput_per_s", "1/s", rates.all()));
    out.set("setup_s", setup_s);
    out.set("list_accuracy", arrived.0 as f64 / arrived.1.max(1) as f64);
    out.digests = vec![
        ("unit_datagrams", carried[0].0.to_string()),
        ("unit_bytes", carried[0].1.to_string()),
    ];
    out.sizes = vec![
        ("nodes", lp.machines.len() as u64),
        ("rounds_per_unit", rounds as u64),
        ("units", carried.len() as u64),
    ];

    if args.trace {
        out.set(
            "transport.codec.encode_ns",
            mean_ns(tr, "transport.codec.encode"),
        );
        out.set(
            "transport.codec.decode_ns",
            mean_ns(tr, "transport.codec.decode"),
        );
        out.set(
            "transport.codec.encode_us.download_reply",
            mean_us(tr, "transport.codec.encode.download_reply"),
        );
        out.set(
            "transport.codec.decode_us.download_reply",
            mean_us(tr, "transport.codec.decode.download_reply"),
        );
        out.set(
            "transport.codec.bytes_per_datagram",
            carried[0].1 as f64 / carried[0].0.max(1) as f64,
        );
        out.set("transport.codec.decode_errors", decode_errors as f64);
        for (metric, span) in [
            (
                "core.node.handle_us.multicast_msg",
                "core.node.handle.multicast_msg",
            ),
            (
                "core.node.handle_us.download_msg",
                "core.node.handle.download_msg",
            ),
            (
                "core.node.handle_us.change_info_cmd",
                "core.node.handle.change_info_cmd",
            ),
        ] {
            out.set(metric, mean_us(tr, span));
        }
        multicast_probes(tr, &lp.machines, &mut out);
        out.set("bench.trace_overhead_pct", rates.trace_overhead_pct());
        out.set(
            "bench.span_coverage_pct",
            span_coverage_pct(tr, loop_spans, traced_wall_ns),
        );
    }
    out
}

/// `core.multicast.*` on the settled lists: the whole tree one event
/// needs, and one node's forwarding decision.
fn multicast_probes(tr: &mut Tracer, machines: &[NodeMachine], out: &mut Outcome) {
    let stride = (machines.len() / 32).max(1);
    for m in machines.iter().step_by(stride) {
        let Some(changing) = m.peers().iter().next().map(|p| p.id) else {
            continue;
        };
        let step = m.level().value();
        let s = tr.begin("core.multicast.plan_tree");
        let edges = plan_tree(m.peers(), m.id(), step, changing);
        tr.end(s);
        let s = tr.begin("core.multicast.forward_steps");
        let fw = forward_steps(m.peers(), m.id(), step, changing);
        tr.end(s);
        std::hint::black_box((edges.len(), fw.len()));
    }
    out.set(
        "core.multicast.plan_tree_us",
        mean_us(tr, "core.multicast.plan_tree"),
    );
    out.set(
        "core.multicast.forward_steps_us",
        mean_us(tr, "core.multicast.forward_steps"),
    );
}
