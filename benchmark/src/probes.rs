//! Layer probes of the traced run: fixed, small inputs pushed through one
//! public call at a time, for the layers whose calls the sims make from
//! inside `run_for` where no bench-side span can reach.

use crate::span::Tracer;
use crate::workloads::Outcome;
use peerwindow_core::prelude::*;
use peerwindow_des::{
    Engine, ModuloShardMap, Outbox, ParallelEngine, Scheduler, ShardLogic, SimTime, Simulation,
};
use std::hint::black_box;
use std::time::Instant;

/// Mean span duration of `name` in µs (0 when the span never ran).
pub fn mean_us(tr: &Tracer, name: &str) -> f64 {
    tr.stats().get(name).map_or(0.0, |s| s.mean_ns() / 1e3)
}

/// Mean span duration of `name` in ns (0 when the span never ran).
pub fn mean_ns(tr: &Tracer, name: &str) -> f64 {
    tr.stats().get(name).map_or(0.0, |s| s.mean_ns())
}

/// Times `iters` calls of `f` as one block and returns ns per call.
/// Sub-microsecond calls are timed in blocks: a span per call would
/// measure the clock.
pub fn block_ns(tr: &mut Tracer, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let span = tr.begin_weighted(name, 1);
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    let ns = t.elapsed().as_nanos() as f64 / iters.max(1) as f64;
    tr.end(span);
    ns
}

/// Machines probed per input class.
const HANDLE_SAMPLE: usize = 64;

/// `core.node.handle_us.*` for the inputs only a simulation delivers —
/// the four periodic timers and a ring probe — on clones of settled
/// machines, plus the clone itself and the outputs each input caused.
pub fn node_handle(tr: &mut Tracer, machines: &[NodeMachine], now_us: u64, out: &mut Outcome) {
    let stride = (machines.len() / HANDLE_SAMPLE).max(1);
    let sample: Vec<&NodeMachine> = machines.iter().step_by(stride).collect();
    let mut inputs = 0u64;
    let mut outputs = 0u64;
    let mut probe =
        |tr: &mut Tracer, name: &'static str, input: &dyn Fn(&NodeMachine) -> Option<Input>| {
            for m in &sample {
                let Some(input) = input(m) else { continue };
                let c = tr.begin("core.node.clone");
                let mut m = (*m).clone();
                tr.end(c);
                let s = tr.begin(name);
                let outs = m.handle(now_us, input);
                tr.end(s);
                inputs += 1;
                outputs += black_box(outs).len() as u64;
            }
        };
    for (span, timer) in [
        ("core.node.handle.probe_timer", Timer::Probe),
        ("core.node.handle.adapt_timer", Timer::Adapt),
        ("core.node.handle.refresh_timer", Timer::Refresh),
        ("core.node.handle.expire_timer", Timer::Expire),
    ] {
        probe(tr, span, &|_| Some(Input::Timer(timer)));
    }
    probe(tr, "core.node.handle.probe_msg", &|m| {
        let from = m.peers().iter().next()?;
        Some(Input::Message {
            from: from.id,
            from_addr: from.addr,
            msg: Message::Probe,
        })
    });
    for (metric, span) in [
        (
            "core.node.handle_us.probe_timer",
            "core.node.handle.probe_timer",
        ),
        (
            "core.node.handle_us.adapt_timer",
            "core.node.handle.adapt_timer",
        ),
        (
            "core.node.handle_us.refresh_timer",
            "core.node.handle.refresh_timer",
        ),
        (
            "core.node.handle_us.expire_timer",
            "core.node.handle.expire_timer",
        ),
        (
            "core.node.handle_us.probe_msg",
            "core.node.handle.probe_msg",
        ),
        ("core.node.clone_us", "core.node.clone"),
    ] {
        out.set(metric, mean_us(tr, span));
    }
    out.set(
        "core.node.outputs_per_input",
        outputs as f64 / inputs.max(1) as f64,
    );
}

/// Per-actor timer period of the resident-timer shape: spread over
/// [500, 10 500) µs so pops interleave actors and the queue order churns.
fn period_us(actor: u32) -> u64 {
    500 + (actor as u64).wrapping_mul(7919) % 10_000
}

/// `resident` periodic timers held for the whole run: the queue shape of
/// a protocol run, where every node holds probe and refresh timers.
struct ResidentTimers {
    left: u64,
}

impl Simulation for ResidentTimers {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, actor: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(period_us(actor), actor);
        }
    }
}

/// One self-perpetuating event: queue depth 1.
struct Ping {
    left: u64,
}

impl Simulation for Ping {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule(100, ev.wrapping_add(1));
        }
    }
}

/// `des.sched.*`: the two `perfbaseline` sequential shapes on the default
/// scheduler.
pub fn des_sched(tr: &mut Tracer, quick: bool, out: &mut Outcome) {
    let events: u64 = if quick { 50_000 } else { 400_000 };
    let resident: u32 = if quick { 5_000 } else { 40_000 };

    let mut e = Engine::new(ResidentTimers { left: events });
    for a in 0..resident {
        e.schedule(period_us(a), a);
    }
    let s = tr.begin("des.sched.resident");
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    tr.end(s);
    out.set(
        "des.sched.resident_events_per_s",
        e.stats().processed as f64 / secs,
    );

    let mut e = Engine::new(Ping { left: events });
    e.schedule(0, 1);
    let s = tr.begin("des.sched.ping");
    let t = Instant::now();
    e.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    tr.end(s);
    out.set(
        "des.sched.ping_events_per_s",
        e.stats().processed as f64 / secs,
    );
}

/// The `perfbaseline` fanout shape: each event fans out to two
/// pseudo-random actors until its hop budget runs out.
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
    fn fingerprint(&self) -> u64 {
        self.count
    }
}

/// Worker threads the parallel workload and its probes use.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2)
}

/// `des.parallel.fanout_events_per_s.shards{1,2}` on the bare engine.
pub fn des_parallel(tr: &mut Tracer, quick: bool, out: &mut Outcome) {
    let hops = if quick { 10 } else { 13 };
    for (shards, metric, span) in [
        (
            1usize,
            "des.parallel.fanout_events_per_s.shards1",
            "des.parallel.fanout.shards1",
        ),
        (
            2,
            "des.parallel.fanout_events_per_s.shards2",
            "des.parallel.fanout.shards2",
        ),
    ] {
        let logics: Vec<Fanout> = (0..shards)
            .map(|_| Fanout {
                actors: 256,
                count: 0,
            })
            .collect();
        let mut e = ParallelEngine::with_map(logics, 1_000, ModuloShardMap);
        e.set_workers(workers());
        for i in 0..8 {
            e.schedule(SimTime(0), i, hops);
        }
        let s = tr.begin(span);
        let t = Instant::now();
        e.run_until(SimTime::from_secs(600));
        let secs = t.elapsed().as_secs_f64();
        tr.end(s);
        out.set(metric, e.processed() as f64 / secs);
    }
}

/// `core.id.prefix_ops_ns`: one prefix extraction, one containment test
/// and one common-prefix length per iteration.
pub fn id_ops(tr: &mut Tracer, seed: u64, out: &mut Outcome) {
    let mut rng = peerwindow_des::DetRng::for_stream(seed, 0x1D);
    let ids: Vec<NodeId> = (0..1024).map(|_| NodeId(rng.next_u128())).collect();
    let mut sink = 0u64;
    let ns = block_ns(tr, "core.id.prefix_ops", 300_000, |i| {
        let a = ids[i as usize % 1024];
        let b = ids[(i as usize * 7 + 1) % 1024];
        let p = a.prefix((i % 24) as u8);
        sink += p.contains(b) as u64 + a.common_prefix_len(b) as u64;
    });
    black_box(sink);
    out.set("core.id.prefix_ops_ns", ns / 3.0);
}
