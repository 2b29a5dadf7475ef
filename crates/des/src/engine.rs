//! Sequential discrete-event engine.
//!
//! A deterministic event loop: events are totally ordered by
//! `(timestamp, insertion sequence)`, so two runs with the same inputs
//! produce bit-identical traces. The engine is generic over the
//! simulation's event type; the simulation schedules follow-up events
//! through the [`Scheduler`] handed to its handler.
//!
//! The pending-event queue is the [`EventQueue`] binary heap of
//! [`crate::sched`].

use crate::sched::EventQueue;
use crate::time::SimTime;

/// A simulation driven by the engine.
pub trait Simulation {
    /// The event payload.
    type Event;

    /// Handles one event at time `now`, scheduling follow-ups via `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Scheduling interface passed to [`Simulation::handle`].
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Scheduler<'_, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay_us` from now.
    #[inline]
    pub fn schedule(&mut self, delay_us: u64, event: E) {
        self.schedule_at(self.now + delay_us, event);
    }

    /// Schedules `event` at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at.max(self.now), event);
    }
}

/// Engine run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed so far.
    pub processed: u64,
    /// High-water mark of the pending-event queue.
    pub max_queue: usize,
}

/// The sequential discrete-event engine.
pub struct Engine<S: Simulation> {
    sim: S,
    now: SimTime,
    queue: EventQueue<S::Event>,
    stats: EngineStats,
}

impl<S: Simulation> Engine<S> {
    /// Wraps a simulation with an empty event queue at time zero.
    pub fn new(sim: S) -> Self {
        Engine {
            sim,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            stats: EngineStats::default(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation state.
    #[inline]
    pub fn sim(&self) -> &S {
        &self.sim
    }

    /// Mutable simulation state (for setup between runs).
    #[inline]
    pub fn sim_mut(&mut self) -> &mut S {
        &mut self.sim
    }

    /// Consumes the engine, returning the simulation.
    pub fn into_sim(self) -> S {
        self.sim
    }

    /// Engine statistics.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event `delay_us` after the current time (setup or
    /// external stimulus).
    pub fn schedule(&mut self, delay_us: u64, event: S::Event) {
        self.schedule_at(self.now + delay_us, event);
    }

    /// Schedules an event at an absolute time.
    pub fn schedule_at(&mut self, at: SimTime, event: S::Event) {
        self.queue.schedule(at.max(self.now), event);
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
    }

    fn dispatch(&mut self, at: SimTime, event: S::Event) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.processed += 1;
        let mut sched = Scheduler {
            now: at,
            queue: &mut self.queue,
        };
        self.sim.handle(at, event, &mut sched);
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, event);
        true
    }

    /// Runs until the queue is empty or the next event is after `until`.
    /// The clock is left at `min(until, time of last processed event)`…
    /// more precisely it advances to `until` when the simulation outlives
    /// the bound, so periodic sampling of `now()` is monotone.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((at, event)) = self.queue.pop_until(until) {
            self.dispatch(at, event);
        }
        self.now = self.now.max(until);
    }

    /// Runs until the event queue drains completely.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts events and records the order they arrive in.
    struct Recorder {
        log: Vec<(u64, u32)>,
        respawn: bool,
    }

    impl Simulation for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<'_, u32>) {
            self.log.push((now.as_micros(), event));
            if self.respawn && event < 10 {
                sched.schedule(100, event + 1);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let mut e = Engine::new(Recorder {
            log: vec![],
            respawn: false,
        });
        e.schedule_at(SimTime(50), 1);
        e.schedule_at(SimTime(10), 2);
        e.schedule_at(SimTime(50), 3); // same time as 1, inserted later
        e.schedule_at(SimTime(20), 4);
        e.run_to_completion();
        assert_eq!(
            e.sim().log,
            vec![(10, 2), (20, 4), (50, 1), (50, 3)],
            "ties must preserve insertion order"
        );
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = Engine::new(Recorder {
            log: vec![],
            respawn: true,
        });
        e.schedule_at(SimTime(0), 0);
        e.run_to_completion();
        assert_eq!(e.sim().log.len(), 11);
        assert_eq!(e.sim().log.last(), Some(&(1000, 10)));
        assert_eq!(e.stats().processed, 11);
    }

    #[test]
    fn run_until_stops_at_bound_and_advances_clock() {
        let mut e = Engine::new(Recorder {
            log: vec![],
            respawn: true,
        });
        e.schedule_at(SimTime(0), 0);
        e.run_until(SimTime(450));
        assert_eq!(e.sim().log.len(), 5); // t = 0,100,200,300,400
        assert_eq!(e.now(), SimTime(450));
        e.run_until(SimTime(2_000));
        assert_eq!(e.sim().log.len(), 11);
        assert_eq!(e.now(), SimTime(2_000));
    }

    #[test]
    fn schedule_in_past_is_clamped() {
        let mut e = Engine::new(Recorder {
            log: vec![],
            respawn: false,
        });
        e.schedule_at(SimTime(100), 1);
        e.run_until(SimTime(100));
        e.schedule_at(SimTime(10), 2); // in the past
        e.run_to_completion();
        assert_eq!(e.sim().log, vec![(100, 1), (100, 2)]);
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let mut e = Engine::new(Recorder {
                log: vec![],
                respawn: true,
            });
            for i in 0..5 {
                e.schedule_at(SimTime(i * 7), i as u32);
            }
            e.run_to_completion();
            e.into_sim().log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_track_queue_high_water() {
        let mut e = Engine::new(Recorder {
            log: vec![],
            respawn: false,
        });
        for i in 0..100 {
            e.schedule_at(SimTime(i), i as u32);
        }
        assert_eq!(e.stats().max_queue, 100);
        e.run_to_completion();
        assert_eq!(e.stats().processed, 100);
    }
}
