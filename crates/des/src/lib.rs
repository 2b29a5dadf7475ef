//! # peerwindow-des
//!
//! Deterministic discrete-event simulation, substituting for the paper's
//! ONSP platform ([17]: a parallel overlay-network simulator using MPI on
//! a 16-server cluster).
//!
//! * [`engine`] — the sequential engine: a single totally-ordered event
//!   queue; bit-deterministic.
//! * [`sched`] — the event queue both engines run on: a binary heap
//!   ordered by `(time, FIFO insertion sequence)`.
//! * [`parallel`] — the conservative sharded engine: actors partitioned
//!   across shards via a pluggable [`ShardMap`], lookahead windows
//!   sequenced by a spin barrier over a persistent worker pool, batched
//!   cross-shard handoff through a mailbox matrix (standing in for
//!   ONSP's MPI ranks).
//! * [`emetrics`] — compile-time selection of the engines' runtime-metrics
//!   sink (`runtime-metrics` feature): the real `ShardSlot` when on, a
//!   Noop ZST when off, so default builds carry no metrics code at all.
//! * [`time`] — µs-resolution simulated time.
//! * [`rng`] — deterministic per-stream random numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod emetrics;
pub mod engine;
pub mod parallel;
pub mod rng;
pub mod sched;
pub mod time;

pub use emetrics::{runtime_metrics_active, EngineMetrics};
pub use engine::{Engine, EngineStats, Scheduler, Simulation};
pub use parallel::{ModuloShardMap, Outbox, ParallelEngine, ShardLogic, ShardMap};
pub use rng::DetRng;
pub use sched::EventQueue;
pub use time::SimTime;
