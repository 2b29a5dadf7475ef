//! # peerwindow-des
//!
//! Deterministic discrete-event simulation, substituting for the paper's
//! ONSP platform (\[17\]: a parallel overlay-network simulator using MPI on
//! a 16-server cluster).
//!
//! * [`engine`] — the sequential engine: a single totally-ordered event
//!   queue; bit-deterministic.
//! * [`sched`] — the event queue both engines run on: a binary heap
//!   ordered by `(time, FIFO insertion sequence)`.
//! * [`parallel`] — the conservative sharded engine: actor `a` on shard
//!   `a % shards`, one window loop that a lone worker runs on the calling
//!   thread and a pool of scoped threads runs in lockstep through a spin
//!   barrier, batched cross-shard handoff that goes through a mailbox
//!   matrix only between workers (standing in for ONSP's MPI ranks).
//! * [`time`] — µs-resolution simulated time.
//! * [`rng`] — deterministic per-stream random numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod parallel;
pub mod rng;
pub mod sched;
pub mod time;

pub use engine::{Engine, EngineStats, Scheduler, Simulation};
pub use parallel::{ModuloShardMap, Outbox, ParallelEngine, ShardLogic};
pub use rng::DetRng;
pub use sched::EventQueue;
pub use time::SimTime;
