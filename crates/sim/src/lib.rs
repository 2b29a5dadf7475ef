//! # peerwindow-sim
//!
//! Large-scale PeerWindow simulation, reproducing the paper's §5
//! experiments:
//!
//! * [`full`] — **full fidelity**: every node runs the real
//!   `peerwindow_core::node::NodeMachine` over the discrete-event engine;
//!   used for protocol validation and small-system studies.
//! * [`oracle`] — **oracle mode**: the paper's own memory trick (§5 ¶3) —
//!   one ground-truth directory stands in for all correct peer lists, so
//!   100,000-node runs fit in one machine's memory; multicast trees are
//!   planned per event and accounted analytically.
//! * [`parallel_full`] — full fidelity on the *parallel* engine: shards
//!   of real machines under barrier-synchronised windows.
//! * `world` (private) — the one protocol step both full-fidelity
//!   harnesses drive: the machines, the crate's only interpreter of
//!   `Output`, the latency → fault-verdict send path, trace draining and
//!   snapshot publication. The engines only order events.
//! * [`directory`], [`plan`] — the oracle's membership structure and tree
//!   planner.
//! * [`report`] — per-level result rows (the columns of figures 5–8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod directory;
pub mod full;
pub mod oracle;
pub mod parallel_full;
pub mod plan;
pub mod report;
mod snaphub;
mod world;

pub use directory::Directory;
pub use full::{FullLog, FullSim};
pub use oracle::{run_oracle, NetworkConfig, OracleConfig};
pub use parallel_full::ParallelFullSim;
pub use peerwindow_des::runtime_metrics_active;
pub use report::{LevelRow, OracleReport};
