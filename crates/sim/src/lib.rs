//! # peerwindow-sim
//!
//! Large-scale PeerWindow simulation, reproducing the paper's §5
//! experiments:
//!
//! * [`full`] — **full fidelity**: every node runs the real
//!   `peerwindow_core::node::NodeMachine` over the discrete-event engine;
//!   used for protocol validation and small-system studies. A synchronous
//!   front over a one-shard [`parallel_full`] run.
//! * [`oracle`] — **oracle mode**: the paper's own memory trick (§5 ¶3) —
//!   one ground-truth directory stands in for all correct peer lists, so
//!   100,000-node runs fit in one machine's memory; multicast trees are
//!   planned per event and accounted analytically.
//! * [`parallel_full`] — the full-fidelity harness on the *parallel*
//!   engine: shards of real machines under barrier-synchronised windows.
//! * `world` ([`World`], [`Event`]) — the protocol step each shard
//!   runs, and the model checker's `McNet` steps too: the machines, the
//!   one simulated interpreter of `Output`, the latency → fault-verdict
//!   send path, trace draining and snapshot publication. The executor
//!   only orders events.
//! * [`directory`] — the oracle's membership structure, whose kept trie
//!   plans each event's multicast tree; [`plan`] — the per-event planner
//!   over an extracted audience, the reference that trie is tested
//!   against.
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
pub use report::{LevelRow, OracleReport};
pub use world::{Event, World};
