//! # peerwindow-transport
//!
//! Runs the sans-IO PeerWindow node over real UDP sockets: a versioned
//! binary wire [`codec`], a single-threaded [`runtime`] that drives
//! one `NodeMachine` per node over one due-queue (timers, delayed sends,
//! delayed and retried frames) with an application control channel, and
//! a userspace netem [`shim`] that judges real datagrams by the sims'
//! seeded fault plans. The `pwnode` binary is a ready-to-run node for
//! ad-hoc deployments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod runtime;
pub mod shim;

pub use codec::{decode, encode, CodecError, Envelope};
pub use runtime::{
    spawn_node, Control, NodeHandle, RuntimeConfig, RuntimeStats, RuntimeStatsSnapshot, Snapshot,
    SpawnError,
};
pub use shim::ShimSpec;
