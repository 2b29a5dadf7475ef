//! Sim-time structured tracing for PeerWindow.
//!
//! The paper validates PeerWindow by *measuring* it (§4: bandwidth per
//! event class, multicast coverage, failure-detection delay); this crate
//! is the measurement substrate for our reproduction. It records typed
//! protocol events — join steps, multicast tree hops with parent→child
//! edges, probe rounds, obituaries and refutations, level shifts, and
//! every message send/receive with its wire class and size — keyed by
//! **simulation time** (the virtual clock of `peerwindow-des`), never by
//! `std::time`.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** A [`TraceRecord`] carries `(at_us, node, seq)`
//!    where `seq` is a per-node emission counter, so the canonical sort
//!    ([`canonical_sort`]) is a total order independent of which
//!    `ParallelEngine` shard buffered the record. 1-shard and 4-shard
//!    runs of the same scenario emit byte-identical logs (asserted by the
//!    workspace determinism tests), extending the PR 2 contract.
//! 2. **Allocation-light.** [`TraceEventKind`] is `Copy` (node ids are
//!    raw `u128`s, no strings, no boxing); a [`NodeTrace`] sink is a
//!    plain `Vec` push behind an `enabled` branch. The whole crate is
//!    dependency-free so `peerwindow-core` can carry it behind a
//!    default-off `trace` feature without widening its closure.
//! 3. **Reconstructable.** Every record carries a [`CauseId`] — the
//!    `(subject, seq)` key of the `StateEvent` that caused it — so a
//!    multicast can be reassembled into its dissemination tree after the
//!    fact ([`query::reconstruct_tree`]) and compared against the §4.2
//!    planner's prediction.
//!
//! Exporters: newline-delimited JSON ([`jsonl`]), Chrome `trace_event`
//! JSON for chrome://tracing ([`chrome`]) — both round-trip (parse-back
//! equals emitted, asserted by tests) — and a per-message-class
//! bandwidth aggregation ([`query::bandwidth_by_class`]) matching the
//! paper's §4 figures. The [`CounterRegistry`] is the metrics half:
//! named counters/gauges sampled on a sim-time tick and rendered through
//! `peerwindow-metrics` tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod jsonl;
pub mod query;
mod record;
mod registry;
mod sink;

pub use query::{bandwidth_by_class, reconstruct_tree, BandwidthRow, Filter, McastTree};
pub use record::{
    CauseId, DiagCode, EventClass, FaultClass, JoinPhase, MsgClass, TraceEventKind, TraceRecord,
};
pub use registry::{CounterRegistry, SampleSeries};
pub use sink::{canonical_sort, NodeTrace};

/// Errors from the JSONL / Chrome parsers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, for humans.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}
