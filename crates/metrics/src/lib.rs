//! # peerwindow-metrics
//!
//! Statistics and reporting utilities shared by the PeerWindow simulator,
//! baselines, and the figure-reproduction harness: a streaming
//! mean/min/max accumulator, a log-bucketed histogram, terminal plots,
//! and markdown/CSV tables (one of them over the trace layer's
//! per-class bandwidth rows).
//!
//! The [`runtime`] module is the wall-clock side: the
//! [`runtime::ShardSlot`] the engines record into (off until enabled at
//! run time), merged run reports, and their JSONL/Prometheus exports.
//! The JSONL is read back through `peerwindow_trace::json`, the one JSON
//! parser of the workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod histogram;
pub mod plot;
pub mod runtime;
pub mod stream;
pub mod table;

pub use histogram::LogHistogram;
pub use plot::{bar_chart, scatter};
pub use stream::StreamingStat;
pub use table::{bandwidth_table, fmt_f64, Table};
