//! Compile-time selection of the engines' runtime-metrics sink.
//!
//! The engines record wall-clock runtime metrics (barrier waits, handoff
//! volume, window shapes — see `peerwindow_metrics::runtime`) through the
//! [`MetricsSink`](peerwindow_metrics::runtime::MetricsSink) trait. This
//! module picks the implementation at compile time: the real cache-line-
//! padded `ShardSlot` under the `runtime-metrics` feature, the `NoopMetrics`
//! ZST otherwise — so a default build carries no metrics state, branches,
//! or wall-clock reads at all, as a build without `peerwindow-core`'s
//! `trace` feature carries no trace code.
//!
//! Report types (`RunReport`) are unconditional: callers can always ask
//! for a report; compiled out it is simply empty.

/// The engine's metrics sink: `ShardSlot` with `runtime-metrics`, the
/// `NoopMetrics` ZST without.
#[cfg(feature = "runtime-metrics")]
pub use peerwindow_metrics::runtime::ShardSlot as EngineMetrics;

/// The engine's metrics sink: `ShardSlot` with `runtime-metrics`, the
/// `NoopMetrics` ZST without.
#[cfg(not(feature = "runtime-metrics"))]
pub use peerwindow_metrics::runtime::NoopMetrics as EngineMetrics;

/// Whether the `runtime-metrics` feature is compiled into this build
/// (i.e. whether enabling metrics on an engine can record anything).
pub fn runtime_metrics_active() -> bool {
    cfg!(feature = "runtime-metrics")
}
