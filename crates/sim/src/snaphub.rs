//! Snapshot publication hub of the full-fidelity harness.
//!
//! [`crate::ParallelFullSim`] (and so [`crate::FullSim`]) can mirror each
//! machine's peer list into a lock-free
//! [`peerwindow_core::snapshot::Published`] cell after every handled
//! event. The hub owns one [`SnapshotPublisher`] per slot/actor, all
//! registered in a single [`SnapshotDirectory`] so observers (query
//! engines, tests) resolve readers by actor id without touching the
//! simulation.
//!
//! Publication is **pure observation**: generation gating means a publish
//! only happens when a machine's peer list actually changed, and nothing
//! in the machine or the event order is affected — the simulation
//! fingerprint is byte-identical with snapshots on or off (asserted by
//! the `query_consistency` workspace tests at 1 and 4 shards).

use std::sync::Arc;

use peerwindow_core::prelude::*;

/// One publisher per slot, all under one directory.
///
/// Publishers live in a slot-indexed vector, not a map: `publish` runs
/// once per handled event on the engine hot path, and the common
/// nothing-changed case must cost an index plus one integer compare —
/// a map lookup per event is measurable at millions of events/second.
pub(crate) struct SnapshotHub {
    dir: Arc<SnapshotDirectory>,
    publishers: Vec<Option<SnapshotPublisher>>,
    /// Total snapshots actually published (generation-gated).
    published: u64,
}

/// Publishers write to a directory that readers share, so a copy would
/// publish over the original: a world that publishes is never cloned.
impl Clone for SnapshotHub {
    fn clone(&self) -> Self {
        panic!("a world that publishes snapshots cannot be cloned")
    }
}

impl SnapshotHub {
    /// A hub publishing into `dir` — the worlds of a sharded run each
    /// own a hub but share one directory.
    pub fn new(dir: Arc<SnapshotDirectory>) -> Self {
        SnapshotHub {
            dir,
            publishers: Vec::new(),
            published: 0,
        }
    }

    /// The shared directory handle.
    pub fn directory(&self) -> Arc<SnapshotDirectory> {
        Arc::clone(&self.dir)
    }

    /// Publishes `slot`'s current peer list if its generation moved since
    /// the last publish. Registers the slot on first sight.
    pub fn publish(&mut self, slot: u32, m: &NodeMachine, now_us: u64) -> bool {
        let i = slot as usize;
        if i >= self.publishers.len() {
            self.publishers.resize_with(i + 1, || None);
        }
        let p = self.publishers[i].get_or_insert_with(|| self.dir.register(slot));
        let did = p.maybe_publish(m, now_us);
        if did {
            self.published += 1;
        }
        did
    }

    /// A reader for `slot`'s cell, if that slot ever published.
    pub fn reader(&self, slot: u32) -> Option<SnapshotReader> {
        self.dir.reader(slot)
    }

    /// Snapshots published through this hub so far.
    pub fn published(&self) -> u64 {
        self.published
    }
}
