//! Per-node record sinks and the deterministic merge.
//!
//! Each `NodeMachine` owns one [`NodeTrace`]; each embedder (the
//! sequential `FullSim` world, or one `ParallelEngine` shard) drains
//! machine buffers into its own `Vec<TraceRecord>` after every handled
//! event. No locks anywhere: a shard's buffer is only ever touched by the
//! thread running that shard — lock-free by construction. At collection
//! time the per-shard buffers are concatenated and [`canonical_sort`]ed;
//! because the sort key `(at_us, node, seq)` is unique per record and a
//! pure function of the protocol run (never of shard placement), 1-shard
//! and 4-shard runs emit byte-identical logs.

use crate::record::{CauseId, TraceEventKind, TraceRecord};

/// A single node's trace buffer: an enabled flag, the per-node emission
/// counter, and the pending records. Cheap when disabled (one branch per
/// would-be record); embedders drain it after every handled input so the
/// buffer stays small.
#[derive(Clone, Debug, Default)]
pub struct NodeTrace {
    node: u128,
    enabled: bool,
    now_us: u64,
    seq: u64,
    buf: Vec<TraceRecord>,
}

impl NodeTrace {
    /// Creates a disabled sink for `node` (raw id).
    pub fn new(node: u128) -> Self {
        NodeTrace {
            node,
            enabled: false,
            now_us: 0,
            seq: 0,
            buf: Vec::new(),
        }
    }

    /// Turns recording on or off. Disabling does not clear the buffer.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether records are currently captured. Emission sites check this
    /// before building a [`TraceEventKind`], so a disabled sink costs one
    /// predictable branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the simulation time stamped onto subsequent records. Called
    /// once at the top of the machine's `handle`.
    #[inline]
    pub fn set_now(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Appends a record at the current time. `level` is the node's level
    /// at emission (it can change mid-handle, so the caller passes it).
    pub fn emit(&mut self, level: u8, kind: TraceEventKind, cause: CauseId) {
        let seq = self.seq;
        self.seq += 1;
        self.buf.push(TraceRecord {
            at_us: self.now_us,
            node: self.node,
            seq,
            level,
            cause,
            kind,
        });
    }

    /// Moves all buffered records into `out`, preserving order. The
    /// emission counter keeps counting across drains, so `(node, seq)`
    /// stays unique for the whole run.
    pub fn drain_into(&mut self, out: &mut Vec<TraceRecord>) {
        out.append(&mut self.buf);
    }

    /// Whether any records are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sorts records into the canonical log order `(at_us, node, seq)`.
///
/// The key is unique — `seq` is a per-node counter — and depends only on
/// the protocol run, so any interleaving of per-shard buffers sorts to
/// the same sequence. This is what makes the merged log a determinism
/// witness: diffing two canonical logs localises a divergence to the
/// first differing record.
pub fn canonical_sort(records: &mut [TraceRecord]) {
    records.sort_unstable_by_key(|r| (r.at_us, r.node, r.seq));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MsgClass;

    fn rec(t: &mut NodeTrace, at: u64, bits: u64) {
        t.set_now(at);
        t.emit(
            0,
            TraceEventKind::MsgSend {
                to: 9,
                class: MsgClass::Probe,
                bits,
            },
            CauseId::NONE,
        );
    }

    #[test]
    fn seq_counts_across_drains() {
        let mut t = NodeTrace::new(7);
        t.set_enabled(true);
        rec(&mut t, 10, 1);
        rec(&mut t, 20, 2);
        let mut out = Vec::new();
        t.drain_into(&mut out);
        rec(&mut t, 30, 3);
        t.drain_into(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "emission counter must survive drains"
        );
        assert!(t.is_empty());
    }

    #[test]
    fn canonical_sort_is_shard_interleaving_invariant() {
        // Two "shards" buffer the same records in different interleavings.
        let mut a = NodeTrace::new(1);
        let mut b = NodeTrace::new(2);
        a.set_enabled(true);
        b.set_enabled(true);
        rec(&mut a, 10, 1);
        rec(&mut b, 10, 2);
        rec(&mut a, 20, 3);
        rec(&mut b, 15, 4);

        let mut order1 = Vec::new();
        a.clone().drain_into(&mut order1);
        b.clone().drain_into(&mut order1);
        let mut order2 = Vec::new();
        b.drain_into(&mut order2);
        a.drain_into(&mut order2);

        canonical_sort(&mut order1);
        canonical_sort(&mut order2);
        assert_eq!(order1, order2);
        assert_eq!(
            order1.iter().map(|r| (r.at_us, r.node)).collect::<Vec<_>>(),
            vec![(10, 1), (10, 2), (15, 2), (20, 1)]
        );
    }
}
