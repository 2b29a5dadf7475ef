//! Offline queries over a trace: filtering, multicast-tree
//! reconstruction, log diffing, and per-class bandwidth accounting.
//!
//! Everything here operates on a plain `&[TraceRecord]` slice — typically
//! a canonical log loaded back from JSONL — and powers `pw trace`.

use crate::record::{CauseId, MsgClass, TraceEventKind, TraceRecord};

/// The class name carried by a record, when it has one: the event class
/// of multicast records, or the message class of send/receive records.
fn class_name(kind: &TraceEventKind) -> Option<&'static str> {
    match kind {
        TraceEventKind::McastRoot { class, .. }
        | TraceEventKind::McastHop { class, .. }
        | TraceEventKind::McastRedirect { class, .. } => Some(class.name()),
        TraceEventKind::MsgSend { class, .. } | TraceEventKind::MsgRecv { class, .. } => {
            Some(class.name())
        }
        _ => None,
    }
}

/// A conjunctive record filter. `None` fields match everything; `class`
/// matches both event classes (`"join"`, `"leave"`, …) and message
/// classes (`"probe"`, `"multicast"`, …).
#[derive(Clone, Debug, Default)]
pub struct Filter {
    /// Keep records emitted by this node (raw id).
    pub node: Option<u128>,
    /// Keep records at or after this time.
    pub from_us: Option<u64>,
    /// Keep records strictly before this time.
    pub to_us: Option<u64>,
    /// Keep records of this kind (wire name, e.g. `"mcast_hop"`).
    pub kind: Option<String>,
    /// Keep records carrying this class name.
    pub class: Option<String>,
    /// Keep records of this causal flow.
    pub cause: Option<CauseId>,
}

impl Filter {
    /// Whether `r` passes every set criterion.
    pub fn matches(&self, r: &TraceRecord) -> bool {
        if let Some(node) = self.node {
            if r.node != node {
                return false;
            }
        }
        if let Some(from) = self.from_us {
            if r.at_us < from {
                return false;
            }
        }
        if let Some(to) = self.to_us {
            if r.at_us >= to {
                return false;
            }
        }
        if let Some(kind) = &self.kind {
            if r.kind.name() != kind {
                return false;
            }
        }
        if let Some(class) = &self.class {
            if class_name(&r.kind) != Some(class.as_str()) {
                return false;
            }
        }
        if let Some(cause) = self.cause {
            if r.cause != cause {
                return false;
            }
        }
        true
    }
}

/// Returns the records passing `f`, in input order.
pub fn filter(records: &[TraceRecord], f: &Filter) -> Vec<TraceRecord> {
    records.iter().filter(|r| f.matches(r)).copied().collect()
}

/// One reconstructed tree edge: `parent` forwarded the event to `child`,
/// handing over a range of length `step`, at time `at_us`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TreeHop {
    /// Sender (raw node id).
    pub parent: u128,
    /// Receiver (raw node id).
    pub child: u128,
    /// Range length handed over.
    pub step: u8,
    /// Send time.
    pub at_us: u64,
}

/// A multicast tree reassembled from the `mcast_*` records of one cause.
#[derive(Clone, Debug, Default)]
pub struct McastTree {
    /// The causal flow this tree belongs to.
    pub cause: CauseId,
    /// The root (the node that emitted `mcast_root`), when recorded.
    pub root: Option<u128>,
    /// Edges, in record order.
    pub hops: Vec<TreeHop>,
    /// Redirects observed (`mcast_redirect` records) for this cause.
    pub redirects: usize,
}

impl McastTree {
    /// Distinct receivers — matches `TreeStats::receivers` when delivery
    /// was exactly-once.
    pub fn receivers(&self) -> usize {
        let mut children: Vec<u128> = self.hops.iter().map(|h| h.child).collect();
        children.sort_unstable();
        children.dedup();
        children.len()
    }

    /// Maximum hop count from the root (root's children are depth 1).
    /// Hops are recorded at send time, so a parent's edge always precedes
    /// its children's edges; one pass in record order suffices.
    pub fn max_depth(&self) -> u32 {
        let Some(root) = self.root else { return 0 };
        let mut depth: std::collections::BTreeMap<u128, u32> = std::collections::BTreeMap::new();
        depth.insert(root, 0);
        let mut max = 0;
        for h in &self.hops {
            if let Some(&d) = depth.get(&h.parent) {
                let child = depth.entry(h.child).or_insert(d + 1);
                max = max.max(*child);
            }
        }
        max
    }

    /// Out-degree of the root.
    pub fn root_out_degree(&self) -> usize {
        match self.root {
            Some(root) => self.hops.iter().filter(|h| h.parent == root).count(),
            None => 0,
        }
    }
}

/// Reassembles the multicast tree of `cause` from a log. The root comes
/// from the `mcast_root` record; if the trace window missed it (e.g.
/// recording started mid-flight), the fallback is the unique parent that
/// never appears as a child.
pub fn reconstruct_tree(records: &[TraceRecord], cause: CauseId) -> McastTree {
    let mut tree = McastTree {
        cause,
        ..McastTree::default()
    };
    for r in records {
        if r.cause != cause {
            continue;
        }
        match r.kind {
            TraceEventKind::McastRoot { .. } => tree.root = Some(r.node),
            TraceEventKind::McastHop { child, step, .. } => tree.hops.push(TreeHop {
                parent: r.node,
                child,
                step,
                at_us: r.at_us,
            }),
            TraceEventKind::McastRedirect { .. } => tree.redirects += 1,
            _ => {}
        }
    }
    if tree.root.is_none() {
        let mut parents: Vec<u128> = tree.hops.iter().map(|h| h.parent).collect();
        parents.sort_unstable();
        parents.dedup();
        parents.retain(|p| !tree.hops.iter().any(|h| h.child == *p));
        if let [only] = parents[..] {
            tree.root = Some(only);
        }
    }
    tree
}

/// Every cause with at least one `mcast_hop` record, with its hop count,
/// largest first (ties broken by cause id). The CLI uses the head of this
/// list as the default tree to reconstruct.
pub fn causes_by_hops(records: &[TraceRecord]) -> Vec<(CauseId, usize)> {
    let mut counts: std::collections::BTreeMap<CauseId, usize> = std::collections::BTreeMap::new();
    for r in records {
        if matches!(r.kind, TraceEventKind::McastHop { .. }) {
            *counts.entry(r.cause).or_default() += 1;
        }
    }
    let mut out: Vec<(CauseId, usize)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Compares two canonical logs record by record. Returns one human-
/// readable line per divergence; empty means the logs are identical.
/// Both inputs must already be in canonical order (see
/// [`crate::canonical_sort`]).
pub fn diff(a: &[TraceRecord], b: &[TraceRecord]) -> Vec<String> {
    let key = |r: &TraceRecord| (r.at_us, r.node, r.seq);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match key(&a[i]).cmp(&key(&b[j])) {
            std::cmp::Ordering::Equal => {
                if a[i] != b[j] {
                    out.push(format!(
                        "differs: {} | {}",
                        crate::jsonl::to_line(&a[i]),
                        crate::jsonl::to_line(&b[j])
                    ));
                }
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(format!("only in first: {}", crate::jsonl::to_line(&a[i])));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(format!("only in second: {}", crate::jsonl::to_line(&b[j])));
                j += 1;
            }
        }
    }
    for r in &a[i..] {
        out.push(format!("only in first: {}", crate::jsonl::to_line(r)));
    }
    for r in &b[j..] {
        out.push(format!("only in second: {}", crate::jsonl::to_line(r)));
    }
    out
}

/// One row of the per-class bandwidth table, aggregated over `msg_send`
/// records (counting sends, not receipts, avoids double counting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BandwidthRow {
    /// Message class.
    pub class: MsgClass,
    /// Messages sent.
    pub msgs: u64,
    /// Total wire bits.
    pub bits: u64,
}

/// Aggregates send traffic by message class, rows in [`MsgClass::ALL`]
/// order, classes with no traffic omitted.
pub fn bandwidth_by_class(records: &[TraceRecord]) -> Vec<BandwidthRow> {
    let mut msgs = [0u64; MsgClass::ALL.len()];
    let mut bits = [0u64; MsgClass::ALL.len()];
    for r in records {
        if let TraceEventKind::MsgSend { class, bits: b, .. } = r.kind {
            let i = MsgClass::ALL.iter().position(|c| *c == class).expect("ALL");
            msgs[i] += 1;
            bits[i] += b;
        }
    }
    MsgClass::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| msgs[*i] > 0)
        .map(|(i, class)| BandwidthRow {
            class,
            msgs: msgs[i],
            bits: bits[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventClass;

    fn hop(at_us: u64, node: u128, seq: u64, child: u128, cause: CauseId) -> TraceRecord {
        TraceRecord {
            at_us,
            node,
            seq,
            level: 0,
            cause,
            kind: TraceEventKind::McastHop {
                class: EventClass::Join,
                child,
                step: 1,
            },
        }
    }

    fn root(at_us: u64, node: u128, cause: CauseId) -> TraceRecord {
        TraceRecord {
            at_us,
            node,
            seq: 0,
            level: 0,
            cause,
            kind: TraceEventKind::McastRoot {
                class: EventClass::Join,
                step: 0,
            },
        }
    }

    #[test]
    fn filter_conjunction() {
        let c = CauseId::new(9, 1);
        let records = vec![root(5, 1, c), hop(10, 1, 1, 2, c), hop(20, 2, 0, 3, c)];
        let f = Filter {
            node: Some(1),
            from_us: Some(6),
            ..Filter::default()
        };
        assert_eq!(filter(&records, &f).len(), 1);
        let f = Filter {
            kind: Some("mcast_hop".into()),
            class: Some("join".into()),
            cause: Some(c),
            ..Filter::default()
        };
        assert_eq!(filter(&records, &f).len(), 2);
        let f = Filter {
            class: Some("leave".into()),
            ..Filter::default()
        };
        assert!(filter(&records, &f).is_empty());
    }

    #[test]
    fn tree_reconstruction_depth_and_fanout() {
        // root 1 → {2, 3}; 2 → 4; 4 → 5. Depth 3, five nodes, four edges.
        let c = CauseId::new(9, 1);
        let records = vec![
            root(0, 1, c),
            hop(0, 1, 1, 2, c),
            hop(0, 1, 2, 3, c),
            hop(10, 2, 0, 4, c),
            hop(20, 4, 0, 5, c),
            // Unrelated cause must be ignored.
            hop(1, 1, 3, 7, CauseId::new(8, 2)),
        ];
        let t = reconstruct_tree(&records, c);
        assert_eq!(t.root, Some(1));
        assert_eq!(t.hops.len(), 4);
        assert_eq!(t.receivers(), 4);
        assert_eq!(t.max_depth(), 3);
        assert_eq!(t.root_out_degree(), 2);
        assert_eq!(t.redirects, 0);
        assert_eq!(
            causes_by_hops(&records),
            vec![(c, 4), (CauseId::new(8, 2), 1)]
        );
    }

    #[test]
    fn tree_root_falls_back_to_parentless_node() {
        let c = CauseId::new(9, 1);
        let records = vec![hop(0, 1, 0, 2, c), hop(10, 2, 0, 3, c)];
        let t = reconstruct_tree(&records, c);
        assert_eq!(t.root, Some(1));
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn diff_reports_divergence_and_self_diff_is_empty() {
        let c = CauseId::new(9, 1);
        let a = vec![root(0, 1, c), hop(10, 1, 1, 2, c)];
        assert!(diff(&a, &a).is_empty());
        let mut b = a.clone();
        b[1] = hop(10, 1, 1, 3, c); // same key, different payload
        b.push(hop(20, 2, 0, 4, c));
        let d = diff(&a, &b);
        assert_eq!(d.len(), 2);
        assert!(d[0].starts_with("differs:"));
        assert!(d[1].starts_with("only in second:"));
    }

    #[test]
    fn bandwidth_aggregates_sends_only() {
        let mk = |class, bits, recv| TraceRecord {
            at_us: 0,
            node: 1,
            seq: 0,
            level: 0,
            cause: CauseId::NONE,
            kind: if recv {
                TraceEventKind::MsgRecv {
                    from: 2,
                    class,
                    bits,
                }
            } else {
                TraceEventKind::MsgSend { to: 2, class, bits }
            },
        };
        let records = vec![
            mk(MsgClass::Probe, 100, false),
            mk(MsgClass::Probe, 100, false),
            mk(MsgClass::Multicast, 500, false),
            mk(MsgClass::Probe, 100, true), // receive: not counted
        ];
        let rows = bandwidth_by_class(&records);
        assert_eq!(
            rows,
            vec![
                BandwidthRow {
                    class: MsgClass::Probe,
                    msgs: 2,
                    bits: 200
                },
                BandwidthRow {
                    class: MsgClass::Multicast,
                    msgs: 1,
                    bits: 500
                },
            ]
        );
    }
}
