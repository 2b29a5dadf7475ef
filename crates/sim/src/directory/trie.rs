//! The kept multicast trie: one compressed binary trie over every live id,
//! patched along one root path per join, leave and level change, and
//! walked once per event under the §2 covering filter.
//!
//! It is [`crate::plan::Rmq`]'s trie grown to the whole directory: node
//! `n` parts the ids below it at bit `bit` (they share the `bit` bits
//! above), side 0 holding those with the bit clear, and each side stores
//! its strongest member — lowest level, a tie staying left (smallest id).
//! An event's audience is the members `m ≠ subject` with `m.level ≤
//! lcp(m, subject)`; the walk serves the §4.2 recursion over that subset
//! without extracting it. See DESIGN.md, "Oracle planner".

use super::Member;
use peerwindow_core::prelude::NodeId;

/// A child reference: an internal node index, or a leaf index with
/// [`LEAF`] set.
type Ref = u32;
const LEAF: Ref = 1 << 31;

/// A side's strongest member: `(leaf, level)`.
type Best = (u32, u8);

/// Bit `bit` of `id`, counting from the most significant (0 or 1).
fn bit_of(id: u128, bit: u8) -> usize {
    ((id >> (127 - bit)) & 1) as usize
}

/// Leading bits `a` and `b` share (128 when equal).
fn lcp(a: u128, b: u128) -> u32 {
    (a ^ b).leading_zeros()
}

/// The stronger of two sides' members; a tie stays left.
fn stronger(left: Option<Best>, right: Option<Best>) -> Option<Best> {
    match (left, right) {
        (Some(l), Some(r)) if r.1 < l.1 => Some(r),
        (None, r) => r,
        (l, _) => l,
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Node {
    child: [Ref; 2],
    /// Per side its strongest leaf and that leaf's level.
    best: [u32; 2],
    level: [u8; 2],
    bit: u8,
}

impl Node {
    /// Hangs `r`, whose strongest member is `best`, on `side`.
    fn hang(&mut self, side: usize, r: Ref, best: Best) {
        self.child[side] = r;
        (self.best[side], self.level[side]) = best;
    }

    fn strongest(&self) -> Best {
        let side = (self.level[1] < self.level[0]) as usize; // a tie stays left
        (self.best[side], self.level[side])
    }
}

/// One node's traffic counters, kept beside the leaf data the walk reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bits received in the current adaptation window.
    pub rx_window_bits: u64,
    /// Bits received during the measurement period.
    pub rx_measure_bits: u64,
    /// Bits sent during the measurement period.
    pub tx_measure_bits: u64,
}

impl Traffic {
    /// One copy of the event in; unless it came by the report hop, one
    /// ack back out.
    fn receive(&mut self, charge: Charge, acked: bool) {
        self.rx_window_bits += charge.event_bits;
        if charge.measuring {
            self.rx_measure_bits += charge.event_bits;
            self.tx_measure_bits += acked as u64 * charge.ack_bits;
        }
    }

    /// `copies` copies sent on, each acked back.
    fn send(&mut self, charge: Charge, copies: u64) {
        if charge.measuring {
            self.tx_measure_bits += copies * charge.event_bits;
            self.rx_measure_bits += copies * charge.ack_bits;
        }
    }
}

/// What one multicast charges to its members' [`Traffic`]: every receiver
/// one event in, every copy sent on one event out and one ack in, every
/// receiver but the root (reached by the report hop) one ack out.
#[derive(Clone, Copy, Debug)]
pub struct Charge {
    /// Size of the event message, bits.
    pub event_bits: u64,
    /// Size of an ack, bits.
    pub ack_bits: u64,
    /// Whether the measurement counters are charged; the adaptation
    /// window always is.
    pub measuring: bool,
}

/// One delivery of a kept-trie plan ([`super::Directory::plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The sender.
    pub parent: NodeId,
    /// The receiver.
    pub child: NodeId,
    /// The receiver's level.
    pub level: u8,
    /// Time (µs) at which the receiver gets the event.
    pub at_us: u64,
    /// Range length the receiver becomes responsible for.
    pub step: u8,
    /// Tree depth (root's children = 1).
    pub depth: u32,
}

#[derive(Clone, Copy, Debug)]
struct Leaf {
    id: u128,
    traffic: Traffic,
    addr: u32,
    level: u8,
}

/// A sub-tree waiting on the walk's stack: `holder` serves `node`, having
/// received the event at `t` at tree depth `depth`.
#[derive(Clone, Copy, Debug)]
struct Pending {
    holder: u32,
    node: Ref,
    t: u64,
    depth: u32,
}

/// A trie entry in preorder with leaves named by id, so that two tries over
/// the same members compare equal whatever their node and leaf indices.
#[derive(Debug, PartialEq, Eq)]
enum Shape {
    Node {
        bit: u8,
        best: [u128; 2],
        level: [u8; 2],
    },
    Leaf {
        id: u128,
        addr: u32,
        level: u8,
    },
}

/// The kept trie. Leaves and internal nodes live in two pools with free
/// lists; the warm start lays both out in id order, so the walk reads them
/// nearly sequentially.
#[derive(Clone, Debug, Default)]
pub(super) struct Trie {
    nodes: Vec<Node>,
    leaves: Vec<Leaf>,
    free_nodes: Vec<u32>,
    free_leaves: Vec<u32>,
    /// `leaf_of[slot]` is a live slot's leaf (stale for dead slots).
    leaf_of: Vec<u32>,
    root: Option<Ref>,
    /// Scratch: the internal nodes on one root path, root first.
    path: Vec<u32>,
    /// Scratch: the walk's pending sub-trees.
    stack: Vec<Pending>,
}

impl Trie {
    /// The counters of a live slot.
    pub(super) fn traffic(&self, slot: u32) -> &Traffic {
        &self.leaves[self.leaf_of[slot as usize] as usize].traffic
    }

    /// Zeroes every adaptation window.
    pub(super) fn reset_windows(&mut self) {
        for leaf in &mut self.leaves {
            leaf.traffic.rx_window_bits = 0;
        }
    }

    fn alloc_leaf(&mut self, leaf: Leaf) -> u32 {
        match self.free_leaves.pop() {
            Some(i) => {
                self.leaves[i as usize] = leaf;
                i
            }
            None => {
                self.leaves.push(leaf);
                self.leaves.len() as u32 - 1
            }
        }
    }

    fn alloc_node(&mut self, node: Node) -> u32 {
        match self.free_nodes.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        }
    }

    fn strongest(&self, r: Ref) -> Best {
        if r & LEAF != 0 {
            let leaf = r & !LEAF;
            (leaf, self.leaves[leaf as usize].level)
        } else {
            self.nodes[r as usize].strongest()
        }
    }

    /// Follows `id`'s bits from the root down to a leaf, which it returns,
    /// leaving the internal nodes passed in `path`. `None` when empty.
    fn descend(&mut self, id: u128) -> Option<u32> {
        self.path.clear();
        let mut r = self.root?;
        while r & LEAF == 0 {
            self.path.push(r);
            let node = &self.nodes[r as usize];
            r = node.child[bit_of(id, node.bit)];
        }
        Some(r & !LEAF)
    }

    /// The leaf of the live id `id`.
    fn leaf(&mut self, id: u128) -> u32 {
        let leaf = self
            .descend(id)
            .filter(|&l| self.leaves[l as usize].id == id);
        leaf.unwrap_or_else(|| panic!("{} is not live", NodeId(id)))
    }

    /// Hangs `r` where the last node on `path` (or the root) leads towards
    /// `id`.
    fn relink(&mut self, id: u128, r: Ref) {
        match self.path.last() {
            Some(&p) => {
                let parent = &mut self.nodes[p as usize];
                parent.child[bit_of(id, parent.bit)] = r;
            }
            None => self.root = Some(r),
        }
    }

    /// Re-derives, deepest first, the side of each node on `path` that
    /// leads towards `id` from what hangs below it.
    fn refresh_path(&mut self, id: u128) {
        for k in (0..self.path.len()).rev() {
            let n = self.path[k] as usize;
            let side = bit_of(id, self.nodes[n].bit);
            let best = self.strongest(self.nodes[n].child[side]);
            (self.nodes[n].best[side], self.nodes[n].level[side]) = best;
        }
    }

    /// Adds the node `id`, which must not be live.
    pub(super) fn insert(&mut self, slot: u32, id: u128, addr: u32, level: u8) {
        let leaf = self.alloc_leaf(Leaf {
            id,
            traffic: Traffic::default(),
            addr,
            level,
        });
        if self.leaf_of.len() <= slot as usize {
            self.leaf_of.resize(slot as usize + 1, 0);
        }
        self.leaf_of[slot as usize] = leaf;
        let Some(near) = self.descend(id) else {
            self.root = Some(leaf | LEAF);
            return;
        };
        // The new split sits below every node that parts the ids above
        // `bit`; what hung there becomes its other side.
        let bit = lcp(id, self.leaves[near as usize].id) as u8;
        let nodes = &self.nodes;
        let above = self.path.partition_point(|&n| nodes[n as usize].bit < bit);
        let sibling = self.path.get(above).copied().unwrap_or(near | LEAF);
        let side = bit_of(id, bit);
        let mut node = Node {
            bit,
            ..Node::default()
        };
        node.hang(side, leaf | LEAF, (leaf, level));
        node.hang(1 - side, sibling, self.strongest(sibling));
        let node = self.alloc_node(node);
        self.path.truncate(above);
        self.relink(id, node);
        self.refresh_path(id);
    }

    /// Removes the live id `id`: its parent node goes, the sibling takes
    /// the parent's place.
    pub(super) fn remove(&mut self, id: u128) {
        let leaf = self.leaf(id);
        self.free_leaves.push(leaf);
        let Some(parent) = self.path.pop() else {
            self.root = None;
            return;
        };
        let node = self.nodes[parent as usize];
        self.free_nodes.push(parent);
        self.relink(id, node.child[1 - bit_of(id, node.bit)]);
        self.refresh_path(id);
    }

    /// Sets the live id `id`'s level.
    pub(super) fn set_level(&mut self, id: u128, level: u8) {
        let leaf = self.leaf(id);
        self.leaves[leaf as usize].level = level;
        self.refresh_path(id);
    }

    /// Rebuilds over the directory's columns (`ids` strictly ascending) in
    /// one stack pass, leaves and nodes in id order. A slot that had a
    /// leaf keeps its counters.
    pub(super) fn rebuild(&mut self, ids: &[u128], members: &[Member], slots: usize) {
        let old = std::mem::take(&mut self.leaves);
        let old_leaf_of = std::mem::take(&mut self.leaf_of);
        self.leaf_of = vec![0; slots];
        self.leaves = Vec::with_capacity(ids.len());
        for (k, (&id, m)) in ids.iter().zip(members).enumerate() {
            let traffic = old_leaf_of
                .get(m.slot as usize)
                .map_or_else(Traffic::default, |&l| old[l as usize].traffic);
            self.leaves.push(Leaf {
                id,
                traffic,
                addr: m.addr,
                level: m.level,
            });
            self.leaf_of[m.slot as usize] = k as u32;
        }
        self.nodes.clear();
        self.nodes.reserve(ids.len().saturating_sub(1));
        self.free_nodes.clear();
        self.free_leaves.clear();
        self.root = None;
        // `path` is the spine: the nodes whose side 1 is still open, bits
        // ascending. Node `i - 1` parts leaves `i - 1` and `i`; a sentinel
        // at bit 0 past the last leaf closes what is open.
        self.path.clear();
        let n = ids.len();
        for i in 1..=n {
            let bit = if i < n {
                lcp(ids[i - 1], ids[i]) as u8
            } else {
                0
            };
            // Every open node at this bit or deeper ends with leaf `i - 1`:
            // pop them, innermost first, each one's side 1 being what was
            // closed before it; the outermost becomes the new node's side 0.
            let last = i as u32 - 1;
            let (mut closed, mut best) = (last | LEAF, (last, self.leaves[i - 1].level));
            while let Some(&top) = self.path.last() {
                let node = &mut self.nodes[top as usize];
                if node.bit < bit {
                    break;
                }
                self.path.pop();
                node.hang(1, closed, best);
                (closed, best) = (top, node.strongest());
            }
            if i == n {
                self.root = Some(closed);
            } else {
                let mut node = Node {
                    bit,
                    ..Node::default()
                };
                node.hang(0, closed, best);
                self.nodes.push(node);
                self.path.push(last);
            }
        }
    }

    /// The filtered strongest member of every side on the subject's own
    /// path, indexed by the node's bit: the side towards the subject of
    /// the path node that parts at `bit`. Bottom-up, once per event.
    fn filter_path(&mut self, subject: u128) -> [Option<Best>; 128] {
        let mut on_path = [None; 128];
        let Some(end) = self.descend(subject) else {
            return on_path;
        };
        // The path is the nodes parting above `shared`; everything below
        // the cut shares exactly `shared` bits with the subject.
        let shared = lcp(self.leaves[end as usize].id, subject);
        let nodes = &self.nodes;
        let cut = self
            .path
            .partition_point(|&n| (nodes[n as usize].bit as u32) < shared);
        let mut below = match self.path.get(cut) {
            Some(&n) => Some(nodes[n as usize].strongest()),
            // The subject is no member of its own audience.
            None => (shared < 128).then(|| (end, self.leaves[end as usize].level)),
        }
        .filter(|&(_, level)| level as u32 <= shared);
        for &n in self.path[..cut].iter().rev() {
            let node = &nodes[n as usize];
            let toward = bit_of(subject, node.bit);
            on_path[node.bit as usize] = below;
            // The other side shares exactly `bit` bits with the subject.
            let off = Some((node.best[1 - toward], node.level[1 - toward]))
                .filter(|&(_, level)| level <= node.bit);
            below = match toward {
                0 => stronger(below, off),
                _ => stronger(off, below),
            };
        }
        on_path
    }

    /// Plans the multicast of an event about `subject` from the live
    /// `root`; see [`super::Directory::plan`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn walk<L, F>(
        &mut self,
        subject: u128,
        root: u128,
        t_root: u64,
        processing_us: u64,
        charge: Charge,
        mut latency: L,
        mut on_deliver: F,
    ) where
        L: FnMut(u32, u32) -> u64,
        F: FnMut(&Hop),
    {
        let root_leaf = self.leaf(root);
        let on_path = self.filter_path(subject);
        let Trie {
            nodes,
            leaves,
            stack,
            root: top,
            ..
        } = self;
        debug_assert!(
            root != subject && leaves[root_leaf as usize].level as u32 <= lcp(root, subject),
            "the root does not cover the subject"
        );
        leaves[root_leaf as usize].traffic.receive(charge, false);
        // From the trie's root: above the subject's part root no side holds
        // a member strong enough to pass the filter (else the part would be
        // wider), so those nodes send nothing.
        stack.push(Pending {
            holder: root_leaf,
            node: top.expect("the root's leaf is in the trie"),
            t: t_root,
            depth: 0,
        });
        while let Some(Pending {
            holder,
            mut node,
            t,
            depth,
        }) = stack.pop()
        {
            let Leaf { id, addr, .. } = leaves[holder as usize];
            let shared = lcp(id, subject);
            let mut sent = 0;
            // Down from the sub-tree `holder` answers for to its own leaf:
            // at each node the other side gets one copy, through its
            // strongest audience member, if it holds one.
            while node & LEAF == 0 {
                let s = &nodes[node as usize];
                let side = bit_of(id, s.bit);
                let (keep, sibling) = (s.child[side], s.child[1 - side]);
                node = keep;
                let target = if s.bit as u32 == shared {
                    // The subject's side: ids there share different numbers
                    // of bits with it, so the filtered member is looked up.
                    on_path[s.bit as usize]
                } else {
                    // Off the subject's path every id on the other side
                    // shares `min(bit, shared)` bits with the subject: its
                    // strongest member passes the filter or nobody does.
                    let passes = s.level[1 - side] as u32 <= shared.min(s.bit as u32);
                    passes.then_some((s.best[1 - side], s.level[1 - side]))
                };
                let Some((child, level)) = target else {
                    continue;
                };
                let to = &mut leaves[child as usize];
                let at_us = t + processing_us + latency(addr, to.addr);
                to.traffic.receive(charge, true);
                sent += 1;
                on_deliver(&Hop {
                    parent: NodeId(id),
                    child: NodeId(to.id),
                    level,
                    at_us,
                    step: s.bit + 1,
                    depth: depth + 1,
                });
                if sibling & LEAF == 0 {
                    stack.push(Pending {
                        holder: child,
                        node: sibling,
                        t: at_us,
                        depth: depth + 1,
                    });
                }
            }
            leaves[holder as usize].traffic.send(charge, sent);
        }
    }

    fn shape(&self) -> Vec<Shape> {
        let mut out = Vec::new();
        let mut todo: Vec<Ref> = self.root.into_iter().collect();
        while let Some(r) = todo.pop() {
            if r & LEAF != 0 {
                let leaf = &self.leaves[(r & !LEAF) as usize];
                out.push(Shape::Leaf {
                    id: leaf.id,
                    addr: leaf.addr,
                    level: leaf.level,
                });
            } else {
                let node = &self.nodes[r as usize];
                out.push(Shape::Node {
                    bit: node.bit,
                    best: node.best.map(|l| self.leaves[l as usize].id),
                    level: node.level,
                });
                todo.extend([node.child[1], node.child[0]]);
            }
        }
        out
    }

    /// Asserts that the trie equals one rebuilt from the directory's
    /// columns, that every live slot names its own leaf, and that the pools
    /// hold one leaf per live id and one node fewer.
    pub(super) fn check_invariants(&self, ids: &[u128], members: &[Member], slots: usize) {
        let mut rebuilt = Trie::default();
        rebuilt.rebuild(ids, members, slots);
        assert_eq!(
            self.shape(),
            rebuilt.shape(),
            "kept trie differs from a rebuilt one"
        );
        for (&id, m) in ids.iter().zip(members) {
            let leaf = &self.leaves[self.leaf_of[m.slot as usize] as usize];
            assert_eq!(leaf.id, id, "slot {} names another leaf", m.slot);
        }
        let n = ids.len();
        assert_eq!(self.leaves.len() - self.free_leaves.len(), n, "leaf pool");
        assert_eq!(
            self.nodes.len() - self.free_nodes.len(),
            n.saturating_sub(1),
            "node pool"
        );
    }
}
