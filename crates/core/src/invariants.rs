//! Runtime protocol invariant checking and the projection hooks the
//! explicit-state model checker (`peerwindow-mc`) builds on.
//!
//! Three layers:
//!
//! * **Local invariants** — [`NodeMachine::check_invariants`]: properties
//!   of a single machine that must hold after *every* handled event, in
//!   every phase (scope ≡ eigenstring, every held pointer inside the
//!   audience the identifier algebra assigns us, no self-pointer, no
//!   duplicate entries, level index ≡ entries, top-list within capacity).
//! * **System invariants** — [`check_system`]: cross-node properties that
//!   only hold at *quiescence*, once all in-flight multicasts have been
//!   applied (membership symmetry `A.covers(B) ⇔ B ∈ A.peers`, level
//!   agreement, in-scope top-list entries present in the peer list).
//!   Mid-multicast these are legitimately violated — a piggybacked top
//!   can be known before the subject's join event arrives — which is why
//!   they are not part of `check_invariants`.
//! * **Canonical projection** — [`NodeMachine::project`] and
//!   [`CanonicalState`]: the membership-view quotient the model checker
//!   hashes for visited-state deduplication. Node ids are interchangeable
//!   up to the eigenstring algebra (§2: audiences are computable from id
//!   *prefixes* alone), so the projection exposes each id only through
//!   its first `class_bits` bits; `peerwindow-mc` relabels ids to dense
//!   canonical indices on top of it.
//!
//! The exhaustive interleaving sweep that used to live here (PR 2) was
//! subsumed by `crates/mc`, which adds visited-state dedup, id-symmetry
//! reduction, temporal properties, and counterexample shrinking on top of
//! these hooks.
//!
//! The module is compiled under `cfg(test)` and behind the `invariants`
//! feature so production builds pay nothing for it.

use crate::id::{NodeId, Prefix, ID_BITS};
use crate::level::{Level, NodeIdentity};
use crate::node::NodeMachine;
use std::fmt;

// ----------------------------------------------------------------------
// Violations
// ----------------------------------------------------------------------

/// A protocol invariant that failed to hold, with enough context to
/// localise the offending machine and entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// An active node's peer-list scope differs from its eigenstring
    /// (the first `l` bits of its id at level `l`, §2).
    ScopeMismatch {
        /// The offending node.
        node: NodeId,
        /// The peer list's scope.
        scope: Prefix,
        /// The eigenstring implied by (id, level).
        eigenstring: Prefix,
    },
    /// A node holds a pointer the identifier algebra says it must not:
    /// its audience membership (`covers`) does not include the entry.
    OutOfScopePointer {
        /// The holder.
        node: NodeId,
        /// The out-of-scope entry.
        pointer: NodeId,
    },
    /// A node's peer list contains the node itself.
    SelfPointer {
        /// The offending node.
        node: NodeId,
    },
    /// The peer list's per-level index disagrees with its entries: some
    /// entry's id is missing from the set of its recorded level, or a set
    /// holds an id no entry records at that level. Group membership
    /// (ring successor, lonely-peer selection) is read off the index.
    PeerIndexInconsistent {
        /// The holder.
        node: NodeId,
    },
    /// The top-node list contains the node itself. A self-entry is never
    /// level-synced (nodes do not apply their own events) and a level
    /// raise that picks it downloads from an empty mirror of itself.
    SelfTopEntry {
        /// The offending node.
        node: NodeId,
    },
    /// The top-node list contains the same id twice.
    DuplicateTopEntry {
        /// The holder.
        node: NodeId,
        /// The duplicated id.
        dup: NodeId,
    },
    /// The top-node list exceeds its configured capacity `t` (§2).
    TopListOverCapacity {
        /// The holder.
        node: NodeId,
        /// Entries present.
        len: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// Two live machines share one NodeId.
    DuplicateNodeId {
        /// The id present twice.
        id: NodeId,
    },
    /// Quiescent check: `A.covers(B)` but B is absent from A's peer list
    /// (a member of B's audience never learned of B).
    MissingPeer {
        /// The node whose list is incomplete.
        node: NodeId,
        /// The absent member.
        missing: NodeId,
    },
    /// Quiescent check: a peer-list entry references a node that is no
    /// longer live (departed but never cleaned up).
    StalePeer {
        /// The holder.
        node: NodeId,
        /// The departed entry.
        stale: NodeId,
    },
    /// Quiescent check: a held entry records a different level than the
    /// subject actually runs at.
    LevelMismatch {
        /// The holder.
        node: NodeId,
        /// The entry.
        peer: NodeId,
        /// Level recorded in the holder's list.
        recorded: Level,
        /// The subject's actual level.
        actual: Level,
    },
    /// Quiescent check: an in-scope top-list entry is missing from the
    /// peer list (top-node-list ⊆ peer-list, for ids the scope covers).
    TopNotInPeerList {
        /// The holder.
        node: NodeId,
        /// The top entry absent from the peer list.
        top: NodeId,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InvariantViolation::ScopeMismatch {
                node,
                scope,
                eigenstring,
            } => write!(
                f,
                "{node:?}: peer-list scope {scope:?} != eigenstring {eigenstring:?}"
            ),
            InvariantViolation::OutOfScopePointer { node, pointer } => {
                write!(f, "{node:?}: holds {pointer:?} outside its audience")
            }
            InvariantViolation::SelfPointer { node } => {
                write!(f, "{node:?}: peer list contains the node itself")
            }
            InvariantViolation::PeerIndexInconsistent { node } => {
                write!(f, "{node:?}: peer-list level index disagrees with entries")
            }
            InvariantViolation::SelfTopEntry { node } => {
                write!(f, "{node:?}: top list contains the node itself")
            }
            InvariantViolation::DuplicateTopEntry { node, dup } => {
                write!(f, "{node:?}: top list contains {dup:?} twice")
            }
            InvariantViolation::TopListOverCapacity {
                node,
                len,
                capacity,
            } => write!(
                f,
                "{node:?}: top list has {len} entries, capacity {capacity}"
            ),
            InvariantViolation::DuplicateNodeId { id } => {
                write!(f, "two live machines share id {id:?}")
            }
            InvariantViolation::MissingPeer { node, missing } => {
                write!(f, "{node:?}: covers {missing:?} but does not hold it")
            }
            InvariantViolation::StalePeer { node, stale } => {
                write!(f, "{node:?}: holds departed node {stale:?}")
            }
            InvariantViolation::LevelMismatch {
                node,
                peer,
                recorded,
                actual,
            } => write!(
                f,
                "{node:?}: records {peer:?} at {recorded:?}, actual {actual:?}"
            ),
            InvariantViolation::TopNotInPeerList { node, top } => {
                write!(f, "{node:?}: in-scope top {top:?} absent from peer list")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

// ----------------------------------------------------------------------
// Local invariants
// ----------------------------------------------------------------------

impl NodeMachine {
    /// Checks every *local* invariant — properties of this machine alone
    /// that must hold after every handled event, in every phase.
    ///
    /// Cross-node properties (membership symmetry, level agreement) are
    /// only meaningful at quiescence and live in [`check_system`].
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let me = self.id();
        let ident = NodeIdentity::new(me, self.level());

        // An active node's list scope is exactly its eigenstring (§2).
        // While joining the machine provisionally holds wider scopes, so
        // the equality is only required once active.
        if self.is_active() && self.peers().scope() != ident.eigenstring() {
            return Err(InvariantViolation::ScopeMismatch {
                node: me,
                scope: self.peers().scope(),
                eigenstring: ident.eigenstring(),
            });
        }

        // Every held pointer lies inside the declared scope — the
        // audience-set rule: we hold X iff we cover X. (Audience
        // *symmetry* — everyone who covers us holds us — is the
        // quiescent half, checked in `check_system`.)
        let scope = self.peers().scope();
        let mut prev: Option<NodeId> = None;
        for p in self.peers().iter() {
            if p.id == me {
                return Err(InvariantViolation::SelfPointer { node: me });
            }
            if !scope.contains(p.id) {
                return Err(InvariantViolation::OutOfScopePointer {
                    node: me,
                    pointer: p.id,
                });
            }
            // The list is keyed by id; iteration must be strictly
            // ascending (duplicates are structurally impossible, but the
            // sweep asserts it rather than assuming it).
            if let Some(prev) = prev {
                if p.id <= prev {
                    return Err(InvariantViolation::OutOfScopePointer {
                        node: me,
                        pointer: p.id,
                    });
                }
            }
            prev = Some(p.id);
        }

        if !self.peers().index_is_consistent() {
            return Err(InvariantViolation::PeerIndexInconsistent { node: me });
        }

        // Top-node list: bounded by t, no duplicate ids.
        let tops = self.tops();
        if tops.capacity() > 0 && tops.len() > tops.capacity() {
            return Err(InvariantViolation::TopListOverCapacity {
                node: me,
                len: tops.len(),
                capacity: tops.capacity(),
            });
        }
        let mut seen: Vec<NodeId> = Vec::with_capacity(tops.len());
        for t in tops.entries() {
            if t.id == me {
                return Err(InvariantViolation::SelfTopEntry { node: me });
            }
            if seen.contains(&t.id) {
                return Err(InvariantViolation::DuplicateTopEntry {
                    node: me,
                    dup: t.id,
                });
            }
            seen.push(t.id);
        }

        Ok(())
    }
}

// ----------------------------------------------------------------------
// System (quiescent) invariants
// ----------------------------------------------------------------------

/// Checks cross-node invariants over a set of live machines. Only valid
/// at quiescence — when no multicast, join, or failure-detection traffic
/// is still in flight — because dissemination is asynchronous by design.
///
/// * no duplicate NodeIds;
/// * membership symmetry: for active A ≠ B, `A.covers(B) ⇔ B ∈ A.peers`
///   (the audience-set rule of §2, both directions);
/// * level agreement: recorded pointer levels match the subject's level;
/// * top-list containment: in-scope top entries appear in the peer list.
pub fn check_system<'a, I>(machines: I) -> Result<(), InvariantViolation>
where
    I: IntoIterator<Item = &'a NodeMachine>,
{
    let live: Vec<&NodeMachine> = machines.into_iter().filter(|m| m.is_active()).collect();

    for (i, a) in live.iter().enumerate() {
        for b in live.iter().skip(i + 1) {
            if a.id() == b.id() {
                return Err(InvariantViolation::DuplicateNodeId { id: a.id() });
            }
        }
    }

    for a in &live {
        let ident = NodeIdentity::new(a.id(), a.level());
        for b in &live {
            if a.id() == b.id() {
                continue;
            }
            let held = a.peers().contains(b.id());
            if ident.covers(b.id()) && !held {
                return Err(InvariantViolation::MissingPeer {
                    node: a.id(),
                    missing: b.id(),
                });
            }
            if held {
                // Holding implies covering (the other audience direction).
                if !ident.covers(b.id()) {
                    return Err(InvariantViolation::OutOfScopePointer {
                        node: a.id(),
                        pointer: b.id(),
                    });
                }
                let recorded = a.peers().get(b.id()).map(|p| p.level);
                if let Some(recorded) = recorded {
                    if recorded != b.level() {
                        return Err(InvariantViolation::LevelMismatch {
                            node: a.id(),
                            peer: b.id(),
                            recorded,
                            actual: b.level(),
                        });
                    }
                }
            }
        }

        // Every peer entry references a live machine.
        for p in a.peers().iter() {
            if !live.iter().any(|m| m.id() == p.id) {
                return Err(InvariantViolation::StalePeer {
                    node: a.id(),
                    stale: p.id,
                });
            }
        }

        // Top-node-list ⊆ peer-list, restricted to ids the scope covers
        // (tops of other parts are legitimately outside the list).
        for t in a.tops().entries() {
            if t.id != a.id() && ident.covers(t.id) && !a.peers().contains(t.id) {
                return Err(InvariantViolation::TopNotInPeerList {
                    node: a.id(),
                    top: t.id,
                });
            }
        }
    }

    Ok(())
}

// ----------------------------------------------------------------------
// Canonical projection (model-checker hooks)
// ----------------------------------------------------------------------

/// The SplitMix64 finalizer — the same mixer `peerwindow_des::DetRng`
/// and `peerwindow_faults::LinkRng` are built on, reused here as the
/// canonical-state hash so the whole evidence chain leans on one
/// well-tested avalanche function.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a word sequence into one 64-bit digest with [`splitmix64`].
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0x5157_434b_4e41_4843; // arbitrary nonzero IV
    for &w in words {
        h = splitmix64(h ^ w);
    }
    // Length is mixed in so a trailing zero word is not invisible.
    splitmix64(h ^ words.len() as u64)
}

/// A canonically serialized quotient of a system state: the word
/// sequence is invariant under any id relabeling that preserves the
/// eigenstring algebra (first-`class_bits` prefix classes), and `hash`
/// is its [`splitmix64`] digest. Built by `peerwindow-mc`'s canonical
/// relabeler from per-machine [`MachineProjection`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalState {
    /// The canonical serialization. Kept alongside the hash so the
    /// visited set can verify that equal hashes really are equal states
    /// (collision freedom is asserted, not assumed).
    pub words: Vec<u64>,
    /// [`hash_words`] digest of `words`.
    pub hash: u64,
}

impl CanonicalState {
    /// Wraps a serialized word sequence with its digest.
    pub fn from_words(words: Vec<u64>) -> Self {
        let hash = hash_words(&words);
        CanonicalState { words, hash }
    }
}

/// Everything the model checker may observe about one machine: the
/// membership view (peer list, top list, level, lifecycle), with ids
/// exposed verbatim so the caller can relabel them, plus the id's
/// prefix class — the only id information that may enter a canonical
/// encoding directly (§2: behavior depends on ids only through prefix
/// relations up to the maximum configured level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineProjection {
    /// The machine's id (for the caller's relabeling map).
    pub id: NodeId,
    /// First `class_bits` bits of the id, right-aligned.
    pub prefix_class: u64,
    /// Current level.
    pub level: u8,
    /// Whether the machine is fully joined and serving.
    pub active: bool,
    /// Whether the machine has departed (gracefully or by command).
    pub departed: bool,
    /// Whether the machine believes it is a top node (§4.5).
    pub believes_top: bool,
    /// Peer-list entries in id order: `(id, recorded level)`.
    pub peers: Vec<(NodeId, u8)>,
    /// Top-list entries in list order: `(id, recorded level)`.
    pub tops: Vec<(NodeId, u8)>,
    /// Number of RPCs awaiting replies (in-flight protocol activity).
    pub pending_rpcs: u64,
}

/// Extracts the first `class_bits` bits of `id`, right-aligned.
/// `class_bits` is clamped to 64 (beyond that, prefix classes stop
/// quotienting anything in practice: the checker never shifts deeper).
pub fn prefix_class(id: NodeId, class_bits: u8) -> u64 {
    let bits = u32::from(class_bits.min(64));
    if bits == 0 {
        return 0;
    }
    // Lossless: shifting a u128 right by >= 64 leaves at most 64 bits.
    (id.raw() >> (u32::from(ID_BITS) - bits)) as u64
}

impl NodeMachine {
    /// Projects the membership view the model checker canonicalizes.
    /// See [`MachineProjection`].
    pub fn project(&self, class_bits: u8) -> MachineProjection {
        MachineProjection {
            id: self.id(),
            prefix_class: prefix_class(self.id(), class_bits),
            level: self.level().value(),
            active: self.is_active(),
            departed: self.has_left(),
            believes_top: self.believes_top(),
            peers: self
                .peers()
                .iter()
                .map(|p| (p.id, p.level.value()))
                .collect(),
            tops: self
                .tops()
                .entries()
                .iter()
                .map(|t| (t.id, t.level.value()))
                .collect(),
            pending_rpcs: self.pending_rpc_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use bytes::Bytes;

    const A: u128 = 0x2000_0000_0000_0000_0000_0000_0000_0000; // 001…
    const B: u128 = 0x6000_0000_0000_0000_0000_0000_0000_0000; // 011…
    const C: u128 = 0xa000_0000_0000_0000_0000_0000_0000_0000; // 101…

    fn fast_cfg() -> ProtocolConfig {
        ProtocolConfig {
            probe_interval_us: 1_000_000,
            rpc_timeout_us: 300_000,
            processing_delay_us: 1_000,
            bandwidth_window_us: 5_000_000,
            ..ProtocolConfig::default()
        }
    }

    fn seed(raw: u128) -> NodeMachine {
        let (m, _outs) = NodeMachine::new_seed(
            fast_cfg(),
            NodeId(raw),
            crate::pointer::Addr(0),
            Bytes::new(),
            1e9,
            1,
        );
        m
    }

    #[test]
    fn seed_machine_passes_local_invariants() {
        let m = seed(A);
        m.check_invariants().unwrap();
        check_system([&m]).unwrap();
    }

    #[test]
    fn violations_display_mentions_node() {
        let v = InvariantViolation::SelfPointer { node: NodeId(A) };
        assert!(format!("{v}").contains("itself"));
    }

    #[test]
    fn prefix_class_takes_leading_bits() {
        assert_eq!(prefix_class(NodeId(A), 3), 0b001);
        assert_eq!(prefix_class(NodeId(B), 3), 0b011);
        assert_eq!(prefix_class(NodeId(C), 1), 1);
        assert_eq!(prefix_class(NodeId(C), 0), 0);
        assert_eq!(prefix_class(NodeId(u128::MAX), 64), u64::MAX);
    }

    #[test]
    fn projection_reflects_membership_view() {
        let m = seed(A);
        let p = m.project(1);
        assert_eq!(p.id, NodeId(A));
        assert_eq!(p.prefix_class, 0);
        assert_eq!(p.level, 0);
        assert!(p.active);
        assert!(!p.departed);
        assert!(p.peers.is_empty());
    }

    #[test]
    fn hash_words_is_length_and_order_sensitive() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        assert_ne!(hash_words(&[1]), hash_words(&[1, 0]));
        assert_eq!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 3]));
    }

    #[test]
    fn canonical_state_digest_matches_words() {
        let s = CanonicalState::from_words(vec![7, 8, 9]);
        assert_eq!(s.hash, hash_words(&[7, 8, 9]));
    }
}
