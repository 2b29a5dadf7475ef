//! # peerwindow-mc — explicit-state model checking for PeerWindow
//!
//! An explicit-state model checker over the real protocol machines:
//! breadth-first exploration of membership-operation interleavings
//! (join / leave / crash / level-shift) with every event handled by an
//! actual [`peerwindow_core::node::NodeMachine`] and local invariants
//! checked after each one. Subsumes — and retires — the PR 2
//! brute-force invariant sweep.
//!
//! What it adds over the sweep:
//!
//! * **Canonical state hashing** ([`canon`]) — states are serialized
//!   under an id-relabeling canonicalization (color refinement with
//!   references by dense color-class rank) and hashed with the shared
//!   SplitMix64, so permutation-equivalent and re-reached states are
//!   explored once. Collision freedom is asserted: the visited set
//!   compares full word sequences on hash hits.
//! * **Temporal properties** ([`props`]) — `Always` / `Eventually` /
//!   `LeadsTo` with settle-bounded fairness, including the two ROADMAP
//!   properties: *partition-heal-reconverges* and
//!   *no-correct-node-permanently-expunged*, checked under
//!   [`peerwindow_faults::FaultPlan`]s injected into the net.
//! * **Counterexample minimization** ([`shrink`](mod@shrink)) — failing traces are
//!   reduced by oracle-verified op deletion and id-table compaction
//!   before reporting.
//!
//! ```
//! use peerwindow_mc::{check, McConfig, always_system_invariants};
//!
//! const A: u128 = 0x2000_0000_0000_0000_0000_0000_0000_0000;
//! const B: u128 = 0x6000_0000_0000_0000_0000_0000_0000_0000;
//!
//! let mut cfg = McConfig::new(&[A, B]);
//! cfg.max_ops = 2;
//! let stats = check(&cfg, &[always_system_invariants()]).unwrap();
//! assert!(stats.completed);
//! ```

#![forbid(unsafe_code)]

pub mod canon;
pub mod check;
pub mod net;
pub mod props;
pub mod shrink;

pub use canon::canonical_state;
pub use check::{
    check, fair_extend, mc_protocol_config, replay, FailReason, McConfig, McFailure, McStats,
};
pub use net::{McNet, NetErr, SlotStatus, SweepOp};
pub use props::{
    always_system_invariants, eventually_no_departed_pointer, no_correct_node_permanently_expunged,
    partition_heal_reconverges, Property,
};
pub use shrink::{shrink, Repro};
