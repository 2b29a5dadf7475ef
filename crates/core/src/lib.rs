//! # peerwindow-core
//!
//! Core implementation of **PeerWindow** (Hu, Li, Yu, Dong, Zheng —
//! ICPP 2005): an efficient, heterogeneous, and autonomic node collection
//! protocol for peer-to-peer systems.
//!
//! Every node keeps a large *peer list* of pointers to other nodes. A node
//! at level `l` holds pointers to every node whose 128-bit identifier
//! shares its first `l` bits (its *eigenstring*), so heterogeneous nodes
//! pick heterogeneous levels and the set of nodes that must learn about a
//! state change — the *audience set* — is computable from identifiers
//! alone. State changes are disseminated by a binary-dissection tree
//! multicast rooted at a *top node*.
//!
//! The crate is **sans-IO**: [`node::NodeMachine`] consumes timestamped
//! inputs and emits outputs (sends, timers), so the same code runs over a
//! real transport or inside the deterministic simulator in
//! `peerwindow-sim`.
//!
//! ## Module map
//!
//! * [`id`] — 128-bit identifiers and prefix algebra.
//! * [`level`] — levels, eigenstrings, the stronger/weaker order.
//! * [`pointer`] — peer-list entries (§2) with attached info (§3).
//! * [`peer_list`] — the indexed peer list and its queries.
//! * [`event`] — state-changing events (§2).
//! * [`multicast`] — the §4.2 tree multicast planner.
//! * [`top_list`] — top-node lists and lazy maintenance (§4.5).
//! * [`parts`] — split-system parts (§4.4).
//! * [`messages`] — wire messages and size accounting.
//! * [`node`] — the full sans-IO protocol state machine (§4).
//! * [`snapshot`] — lock-free peer-list snapshot publication (serving layer).
//! * [`config`] — protocol constants (paper defaults).
//! * [`model`] — the §2 analytic performance model.
//! * [`error`] — typed protocol errors (no panics in handling paths).
//! * [`invariants`] — runtime consistency checker (feature `invariants`).
//!
//! ## Quick example
//!
//! ```
//! use peerwindow_core::prelude::*;
//!
//! // An l-level node's eigenstring is the first l bits of its id.
//! let id = NodeId::new(0xB000_0000_0000_0000_0000_0000_0000_0000);
//! let node = NodeIdentity::new(id, Level::new(2));
//! assert_eq!(node.eigenstring().to_string(), "10");
//!
//! // Audience sets are computable from identifiers alone.
//! let other = NodeId::new(0xA000_0000_0000_0000_0000_0000_0000_0000);
//! assert!(node.covers(other)); // "10" is a prefix of other's id
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod event;
pub mod id;
#[cfg(any(test, feature = "invariants"))]
pub mod invariants;
pub mod level;
pub mod messages;
pub mod model;
pub mod multicast;
pub mod node;
pub mod parts;
pub mod peer_list;
pub mod pointer;
pub mod snapshot;
pub mod top_list;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::config::ProtocolConfig;
    pub use crate::error::ProtocolError;
    pub use crate::event::{EventKind, StateEvent};
    pub use crate::id::{NodeId, Prefix, ID_BITS};
    pub use crate::level::{Level, NodeIdentity};
    pub use crate::messages::Message;
    pub use crate::model::ModelParams;
    pub use crate::multicast::{
        forward_steps, plan_tree, tree_stats, Forward, Target, TreeEdge, TreeStats,
    };
    pub use crate::node::{Command, Input, NodeMachine, NodeStats, Output, Timer};
    pub use crate::parts::{audit_parts, PartAudit, PartMap};
    pub use crate::peer_list::PeerList;
    pub use crate::pointer::{Addr, Pointer};
    pub use crate::snapshot::{
        PeerSnapshot, Published, SnapshotDirectory, SnapshotPublisher, SnapshotReader,
    };
    pub use crate::top_list::TopList;
}
