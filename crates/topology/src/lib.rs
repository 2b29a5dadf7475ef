//! # peerwindow-topology
//!
//! Transit-stub Internet topology generation and latency modelling — the
//! substitute for GT-ITM \[20\] used in the paper's §5.1 experiments
//! (120 transit domains × 4 transit nodes, 5 stub domains per transit node
//! × 2 stub nodes = 4800 stub nodes; 100/20/5/1 ms latency constants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod latency;
pub mod params;

pub use graph::Topology;
pub use latency::{NetworkModel, TransitStubNetwork, UniformNetwork};
pub use params::TransitStubParams;
