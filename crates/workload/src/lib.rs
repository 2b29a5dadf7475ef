//! # peerwindow-workload
//!
//! Synthetic workloads calibrated to the Gnutella measurement study the
//! paper builds on (Saroiu et al. \[13\]): heavy-tailed session lifetimes
//! (figure 6 of \[13\]; mean ≈ 135 min), access-bandwidth mixture (figure 3
//! of \[13\]; 20 % below 1 Mbps), Poisson join arrivals balancing the
//! departure rate, the §5.1 bandwidth-threshold policy, and the §5.3
//! `Lifetime_Rate` scaling knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bandwidth;
pub mod churn;
pub mod lifetime;

pub use bandwidth::{BandwidthDist, Bucket};
pub use churn::{ChurnConfig, NodeSpec};
pub use lifetime::LifetimeDist;
