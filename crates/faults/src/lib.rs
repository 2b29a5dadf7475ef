//! # peerwindow-faults — deterministic network fault injection
//!
//! The simulators' original adversary was a single uniform i.i.d.
//! datagram-loss probability. That is the *friendliest* possible failure
//! model: every real deployment study of DHT-style membership (and the
//! stability analyses of P2P systems under non-persistent peers) points
//! at the regimes uniform loss cannot express — bursty correlated loss,
//! one-way link failures, network partitions that later heal, paths
//! whose latency jitters enough to reorder datagrams.
//!
//! This crate expresses those regimes as data. A [`FaultPlan`] is a
//! seeded, declarative schedule of [`FaultRule`]s; each rule activates a
//! [`Condition`] on a set of directed links ([`LinkSel`]) over a sim-time
//! window. A [`LinkConditioner`] interprets the plan packet by packet,
//! returning a [`Verdict`] per datagram, and the simulators consult it
//! through [`LinkConditioner::judge`] at **departure**.
//!
//! ## Determinism contract
//!
//! Everything here is reproducible from `(FaultPlan, seed)` alone:
//!
//! * **No global RNG.** Each directed link `(src, dst)` owns an
//!   independent SplitMix64 stream seeded from `(plan.seed, src, dst)`.
//!   The k-th packet on a link always sees the same random draws, no
//!   matter what other links did in between.
//! * **Judged at departure.** The verdict for a packet is computed for
//!   the time it leaves its *sender* (the sender's handling time plus
//!   its processing delay), inside whichever shard owns the sender. A
//!   sender's outgoing packet sequence is part of the deterministic
//!   event order, which the parallel engine already guarantees is
//!   shard-count-invariant — so the same plan produces byte-identical
//!   fingerprints at 1 shard and at 8.
//! * **Rules compose in declaration order.** When several rules cover
//!   the same link at the same instant, loss conditions OR together,
//!   jitter adds, and the RNG draws happen in rule order.
//!
//! The crate is dependency-free (std only) so that `core` can stay free
//! of any fault-injection machinery: the protocol under test never links
//! against this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod plan;
mod rng;
pub mod text;

pub use model::{FaultCounters, LinkConditioner, Verdict};
pub use plan::{Condition, FaultPlan, FaultRule, LinkSel, NodeSel};
