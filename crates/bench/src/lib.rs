//! # peerwindow-bench
//!
//! The experiment harness behind EXPERIMENTS.md: one function per paper
//! figure (§5), run by the `experiments` binary at full scale or with
//! `--quick`. Each function returns the rows the paper plots; the binary
//! writes them to `results/*.csv`. `tests/` holds the release-mode
//! overhead and scaling gates CI runs with `--include-ignored`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod extras;
pub mod figures;

pub use figures::*;
