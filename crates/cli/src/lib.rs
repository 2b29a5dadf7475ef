//! # peerwindow-cli
//!
//! The `pw` developer tool: `pw chaos`, `pw check`, `pw cluster`,
//! `pw stat` and `pw trace`, one module each with one entry point,
//! `run(args, out, err) -> exit code`. Every subcommand parses its flags
//! through one [`Args`] reader and reports a bad invocation as an
//! [`Error`] value: nothing below `main` exits the process, so the tests
//! drive each subcommand in-process and read its output from a buffer.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use bytes::Bytes;
use peerwindow_core::prelude::*;
use peerwindow_des::SimTime;
use peerwindow_sim::ParallelFullSim;
use std::io::{self, Write};

pub mod chaos;
pub mod check;
pub mod cluster;
pub mod stat;
pub mod trace;

const USAGE: &str = "usage: pw <chaos | check | cluster | stat | trace> [args…]";

/// Runs `pw` with `args` (the program name excluded) and returns the
/// process exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let rest = args.get(1..).unwrap_or_default();
    let sub = match args.first().map(String::as_str) {
        Some("chaos") => chaos::run,
        Some("check") => check::run,
        Some("cluster") => cluster::run,
        Some("stat") => stat::run,
        Some("trace") => trace::run,
        _ => return finish(Err(Error::usage("")), USAGE, err),
    };
    sub(rest, out, err)
}

/// Why a subcommand stopped early.
#[derive(Debug)]
pub enum Error {
    /// A bad invocation: the message (if any), then the usage text; exit 2.
    Usage(String),
    /// A failure with its own exit code and message.
    Fail(u8, String),
}

impl Error {
    /// A usage error carrying `msg` (empty for the bare usage text).
    pub fn usage(msg: impl Into<String>) -> Self {
        Error::Usage(msg.into())
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Fail(1, e.to_string())
    }
}

/// Turns a subcommand's result into its exit code, writing the error
/// (and for a usage error, `usage`) to `err`.
pub fn finish(result: Result<u8, Error>, usage: &str, err: &mut dyn Write) -> u8 {
    // A failed write to `err` has nowhere left to be reported.
    let (code, msg) = match result {
        Ok(code) => return code,
        Err(Error::Usage(msg)) if msg.is_empty() => (2, usage.to_string()),
        Err(Error::Usage(msg)) => (2, format!("{msg}\n{usage}")),
        Err(Error::Fail(code, msg)) => (code, msg),
    };
    let _ = writeln!(err, "{msg}");
    code
}

/// Writes `contents` to `path`; a failure exits 1 naming the path.
pub fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), Error> {
    std::fs::write(path, contents).map_err(|e| Error::Fail(1, format!("{path}: {e}")))
}

/// `v`, the value of `flag`, parsed as a `T`.
pub fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, Error> {
    v.parse()
        .map_err(|_| Error::usage(format!("{flag}: cannot parse {v:?}")))
}

/// The one flag reader every subcommand uses: a cursor over the
/// arguments that hands out tokens, flag values and parsed numbers.
pub struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// A reader over `args`.
    pub fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, Error> {
        self.next()
            .ok_or_else(|| Error::usage(format!("{flag} needs a value")))
    }

    /// The value that follows `flag`, parsed as a `T`.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, Error> {
        parse(flag, self.value(flag)?)
    }

    /// The error for a token no flag of the subcommand matches.
    pub fn unknown(token: &str) -> Error {
        Error::usage(format!("unexpected argument {token:?}"))
    }
}

/// Yields the next token: a flag or a positional argument.
impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// The protocol tuning both simulated worlds start from: a probe every
/// 2 s, 400 ms RPC timeouts, 10 ms processing delay and an 8 s bandwidth
/// window.
pub fn base_protocol() -> ProtocolConfig {
    ProtocolConfig {
        probe_interval_us: 2_000_000,
        rpc_timeout_us: 400_000,
        processing_delay_us: 10_000,
        bandwidth_window_us: 8_000_000,
        ..ProtocolConfig::default()
    }
}

/// The world `pw chaos` and `pw trace record` run: one seed node at
/// actor 0, then a joiner every 400 ms bootstrapping off it (the same
/// shape as the sim crate's determinism tests, so results compare across
/// tools).
pub fn base_world(shards: usize, nodes: u32, cfg: ProtocolConfig, seed: u64) -> ParallelFullSim {
    let mut sim = ParallelFullSim::new(shards, nodes as usize, cfg, 20_000, 1_000, seed);
    let seed_id = NodeId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
    sim.start_node(SimTime::ZERO, 0, seed_id, 1e9, Bytes::new(), None);
    let boot = Target {
        id: seed_id,
        addr: Addr(0),
        level: Level::TOP,
    };
    for k in 1..nodes {
        let id = NodeId((k as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_0C4A_2B8E_D1A3) | 1);
        let at = SimTime::from_millis(400 * k as u64);
        sim.start_node(at, k, id, 1e9, Bytes::new(), Some(boot));
    }
    sim
}
