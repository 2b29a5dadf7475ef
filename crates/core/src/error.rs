//! Typed protocol errors.
//!
//! The sans-IO machine never panics on malformed or surprising input: a
//! condition the protocol cannot recover from becomes a [`ProtocolError`],
//! recorded in the machine, which leaves: the embedder reads it through
//! [`crate::node::NodeMachine::fatal_error`] once `has_left()`. This
//! keeps every event-handling path total — a requirement enforced
//! mechanically by `peerwindow-audit`'s `panic-site` lint rule.

use core::fmt;

/// An unrecoverable protocol-level failure inside the state machine.
///
/// Each variant maps to a stable static description (what the harness
/// logs record) so embedders can match on the reason without string
/// parsing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The bootstrap node answered with an empty top-node list — it cannot
    /// be a functioning member (a seed would have named itself).
    BootstrapReturnedNoTops,
    /// A joining step needed a top node but none is known and none can be
    /// discovered (every candidate timed out).
    NoReachableTop,
    /// A level-query reply arrived while no top node is known to download
    /// from — the join cannot proceed.
    LevelReplyWithoutKnownTop,
}

impl ProtocolError {
    /// Stable static description, suitable for logs.
    pub const fn as_str(self) -> &'static str {
        match self {
            ProtocolError::BootstrapReturnedNoTops => "bootstrap returned no top nodes",
            ProtocolError::NoReachableTop => "joining failed: no reachable top node",
            ProtocolError::LevelReplyWithoutKnownTop => {
                "level reply arrived with no known top node"
            }
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_static_str() {
        for e in [
            ProtocolError::BootstrapReturnedNoTops,
            ProtocolError::NoReachableTop,
            ProtocolError::LevelReplyWithoutKnownTop,
        ] {
            assert_eq!(e.to_string(), e.as_str());
        }
    }
}
