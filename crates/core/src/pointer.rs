//! Pointers — the unit of collected information.
//!
//! "A pointer consists of the corresponding node's IP address, nodeId,
//! level, and a piece of attached info that can be specified by upper
//! applications" (§2). The attached info is opaque to the protocol; upper
//! layers use it for OS versions, shared-file counts, load, bids, bloom
//! filters, … (§3). Pointers should stay small, since large pointers
//! deflate the peer lists.

use crate::id::NodeId;
use crate::level::{Level, NodeIdentity};
use bytes::Bytes;
use core::fmt;
use serde::{Deserialize, Serialize};

/// A transport address: an opaque 64-bit value wide enough for an
/// IPv4 address + UDP port (see `peerwindow-transport`). In simulation it
/// indexes the topology's attachment point.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// Packs an IPv4 socket address (`a.b.c.d:port`).
    pub fn from_v4(ip: [u8; 4], port: u16) -> Addr {
        Addr(((u32::from_be_bytes(ip) as u64) << 16) | port as u64)
    }

    /// Unpacks into `(ip, port)`; the inverse of [`Addr::from_v4`].
    pub fn to_v4(self) -> ([u8; 4], u16) {
        (((self.0 >> 16) as u32).to_be_bytes(), self.0 as u16)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{}", self.0)
    }
}

/// A pointer to another node: one entry of a peer list.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Pointer {
    /// The target node's identifier.
    pub id: NodeId,
    /// The target node's transport address.
    pub addr: Addr,
    /// The target node's level, as last heard.
    pub level: Level,
    /// Application-attached info (§3); opaque, cheaply cloneable.
    pub info: Bytes,
    /// Protocol time (µs) at which this pointer was last confirmed by a
    /// multicast event or refresh (§4.6). Entries not refreshed for
    /// `3 · LT_m` are dropped without explicit probing.
    pub last_refresh_us: u64,
    /// Protocol time (µs) at which the target was first seen (its join
    /// time, when known). Used to measure per-level lifetimes `LT_l`
    /// for the §4.6 refresh mechanism.
    pub first_seen_us: u64,
}

impl Pointer {
    /// Creates a pointer with empty attached info.
    pub fn new(id: NodeId, addr: Addr, level: Level) -> Self {
        Pointer {
            id,
            addr,
            level,
            info: Bytes::new(),
            last_refresh_us: 0,
            first_seen_us: 0,
        }
    }

    /// Creates a pointer with attached info.
    pub fn with_info(id: NodeId, addr: Addr, level: Level, info: Bytes) -> Self {
        Pointer {
            id,
            addr,
            level,
            info,
            last_refresh_us: 0,
            first_seen_us: 0,
        }
    }

    /// The identity (id + level) this pointer describes.
    #[inline]
    pub fn identity(&self) -> NodeIdentity {
        NodeIdentity::new(self.id, self.level)
    }

    /// Whether `other` carries the same attached info: the same buffer
    /// (an untouched pointer's snapshot copy shares the list's `Bytes`),
    /// or equal bytes.
    #[inline]
    pub fn same_info(&self, other: &Pointer) -> bool {
        let (a, b) = (&self.info, &other.info);
        (std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()) || a[..] == b[..]
    }

    /// Approximate wire size in bits, for bandwidth accounting: 128-bit id,
    /// 48-bit address (IPv4 + port), 8-bit level, plus the attached info.
    #[inline]
    pub fn wire_bits(&self) -> u64 {
        128 + 48 + 8 + (self.info.len() as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bits_counts_info() {
        let p = Pointer::new(NodeId(1), Addr(0), Level::TOP);
        assert_eq!(p.wire_bits(), 184);
        let q = Pointer::with_info(NodeId(1), Addr(0), Level::TOP, Bytes::from_static(b"abcd"));
        assert_eq!(q.wire_bits(), 184 + 32);
    }

    #[test]
    fn addr_packs_socket_v4() {
        let a = Addr::from_v4([127, 0, 0, 1], 7001);
        assert_eq!(a.to_v4(), ([127, 0, 0, 1], 7001));
        let b = Addr::from_v4([255, 255, 255, 255], 65535);
        assert_eq!(b.to_v4(), ([255, 255, 255, 255], 65535));
        assert_ne!(a, b);
    }

    #[test]
    fn identity_reflects_fields() {
        let p = Pointer::new(NodeId(42), Addr(7), Level::new(3));
        assert_eq!(p.identity(), NodeIdentity::new(NodeId(42), Level::new(3)));
    }
}
