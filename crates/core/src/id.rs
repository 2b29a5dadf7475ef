//! 128-bit node identifiers and prefix algebra.
//!
//! PeerWindow identifies every node by a 128-bit `NodeId`, "commonly the
//! result of consistent hashing of its public key or IP address" (§2), so
//! identifiers are assumed uniformly distributed. All of the protocol's
//! membership reasoning — eigenstrings, audience sets, multicast target
//! ranges — reduces to prefix arithmetic on these identifiers, implemented
//! here. Bit 0 is the most significant bit, matching the paper's
//! left-to-right `N0 N1 N2 …` notation.

use core::fmt;
use serde::{Deserialize, Serialize};

/// Number of bits in a [`NodeId`].
pub const ID_BITS: u8 = 128;

/// A 128-bit PeerWindow node identifier.
///
/// Wraps a `u128` whose most significant bit is "bit 0" in the paper's
/// notation. Ordering is numeric, which coincides with lexicographic
/// ordering of the bit string; the nodeId "circle" used by failure
/// detection (§4.1) is the numeric order wrapping around.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u128);

impl NodeId {
    /// The smallest identifier (all zero bits).
    pub const MIN: NodeId = NodeId(0);
    /// The largest identifier (all one bits).
    pub const MAX: NodeId = NodeId(u128::MAX);

    /// Builds an id from a raw `u128`.
    #[inline]
    pub const fn new(raw: u128) -> Self {
        NodeId(raw)
    }

    /// Returns the raw `u128`.
    #[inline]
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Returns bit `i` (0 = most significant) as `false`/`true`.
    ///
    /// # Panics
    /// Panics if `i >= 128`.
    #[inline]
    pub fn bit(self, i: u8) -> bool {
        assert!(i < ID_BITS, "bit index {i} out of range");
        (self.0 >> (ID_BITS - 1 - i)) & 1 == 1
    }

    /// Returns a copy with bit `i` flipped.
    #[inline]
    pub fn flip_bit(self, i: u8) -> Self {
        assert!(i < ID_BITS, "bit index {i} out of range");
        NodeId(self.0 ^ (1u128 << (ID_BITS - 1 - i)))
    }

    /// Returns a copy with bit `i` set to `v`.
    #[inline]
    pub fn with_bit(self, i: u8, v: bool) -> Self {
        assert!(i < ID_BITS, "bit index {i} out of range");
        let mask = 1u128 << (ID_BITS - 1 - i);
        if v {
            NodeId(self.0 | mask)
        } else {
            NodeId(self.0 & !mask)
        }
    }

    /// Length (in bits) of the longest common prefix of `self` and `other`.
    #[inline]
    pub fn common_prefix_len(self, other: NodeId) -> u8 {
        // leading_zeros of a u128 is at most 128, so the conversion is
        // total; the fallback keeps the expression cast-free.
        u8::try_from((self.0 ^ other.0).leading_zeros()).unwrap_or(ID_BITS)
    }

    /// The first `len` bits of this id, as a [`Prefix`].
    ///
    /// # Panics
    /// Panics if `len > 128`.
    #[inline]
    pub fn prefix(self, len: u8) -> Prefix {
        Prefix::new(self.0, len)
    }

    /// Whether this id starts with `p`.
    #[inline]
    pub fn has_prefix(self, p: Prefix) -> bool {
        p.contains(self)
    }

    /// The successor on the identifier circle (wrapping).
    #[inline]
    pub fn circle_successor(self) -> NodeId {
        NodeId(self.0.wrapping_add(1))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:032x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl From<u128> for NodeId {
    fn from(raw: u128) -> Self {
        NodeId(raw)
    }
}

/// A bit-string prefix of an identifier: the first `len` bits.
///
/// A node's *eigenstring* (§2) is exactly `Prefix::new(node.id, node.level)`;
/// audience-set membership, multicast target ranges, and split-system parts
/// are all expressed as prefixes. The unused low bits of `bits` are always
/// zero, so equal prefixes compare equal structurally.
///
/// ```
/// use peerwindow_core::id::{NodeId, Prefix};
/// let p = Prefix::from_bits_str("10").unwrap();
/// let id = NodeId::new(0xB000_0000_0000_0000_0000_0000_0000_0000); // 1011…
/// assert!(p.contains(id));
/// assert!(p.is_prefix_of(id.prefix(4)));
/// assert_eq!(p.sibling().to_string(), "11");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Prefix {
    bits: u128,
    len: u8,
}

impl Prefix {
    /// The empty prefix (matches every identifier) — the eigenstring of a
    /// level-0 *top node*.
    pub const EMPTY: Prefix = Prefix { bits: 0, len: 0 };

    /// Builds the prefix consisting of the first `len` bits of `bits`.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    #[inline]
    pub fn new(bits: u128, len: u8) -> Self {
        assert!(len <= ID_BITS, "prefix length {len} out of range");
        let masked = if len == 0 {
            0
        } else {
            bits & (u128::MAX << (ID_BITS - len))
        };
        Prefix { bits: masked, len }
    }

    /// Parses a prefix from a string of `0`/`1` characters (tests and
    /// examples; mirrors the paper's underlined eigenstrings).
    pub fn from_bits_str(s: &str) -> Option<Self> {
        if s.len() > ID_BITS as usize {
            return None;
        }
        let mut bits = 0u128;
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => bits |= 1u128 << (ID_BITS as usize - 1 - i),
                _ => return None,
            }
        }
        Some(Prefix {
            bits,
            len: u8::try_from(s.len()).ok()?,
        })
    }

    /// Prefix length in bits. A node at level `l` has an eigenstring of
    /// length `l`.
    #[inline]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the empty prefix.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The raw (masked) high bits.
    #[inline]
    pub const fn bits(self) -> u128 {
        self.bits
    }

    /// Whether identifier `id` starts with this prefix.
    #[inline]
    pub fn contains(self, id: NodeId) -> bool {
        if self.len == 0 {
            true
        } else {
            (id.0 ^ self.bits) >> (ID_BITS - self.len) == 0
        }
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    ///
    /// In the paper's vocabulary, a node whose eigenstring is a prefix of
    /// another's is *stronger* than it (§2 property 2).
    #[inline]
    pub fn is_prefix_of(self, other: Prefix) -> bool {
        self.len <= other.len && Prefix::new(other.bits, self.len) == self
    }

    /// Extends the prefix by one bit.
    ///
    /// # Panics
    /// Panics if already 128 bits long.
    #[inline]
    pub fn child(self, bit: bool) -> Prefix {
        assert!(self.len < ID_BITS, "prefix already full-length");
        let mut bits = self.bits;
        if bit {
            bits |= 1u128 << (ID_BITS - 1 - self.len);
        }
        Prefix {
            bits,
            len: self.len + 1,
        }
    }

    /// Drops the last bit.
    ///
    /// # Panics
    /// Panics on the empty prefix.
    #[inline]
    pub fn parent(self) -> Prefix {
        assert!(self.len > 0, "empty prefix has no parent");
        Prefix::new(self.bits, self.len - 1)
    }

    /// The sibling prefix: same length, last bit flipped.
    ///
    /// # Panics
    /// Panics on the empty prefix.
    #[inline]
    pub fn sibling(self) -> Prefix {
        assert!(self.len > 0, "empty prefix has no sibling");
        Prefix {
            bits: self.bits ^ (1u128 << (ID_BITS - self.len)),
            len: self.len,
        }
    }

    /// The smallest identifier with this prefix.
    #[inline]
    pub fn range_start(self) -> NodeId {
        NodeId(self.bits)
    }

    /// The largest identifier with this prefix.
    #[inline]
    pub fn range_end(self) -> NodeId {
        // checked_shr: a full-length prefix (len = 128) matches exactly
        // one identifier, and `u128::MAX >> 128` would overflow the shift.
        // audit: cast-ok — u8 → u32 is widening, never lossy.
        NodeId(self.bits | u128::MAX.checked_shr(self.len as u32).unwrap_or(0))
    }

    /// Inclusive range of identifiers covered by this prefix.
    #[inline]
    pub fn id_range(self) -> core::ops::RangeInclusive<NodeId> {
        self.range_start()..=self.range_end()
    }

    /// Truncates to the first `len` bits.
    ///
    /// # Panics
    /// Panics if `len > self.len()`.
    #[inline]
    pub fn truncate(self, len: u8) -> Prefix {
        assert!(len <= self.len, "cannot truncate {} to {len}", self.len);
        Prefix::new(self.bits, len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix(\"{self}\")")
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            let bit = (self.bits >> (ID_BITS - 1 - i)) & 1;
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> NodeId {
        // Interpret `s` as the leading bits, zero-padded.
        Prefix::from_bits_str(s).unwrap().range_start()
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let x = id("1011");
        assert!(x.bit(0));
        assert!(!x.bit(1));
        assert!(x.bit(2));
        assert!(x.bit(3));
        assert!(!x.bit(4));
    }

    #[test]
    fn flip_and_with_bit_roundtrip() {
        let x = id("1010");
        assert!(x.flip_bit(1).bit(1));
        assert_eq!(x.flip_bit(1).flip_bit(1), x);
        assert!(!x.with_bit(0, false).bit(0));
        assert_eq!(x.with_bit(0, true), x);
    }

    #[test]
    fn common_prefix_len_basic() {
        assert_eq!(id("1011").common_prefix_len(id("1010")), 3);
        assert_eq!(id("0").common_prefix_len(id("1")), 0);
        let x = id("1111");
        assert_eq!(x.common_prefix_len(x), 128);
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::from_bits_str("10").unwrap();
        assert!(p.contains(id("1011")));
        assert!(p.contains(id("10")));
        assert!(!p.contains(id("1111")));
        assert!(Prefix::EMPTY.contains(NodeId::MAX));
        assert!(Prefix::EMPTY.contains(NodeId::MIN));
    }

    #[test]
    fn prefix_of_relation() {
        let e = Prefix::EMPTY;
        let p1 = Prefix::from_bits_str("1").unwrap();
        let p10 = Prefix::from_bits_str("10").unwrap();
        let p11 = Prefix::from_bits_str("11").unwrap();
        assert!(e.is_prefix_of(p10));
        assert!(p1.is_prefix_of(p10));
        assert!(p1.is_prefix_of(p1));
        assert!(!p10.is_prefix_of(p1));
        assert!(!p11.is_prefix_of(p10));
    }

    #[test]
    fn child_parent_sibling() {
        let p = Prefix::from_bits_str("10").unwrap();
        assert_eq!(p.child(true), Prefix::from_bits_str("101").unwrap());
        assert_eq!(p.child(false).parent(), p);
        assert_eq!(p.sibling(), Prefix::from_bits_str("11").unwrap());
        assert_eq!(p.sibling().sibling(), p);
    }

    #[test]
    fn full_length_prefix_matches_exactly_one_id() {
        let p = Prefix::new(0, 128);
        assert_eq!(p.range_start(), NodeId(0));
        assert_eq!(p.range_end(), NodeId(0));
        assert!(p.contains(NodeId(0)));
        assert!(!p.contains(NodeId(1)));
        let q = Prefix::new(u128::MAX, 128);
        assert_eq!(q.range_end(), NodeId::MAX);
        assert_eq!(q.range_start(), NodeId::MAX);
    }

    #[test]
    fn range_bounds() {
        let p = Prefix::from_bits_str("10").unwrap();
        assert_eq!(p.range_start().raw(), 0b10u128 << 126);
        assert_eq!(p.range_end().raw(), (0b10u128 << 126) | (u128::MAX >> 2));
        assert_eq!(Prefix::EMPTY.range_start(), NodeId::MIN);
        assert_eq!(Prefix::EMPTY.range_end(), NodeId::MAX);
        // every id in range has the prefix
        assert!(p.contains(p.range_start()));
        assert!(p.contains(p.range_end()));
    }

    #[test]
    fn display_roundtrip() {
        for s in ["", "0", "1", "1011", "0000", "111000111"] {
            let p = Prefix::from_bits_str(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn from_bits_str_rejects_garbage() {
        assert!(Prefix::from_bits_str("102").is_none());
        assert!(Prefix::from_bits_str("ab").is_none());
        let long = "0".repeat(129);
        assert!(Prefix::from_bits_str(&long).is_none());
    }

    #[test]
    fn circle_successor_wraps() {
        assert_eq!(NodeId::MAX.circle_successor(), NodeId::MIN);
        assert_eq!(NodeId(7).circle_successor(), NodeId(8));
    }

    #[test]
    fn truncate_matches_manual() {
        let p = Prefix::from_bits_str("10110").unwrap();
        assert_eq!(p.truncate(3), Prefix::from_bits_str("101").unwrap());
        assert_eq!(p.truncate(0), Prefix::EMPTY);
    }
}
