//! Bloom-filter attachments (§3's compression technique).
//!
//! "LOCKSS can use bloom filter to indicate whether a node contains a
//! given digital document and attach the filter results into the
//! pointers." This module provides a small, fixed-size Bloom filter whose
//! byte form fits the attached-info budget, so a node can advertise a
//! whole document collection in a couple hundred bytes and peers can
//! answer "who probably holds X?" from their own peer lists.

use bytes::Bytes;

/// A Bloom filter over `8·bytes` bits with `k` double-hashed probes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    k: u32,
}

fn hash2(item: &[u8]) -> (u64, u64) {
    // Two FNV-1a variants; double hashing g_i = h1 + i·h2 gives k probes.
    let mut h1: u64 = 0xcbf29ce484222325;
    let mut h2: u64 = 0x84222325cbf29ce4;
    for &b in item {
        h1 = (h1 ^ b as u64).wrapping_mul(0x100000001b3);
        h2 = (h2 ^ b as u64).wrapping_mul(0x100000001b5);
    }
    (h1, h2 | 1)
}

/// A precomputed probe set: the two double-hash bases for one item.
///
/// Hashing the item is the only per-item cost that doesn't depend on the
/// filter, so a query that tests one document against *many* pointers'
/// filters computes the probe once ([`Bloom::probe`]) and evaluates it
/// against each filter ([`Bloom::contains_probe`] /
/// [`BloomView::contains_probe`]) — the batched path of
/// `probable_holders`. Probe evaluation adapts to each filter's own `m`
/// and `k`, so one probe is valid against filters of any size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomProbe {
    /// First double-hash base.
    pub h1: u64,
    /// Second double-hash base (always odd).
    pub h2: u64,
}

/// The `k` `(byte, mask)` positions `probe` tests in a filter of `m`
/// bytes. They depend on `(k, m)` alone, so a sweep over many filters of
/// one shape computes them once.
pub(crate) fn probe_positions(
    probe: BloomProbe,
    k: u32,
    m: usize,
) -> impl Iterator<Item = (usize, u8)> {
    let m_bits = (m * 8) as u64;
    (0..k as u64).map(move |i| {
        let bit = probe.h1.wrapping_add(i.wrapping_mul(probe.h2)) % m_bits;
        ((bit / 8) as usize, 1 << (bit % 8))
    })
}

fn probe_hits(bits: &[u8], k: u32, probe: BloomProbe) -> bool {
    probe_positions(probe, k, bits.len()).all(|(byte, mask)| bits[byte] & mask != 0)
}

/// A zero-copy view over a serialized filter (`k:u8` + bits), for
/// membership tests straight out of a pointer's attached-info bytes —
/// no `Vec` allocation, no copy. Accepts exactly the inputs
/// [`Bloom::from_bytes`] accepts.
#[derive(Clone, Copy, Debug)]
pub struct BloomView<'a> {
    k: u32,
    bits: &'a [u8],
}

impl<'a> BloomView<'a> {
    /// Parses a view; `None` on malformed input (same acceptance rule as
    /// [`Bloom::from_bytes`]).
    pub fn parse(buf: &'a [u8]) -> Option<BloomView<'a>> {
        if buf.len() < 2 || buf[0] == 0 {
            return None;
        }
        Some(BloomView {
            k: buf[0] as u32,
            bits: &buf[1..],
        })
    }

    /// Number of hash probes.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The filter's bit array (the bytes after the `k` byte).
    pub fn bits(&self) -> &'a [u8] {
        self.bits
    }

    /// Whether the probed item is *possibly* present. Identical result to
    /// deserializing with [`Bloom::from_bytes`] and calling
    /// [`Bloom::maybe_contains`] on the probed item.
    pub fn contains_probe(&self, probe: BloomProbe) -> bool {
        probe_hits(self.bits, self.k, probe)
    }
}

impl Bloom {
    /// Creates an empty filter of `bytes` bytes with `k` hash probes.
    ///
    /// # Panics
    /// Panics if `bytes == 0` or `k == 0`.
    pub fn new(bytes: usize, k: u32) -> Self {
        assert!(bytes > 0 && k > 0);
        Bloom {
            bits: vec![0; bytes],
            k,
        }
    }

    /// Sizes a filter for `n` items at roughly the given false-positive
    /// rate (standard m = −n·ln p / ln²2, k = m/n·ln 2 formulas).
    pub fn for_items(n: usize, fp_rate: f64) -> Self {
        let n = n.max(1) as f64;
        let p = fp_rate.clamp(1e-9, 0.5);
        let m_bits = (-n * p.ln() / (2f64.ln() * 2f64.ln())).ceil().max(8.0);
        let k = ((m_bits / n) * 2f64.ln()).round().clamp(1.0, 16.0);
        Bloom::new((m_bits / 8.0).ceil() as usize, k as u32)
    }

    /// Number of hash probes.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Filter size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: &[u8]) {
        let m = (self.bits.len() * 8) as u64;
        let (h1, h2) = hash2(item);
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// Whether the item is *possibly* present (false positives allowed,
    /// false negatives impossible).
    pub fn maybe_contains(&self, item: &[u8]) -> bool {
        self.contains_probe(Bloom::probe(item))
    }

    /// Precomputes the probe set for `item`, reusable against any number
    /// of filters of any size (see [`BloomProbe`]).
    pub fn probe(item: &[u8]) -> BloomProbe {
        let (h1, h2) = hash2(item);
        BloomProbe { h1, h2 }
    }

    /// Whether the probed item is *possibly* present — `maybe_contains`
    /// with the item hashing hoisted out.
    pub fn contains_probe(&self, probe: BloomProbe) -> bool {
        probe_hits(&self.bits, self.k, probe)
    }

    /// Serializes as `k:u8` + bits, for pointer attachment.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.bits.len() + 1);
        out.push(self.k as u8);
        out.extend_from_slice(&self.bits);
        Bytes::from(out)
    }

    /// Deserializes; `None` on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Option<Bloom> {
        if buf.len() < 2 || buf[0] == 0 {
            return None;
        }
        Some(Bloom {
            k: buf[0] as u32,
            bits: buf[1..].to_vec(),
        })
    }

    /// Fraction of set bits (load factor; > ~0.5 means the filter is
    /// overfull and false positives explode).
    pub fn load(&self) -> f64 {
        let ones: u32 = self.bits.iter().map(|b| b.count_ones()).sum();
        ones as f64 / (self.bits.len() * 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = Bloom::for_items(100, 0.01);
        let items: Vec<String> = (0..100).map(|i| format!("doc-{i}")).collect();
        for it in &items {
            f.insert(it.as_bytes());
        }
        for it in &items {
            assert!(f.maybe_contains(it.as_bytes()), "false negative on {it}");
        }
    }

    #[test]
    fn false_positive_rate_is_near_target() {
        let mut f = Bloom::for_items(500, 0.02);
        for i in 0..500 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..20_000)
            .filter(|i| f.maybe_contains(format!("absent-{i}").as_bytes()))
            .count() as f64
            / 20_000.0;
        assert!(fp < 0.05, "false-positive rate {fp}");
        assert!(f.load() < 0.6, "overfull: {}", f.load());
    }

    #[test]
    fn sizing_fits_attached_info_budget() {
        // 100 documents at 1% fp → ~120 bytes: attachable.
        let f = Bloom::for_items(100, 0.01);
        assert!(f.byte_len() <= 128, "{} bytes", f.byte_len());
        assert!(f.to_bytes().len() <= 129);
    }

    #[test]
    fn roundtrip_serialization() {
        let mut f = Bloom::for_items(50, 0.01);
        for i in 0..50 {
            f.insert(format!("x{i}").as_bytes());
        }
        let b = f.to_bytes();
        let g = Bloom::from_bytes(&b).unwrap();
        assert_eq!(f, g);
        assert!(Bloom::from_bytes(&[]).is_none());
        assert!(Bloom::from_bytes(&[0, 1, 2]).is_none());
    }

    #[test]
    fn probe_and_view_match_owned_path() {
        let mut f = Bloom::for_items(64, 0.02);
        for i in 0..64 {
            f.insert(format!("d{i}").as_bytes());
        }
        let wire = f.to_bytes();
        let view = BloomView::parse(&wire).unwrap();
        assert_eq!(view.k(), f.k());
        for i in 0..256 {
            let item = format!("d{i}");
            let probe = Bloom::probe(item.as_bytes());
            let owned = f.maybe_contains(item.as_bytes());
            assert_eq!(f.contains_probe(probe), owned);
            assert_eq!(view.contains_probe(probe), owned);
        }
        // View acceptance matches from_bytes.
        assert!(BloomView::parse(&[]).is_none());
        assert!(BloomView::parse(&[4]).is_none());
        assert!(BloomView::parse(&[0, 1, 2]).is_none());
    }

    #[test]
    fn empty_filter_contains_nothing_definitively() {
        let f = Bloom::new(32, 4);
        assert!(!f.maybe_contains(b"anything"));
        assert_eq!(f.load(), 0.0);
    }
}
