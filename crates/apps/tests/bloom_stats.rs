//! Statistical and equivalence guarantees for the bloom attachment
//! layer (PR 10's query-correctness tier):
//!
//! * the measured false-positive rate stays within 2× of the analytic
//!   `(1 − e^{−kn/m})^k` bound for every sizing the attachment budget
//!   allows;
//! * the double-hash function is pinned by regression vectors — a silent
//!   change would strand every filter already serialized into attached
//!   info across the network;
//! * the batched probe path (`PreparedSnapshot::probable_holders`) is
//!   result-identical to the per-pointer decode path
//!   (`select::probable_holders`) on arbitrary pointer populations,
//!   proven by proptest.

use bytes::Bytes;
use peerwindow_apps::bloom::Bloom;
use peerwindow_apps::query::{PreparedSnapshot, QueryPlan};
use peerwindow_apps::select;
use peerwindow_core::peer_list::PeerList;
use peerwindow_core::prelude::*;
use proptest::prelude::*;

/// The standard false-positive estimate for a bloom filter of `m` bits
/// and `k` probes holding `n` items.
fn analytic_fp(m_bits: f64, k: f64, n: f64) -> f64 {
    (1.0 - (-k * n / m_bits).exp()).powf(k)
}

#[test]
fn measured_fp_rate_is_within_twice_the_analytic_bound() {
    // (items, target fp): spans the attachment-budget range from a tight
    // 1% filter to an overloaded 10% one.
    const TRIALS: usize = 50_000;
    for &(n, target) in &[(100usize, 0.01f64), (500, 0.02), (1000, 0.1)] {
        let mut f = Bloom::for_items(n, target);
        for i in 0..n {
            f.insert(format!("present-{i}").as_bytes());
        }
        let m_bits = (f.byte_len() * 8) as f64;
        let analytic = analytic_fp(m_bits, f.k() as f64, n as f64);
        let hits = (0..TRIALS)
            .filter(|i| f.maybe_contains(format!("absent-{i}").as_bytes()))
            .count();
        let measured = hits as f64 / TRIALS as f64;
        // Upper: the 2× acceptance bound, plus three binomial sigmas of
        // sampling slack so the gate doesn't flake at these trial counts.
        let sigma = (analytic * (1.0 - analytic) / TRIALS as f64).sqrt();
        assert!(
            measured <= 2.0 * analytic + 3.0 * sigma,
            "n={n} target={target}: measured fp {measured:.5} exceeds \
             2×analytic {analytic:.5} (m={m_bits}, k={})",
            f.k()
        );
        // Lower sanity (only where the expected hit count is resolvable):
        // a filter measuring far *below* the analytic rate means the
        // probes collapsed onto few distinct bits and the test lost its
        // subject.
        if analytic * TRIALS as f64 >= 100.0 {
            assert!(
                measured >= analytic / 4.0,
                "n={n} target={target}: measured fp {measured:.5} \
                 implausibly below analytic {analytic:.5}"
            );
        }
    }
}

#[test]
fn no_false_negatives_at_any_tested_sizing() {
    for &(n, target) in &[(100usize, 0.01f64), (500, 0.02), (1000, 0.1)] {
        let mut f = Bloom::for_items(n, target);
        let items: Vec<String> = (0..n).map(|i| format!("present-{i}")).collect();
        for it in &items {
            f.insert(it.as_bytes());
        }
        for it in &items {
            assert!(f.maybe_contains(it.as_bytes()), "false negative on {it}");
        }
    }
}

/// The double-hash bases are wire format: filters serialized into
/// attached info only stay readable if `Bloom::probe` computes exactly
/// these values forever. (h2 is forced odd so it is coprime with any
/// power-of-two bit count.)
#[test]
fn double_hash_regression_vectors_are_pinned() {
    for &(item, h1, h2) in &[
        ("", 0xcbf29ce484222325u64, 0x84222325cbf29ce5u64),
        ("doc-42", 0x8c56e1546327e0b2, 0xb46754bb409dd47f),
        ("peerwindow", 0x0d60463647faebb9, 0x44dbf9bd0021c4ff),
        ("a", 0xaf63dc4c8601ec8c, 0x80e2848525252f09),
        (
            "the quick brown fox",
            0x59aeb7b40bd8c122,
            0xd370c8c741dd7e43,
        ),
    ] {
        let probe = Bloom::probe(item.as_bytes());
        assert_eq!(probe.h1, h1, "h1 drifted for {item:?}");
        assert_eq!(probe.h2, h2, "h2 drifted for {item:?}");
        assert_eq!(probe.h2 % 2, 1, "h2 must be odd for {item:?}");
    }
}

/// What one generated pointer carries as attached info.
#[derive(Clone, Debug)]
enum Attachment {
    /// A bloom filter over `docs.len()` synthetic documents, where each
    /// element is a document index into a shared universe.
    Filter { docs: Vec<u8>, fp_millis: u8 },
    /// A filter of one of three fixed `(k, m)` shapes, so that a list
    /// holds several filters per shape, interleaved in id order with the
    /// other shapes (the batched path sweeps one packed group per shape
    /// and has to put the hits back in id order).
    Shaped { docs: Vec<u8>, shape: u8 },
    /// Undecodable bytes (foreign attachment rot).
    Garbage(Vec<u8>),
    /// No attachment at all.
    Empty,
}

fn arb_attachment() -> impl Strategy<Value = Attachment> {
    let shaped = || {
        (proptest::collection::vec(any::<u8>(), 0..12), 0u8..3)
            .prop_map(|(docs, shape)| Attachment::Shaped { docs, shape })
    };
    prop_oneof![
        (proptest::collection::vec(any::<u8>(), 0..12), 1u8..=100u8)
            .prop_map(|(docs, fp_millis)| Attachment::Filter { docs, fp_millis }),
        // Twice: two in five attachments share one of the three shapes.
        shaped(),
        shaped(),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(Attachment::Garbage),
        Just(Attachment::Empty),
    ]
}

fn doc_name(i: u8) -> String {
    format!("doc-{i}")
}

fn build_list(attachments: &[Attachment]) -> PeerList {
    let mut list = PeerList::new(Prefix::EMPTY);
    for (slot, a) in attachments.iter().enumerate() {
        let bytes = match a {
            Attachment::Filter { docs, fp_millis } => {
                let mut f = Bloom::for_items(docs.len().max(1), *fp_millis as f64 / 1000.0);
                for &d in docs {
                    f.insert(doc_name(d).as_bytes());
                }
                f.to_bytes()
            }
            Attachment::Shaped { docs, shape } => {
                let (bytes, k) = [(8, 3), (39, 7), (1, 1)][*shape as usize];
                let mut f = Bloom::new(bytes, k);
                for &d in docs {
                    f.insert(doc_name(d).as_bytes());
                }
                f.to_bytes()
            }
            Attachment::Garbage(b) => Bytes::from(b.clone()),
            Attachment::Empty => Bytes::new(),
        };
        let id = NodeId(1 + slot as u128);
        list.insert(Pointer::with_info(
            id,
            Addr(slot as u64),
            Level::new((slot % 5) as u8),
            bytes,
        ));
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The PR's batched bloom evaluation — one precomputed probe swept
    /// across every bloom-bearing pointer of a prepared snapshot — must
    /// return exactly what the per-pointer decode-then-test path
    /// returns, on any mix of filters (of sized and of fixed, repeated
    /// `(k, m)` shapes), garbage, and empty attachments.
    #[test]
    fn batched_holders_equals_per_pointer_path(
        attachments in proptest::collection::vec(arb_attachment(), 0..32),
        query_doc in any::<u8>(),
    ) {
        let list = build_list(&attachments);
        let doc = doc_name(query_doc);

        // Reference: the select per-pointer path (full deserialization
        // and item hashing per pointer, straight off the live list).
        let reference: Vec<u128> = select::probable_holders(&list, doc.as_bytes())
            .iter()
            .map(|p| p.id.raw())
            .collect();

        // Batched: publish → prepare → one probe over the bloom subset.
        let mut publisher = SnapshotPublisher::new();
        publisher.maybe_publish_list(
            NodeIdentity::new(NodeId(u128::MAX), Level::new(0)),
            Addr(u64::MAX),
            &list,
            1,
        );
        let ps = PreparedSnapshot::prepare(publisher.reader().load());
        let batched: Vec<u128> = ps
            .probable_holders(doc.as_bytes())
            .iter()
            .map(|p| p.id.raw())
            .collect();
        prop_assert_eq!(&reference, &batched);

        // And the compiled plan (probe hashed once at build time) agrees.
        let plan = QueryPlan::holders(doc.as_bytes());
        let planned: Vec<u128> = plan.execute(&ps).iter().map(|p| p.id.raw()).collect();
        prop_assert_eq!(&reference, &planned);

        // No false negatives end to end: every pointer whose filter
        // actually holds the queried document is in the result.
        for (slot, a) in attachments.iter().enumerate() {
            if let Attachment::Filter { docs, .. } | Attachment::Shaped { docs, .. } = a {
                if docs.contains(&query_doc) {
                    let id = 1 + slot as u128;
                    prop_assert!(
                        batched.contains(&id),
                        "holder {id} missing for {doc}"
                    );
                }
            }
        }
    }
}
