//! Peer-selection queries over a collected peer list.
//!
//! The whole point of collecting pointers (§1): "the more pointers a node
//! collects, the more satisfactory partners it may find locally". These
//! helpers implement the §1/§3 use cases as local queries: partners by
//! predicate over the typed info, k-lightest nodes for load balancing,
//! document holders through bloom attachments, and the "look at the level
//! value for powerful nodes" heuristic.

use crate::bloom::Bloom;
use crate::info::{InfoError, InfoMap};
use peerwindow_core::peer_list::PeerList;
use peerwindow_core::pointer::Pointer;

/// Decodes a pointer's attached info as an [`InfoMap`] (empty on decode
/// failure — foreign attachments are not ours to judge). Callers that
/// need to *observe* decode failures — the query engine's
/// `decode_errors` counter — use [`try_info_of`] instead.
pub fn info_of(p: &Pointer) -> InfoMap {
    try_info_of(p).unwrap_or_default()
}

/// Decodes a pointer's attached info as an [`InfoMap`], surfacing the
/// decode failure instead of swallowing it. Empty info decodes to an
/// empty map (absence of attachment is not rot).
pub fn try_info_of(p: &Pointer) -> Result<InfoMap, InfoError> {
    InfoMap::decode(&p.info)
}

/// All pointers whose decoded info satisfies `pred`.
pub fn find_partners<'a>(
    list: &'a PeerList,
    mut pred: impl FnMut(&Pointer, &InfoMap) -> bool + 'a,
) -> impl Iterator<Item = &'a Pointer> + 'a {
    list.iter().filter(move |p| pred(p, &info_of(p)))
}

/// The `k` pointers with the smallest value of `key` (load balancing,
/// cheapest-bid selection), equal values in id order. Pointers without
/// the field are skipped, and so are those advertising a NaN: it is not
/// a measurement, and one NaN among the keys leaves `sort_by` without
/// the total order it panics for want of.
pub fn k_smallest_by<'a>(list: &'a PeerList, key: &str, k: usize) -> Vec<&'a Pointer> {
    let mut scored: Vec<(f64, &Pointer)> = list
        .iter()
        .filter_map(|p| info_of(p).get_f64(key).map(|v| (v, p)))
        .filter(|(v, _)| !v.is_nan())
        .collect();
    // Stable over an id-ordered scan: ties (±0.0 included) keep id order.
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(_, p)| p).collect()
}

/// Pointers that *probably* hold `document`, judged from a bloom filter
/// attached under the raw info bytes (the LOCKSS pattern from §3).
/// False positives are possible; verify before relying on a holder.
pub fn probable_holders<'a>(list: &'a PeerList, document: &'a [u8]) -> Vec<&'a Pointer> {
    list.iter()
        .filter(|p| {
            Bloom::from_bytes(&p.info)
                .map(|f| f.maybe_contains(document))
                .unwrap_or(false)
        })
        .collect()
}

/// The §3 "powerful nodes" heuristic: pointers at the strongest levels
/// ("nodes with higher bandwidth also tend to stay longer and contribute
/// more resources"). Returns up to `k`, strongest level first.
pub fn strongest_nodes(list: &PeerList, k: usize) -> Vec<&Pointer> {
    let mut all: Vec<&Pointer> = list.iter().collect();
    all.sort_by_key(|p| (p.level.value(), p.id));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerwindow_core::prelude::*;

    fn list_with(entries: Vec<(u128, u8, bytes::Bytes)>) -> PeerList {
        let mut l = PeerList::new(Prefix::EMPTY);
        for (id, level, info) in entries {
            l.insert(Pointer::with_info(
                NodeId(id),
                Addr(id as u64),
                Level::new(level),
                info,
            ));
        }
        l
    }

    fn os_info(os: &str, load: f64) -> bytes::Bytes {
        let mut m = InfoMap::new();
        m.set_str("os", os).set_f64("load", load);
        m.encode().unwrap()
    }

    #[test]
    fn partners_by_predicate() {
        let l = list_with(vec![
            (1, 0, os_info("linux", 0.2)),
            (2, 1, os_info("windows", 0.9)),
            (3, 2, os_info("linux", 0.5)),
        ]);
        // Pastiche: same-OS partners for dedup.
        let same: Vec<u128> = find_partners(&l, |_, i| i.get_str("os") == Some("linux"))
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(same, vec![1, 3]);
        // Lillibridge: different-OS partners against correlated failure.
        let diff: Vec<u128> = find_partners(&l, |_, i| {
            i.get_str("os").is_some() && i.get_str("os") != Some("linux")
        })
        .map(|p| p.id.raw())
        .collect();
        assert_eq!(diff, vec![2]);
    }

    #[test]
    fn k_lightest_for_load_balancing() {
        let l = list_with(vec![
            (1, 0, os_info("a", 0.9)),
            (2, 0, os_info("b", 0.1)),
            (3, 0, os_info("c", 0.4)),
            (4, 0, bytes::Bytes::new()), // no load advertised: skipped
        ]);
        let picks = k_smallest_by(&l, "load", 2);
        let ids: Vec<u128> = picks.iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn k_smallest_skips_nan_and_ties_by_id() {
        // 60 peers: id 7 advertises NaN (rustc >= 1.81's sort_by panics
        // on the non-total order it used to cause), ids 20 and 21 tie at
        // -0.0 / +0.0 below everyone else's positive load.
        let l = list_with(
            (1..=60u128)
                .map(|id| {
                    let load = match id {
                        7 => f64::NAN,
                        20 => -0.0,
                        21 => 0.0,
                        _ => ((id * 37) % 61) as f64 + 1.0,
                    };
                    (id, 0, os_info("a", load))
                })
                .collect(),
        );
        let picks = k_smallest_by(&l, "load", 100);
        let all: Vec<u128> = picks.iter().map(|p| p.id.raw()).collect();
        assert_eq!(all.len(), 59);
        assert!(!all.contains(&7));
        assert_eq!(all[..2], [20, 21]);
        let loads: Vec<f64> = picks
            .iter()
            .map(|p| info_of(p).get_f64("load").unwrap())
            .collect();
        assert!(loads.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bloom_holders_query() {
        let mut holder_filter = Bloom::for_items(10, 0.01);
        holder_filter.insert(b"doc-42");
        let l = list_with(vec![
            (1, 0, holder_filter.to_bytes()),
            (2, 0, Bloom::for_items(10, 0.01).to_bytes()),
            (3, 0, bytes::Bytes::from_static(b"not a filter")),
        ]);
        let holders = probable_holders(&l, b"doc-42");
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].id.raw(), 1);
    }

    #[test]
    fn strongest_nodes_heuristic() {
        let l = list_with(vec![
            (10, 3, bytes::Bytes::new()),
            (20, 0, bytes::Bytes::new()),
            (30, 1, bytes::Bytes::new()),
            (40, 0, bytes::Bytes::new()),
        ]);
        let ids: Vec<u128> = strongest_nodes(&l, 3).iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![20, 40, 30]);
    }
}
