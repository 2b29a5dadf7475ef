//! The `BTreeMap`-backed peer list that [`super::PeerList`] replaced,
//! kept as the definition its differential proptest compares against:
//! the same operations and counters, every entry in one ordered map.
//! Only the change log is left out (`snapshot.rs`'s proptest covers it).

use crate::id::{NodeId, Prefix, ID_BITS};
use crate::level::{Level, NodeIdentity};
use crate::multicast::{Forward, Target};
use crate::pointer::Pointer;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, RangeBounds};

#[derive(Clone, Debug, Default)]
pub(super) struct ReferenceList {
    scope: Prefix,
    entries: BTreeMap<NodeId, Pointer>,
    by_level: Vec<BTreeSet<NodeId>>,
    pub(super) generation: u64,
    pub(super) content_generation: u64,
}

impl ReferenceList {
    pub(super) fn set_scope(&mut self, scope: Prefix) {
        self.generation += 1;
        self.content_generation += 1;
        self.scope = scope;
        if !scope.is_empty() {
            let out_of_scope: Vec<NodeId> = self
                .entries
                .keys()
                .copied()
                .filter(|id| !scope.contains(*id))
                .collect();
            for id in out_of_scope {
                self.remove(id);
            }
        }
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn get(&self, id: NodeId) -> Option<&Pointer> {
        self.entries.get(&id)
    }

    pub(super) fn insert(&mut self, ptr: Pointer) -> Option<Pointer> {
        let (id, level, addr, info) = (ptr.id, ptr.level, ptr.addr, ptr.info.clone());
        self.generation += 1;
        let prev = self.entries.insert(id, ptr);
        if prev
            .as_ref()
            .is_none_or(|old| old.level != level || old.addr != addr || old.info != info)
        {
            self.content_generation += 1;
        }
        if let Some(ref old) = prev {
            if old.level == level {
                return prev;
            }
            self.unindex(id, old.level);
        }
        self.index(id, level);
        prev
    }

    pub(super) fn remove(&mut self, id: NodeId) -> Option<Pointer> {
        let prev = self.entries.remove(&id);
        if let Some(ref p) = prev {
            self.generation += 1;
            self.content_generation += 1;
            self.unindex(id, p.level);
        }
        prev
    }

    pub(super) fn update_level(&mut self, id: NodeId, level: Level) -> bool {
        let Some(old) = self.entries.get(&id).map(|p| p.level) else {
            return false;
        };
        if old != level {
            self.generation += 1;
            self.content_generation += 1;
            self.unindex(id, old);
            self.index(id, level);
            if let Some(p) = self.entries.get_mut(&id) {
                p.level = level;
            }
        }
        true
    }

    pub(super) fn update_info(&mut self, id: NodeId, info: bytes::Bytes, now_us: u64) -> bool {
        let Some(p) = self.entries.get_mut(&id) else {
            return false;
        };
        if p.info != info {
            self.content_generation += 1;
        }
        p.info = info;
        p.last_refresh_us = now_us;
        self.generation += 1;
        true
    }

    pub(super) fn touch(&mut self, id: NodeId, now_us: u64) -> bool {
        let Some(p) = self.entries.get_mut(&id) else {
            return false;
        };
        p.last_refresh_us = now_us;
        self.generation += 1;
        true
    }

    /// `update_level` then `update_info`, as the list's `update` is
    /// documented to be.
    pub(super) fn update(
        &mut self,
        id: NodeId,
        level: Level,
        info: bytes::Bytes,
        now_us: u64,
    ) -> bool {
        self.update_level(id, level) && self.update_info(id, info, now_us)
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &Pointer> + '_ {
        self.entries.values()
    }

    pub(super) fn range(
        &self,
        range: impl RangeBounds<NodeId>,
    ) -> impl Iterator<Item = &Pointer> + '_ {
        self.entries.range(range).map(|(_, p)| p)
    }

    pub(super) fn ring_successor_in_group(
        &self,
        me: NodeId,
        group: Prefix,
        level: Level,
    ) -> Option<&Pointer> {
        let set = self.by_level.get(usize::from(level.value()))?;
        let range = group.id_range();
        let (start, end) = (*range.start(), *range.end());
        let after = set
            .range((Bound::Excluded(me), Bound::Included(end)))
            .next();
        let id = match after {
            Some(&id) => id,
            None => *set.range(start..=end).find(|&&id| id != me)?,
        };
        if id == me {
            return None;
        }
        self.entries.get(&id)
    }

    pub(super) fn group_singletons(&self) -> Vec<(NodeId, Level)> {
        let mut out = Vec::new();
        for (l, set) in (0..=u8::MAX).zip(&self.by_level) {
            if l == 0 {
                if set.len() == 1 {
                    out.extend(set.iter().map(|&id| (id, Level::TOP)));
                }
                continue;
            }
            let mut prev: Option<NodeId> = None;
            let mut ids = set.iter().copied().peekable();
            while let Some(id) = ids.next() {
                let in_group = |other: NodeId| id.common_prefix_len(other) >= l;
                if !prev.is_some_and(in_group) && !ids.peek().copied().is_some_and(in_group) {
                    out.push((id, Level(l)));
                }
                prev = Some(id);
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    pub(super) fn ring_successor(&self, me: NodeId) -> Option<&Pointer> {
        self.entries
            .range((Bound::Excluded(me), Bound::Unbounded))
            .next()
            .or_else(|| self.entries.iter().next())
            .map(|(_, p)| p)
            .filter(|p| p.id != me)
    }

    pub(super) fn forwards(&self, local: NodeId, step: u8, changing: NodeId) -> Vec<Forward> {
        let shared = local.common_prefix_len(changing);
        let mut filled = 0u128;
        let mut out = Vec::new();
        for (l, set) in (0..=ID_BITS).zip(&self.by_level) {
            if shared < l.min(step) {
                continue;
            }
            let range = if l > step {
                changing.prefix(l)
            } else {
                local.prefix(step)
            };
            let end = range.range_end();
            let mut ids = set.range(range.range_start()..);
            while let Some(&id) = ids.next() {
                if id > end {
                    break;
                }
                if id == local || id == changing {
                    continue;
                }
                let s = local.common_prefix_len(id);
                let slot = 1u128 << s;
                if filled & slot == 0 {
                    filled |= slot;
                    if let Some(p) = self.entries.get(&id) {
                        out.push(Forward {
                            next_step: s + 1,
                            target: Target::from(p),
                        });
                    }
                }
                let past = id.prefix(s + 1).range_end();
                if past >= end {
                    break;
                }
                ids = set.range(NodeId(past.0 + 1)..);
            }
        }
        out
    }

    pub(super) fn expire(&mut self, mut deadline_for: impl FnMut(Level) -> u64) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .entries
            .values()
            .filter(|p| p.last_refresh_us < deadline_for(p.level))
            .map(|p| p.id)
            .collect();
        for &id in &stale {
            self.remove(id);
        }
        stale
    }

    pub(super) fn audience_members(&self, changing: NodeId) -> Vec<NodeIdentity> {
        self.entries
            .values()
            .filter(|p| p.identity().covers(changing))
            .map(|p| p.identity())
            .collect()
    }

    pub(super) fn level_histogram(&self) -> Vec<usize> {
        self.by_level.iter().map(BTreeSet::len).collect()
    }

    fn index(&mut self, id: NodeId, level: Level) {
        let l = usize::from(level.value());
        if self.by_level.len() <= l {
            self.by_level.resize_with(l + 1, BTreeSet::new);
        }
        self.by_level[l].insert(id);
    }

    fn unindex(&mut self, id: NodeId, level: Level) {
        if let Some(set) = self.by_level.get_mut(usize::from(level.value())) {
            set.remove(&id);
        }
        while matches!(self.by_level.last(), Some(s) if s.is_empty()) {
            self.by_level.pop();
        }
    }
}
