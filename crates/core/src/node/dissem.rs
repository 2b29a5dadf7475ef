//! Dissemination (§2, §4.2): applying events under the dedup horizon,
//! routing reports to a top node of the subject's part (§4.4), and the
//! tree multicast's forwards.

use super::rpc::RpcKind;
use super::{NodeMachine, Output, Phase, LEAVE_SEQ};
use crate::event::{EventKind, StateEvent};
use crate::id::NodeId;
use crate::messages::Message;
use crate::multicast::{forward_steps, Target};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, TraceEventKind};

/// What the node remembers of events it has already handled: the
/// per-subject dedup horizon and the report cycle guard. Neither map
/// shrinks yet (ROADMAP "Where PeerWindow stops converging").
#[derive(Clone, Debug, Default)]
pub(super) struct Dedup {
    /// Per-subject dedup horizon: highest `(seq, origin_us)` applied,
    /// plus whether the freshest admitted event was a removal. An event
    /// is fresh when its seq OR its origin time exceeds the horizon; the
    /// origin clause lets a live node's later refresh override a false
    /// leave (whose seq is `LEAVE_SEQ` = max). The removal flag guards
    /// top-list admission: a stale piggybacked top list must not re-seed
    /// a node we know departed, because the leave event that purged it
    /// is already inside the horizon and can never fire again.
    seen: BTreeMap<NodeId, (u64, u64, bool)>,
    /// Event keys whose reports we already forwarded (cycle guard).
    forwarded_reports: BTreeSet<(NodeId, u64)>,
}

impl Dedup {
    /// Whether `event` is fresh w.r.t. the dedup horizon, updating it.
    fn admit(&mut self, event: &StateEvent) -> bool {
        let e = self.seen.entry(event.subject).or_insert((0, 0, false));
        // Removals carry the sentinel seq, so ordering falls entirely to
        // the origin timestamp: a removal that originated no later than
        // the subject's newest known announcement is stale information —
        // the subject has demonstrably outlived it. Without this, a
        // lingering copy of a refuted false obituary (§4.1 probe
        // misfire) re-kills the entry on arrival, since the sentinel
        // always wins the seq comparison.
        let stale = if event.kind.is_removal() {
            event.origin_us <= e.1
        } else {
            event.seq <= e.0 && event.origin_us <= e.1
        };
        if stale {
            return false;
        }
        e.0 = e.0.max(event.seq);
        e.1 = e.1.max(event.origin_us);
        e.2 = event.kind.is_removal();
        true
    }

    /// Whether the freshest event we applied for `id` was a removal —
    /// i.e. the node departed and nothing newer has overridden that.
    pub(super) fn known_departed(&self, id: NodeId) -> bool {
        self.seen.get(&id).is_some_and(|e| e.2)
    }

    /// Records that we forward the report keyed `key`; `false` when we
    /// already did (stale recorded levels could otherwise bounce a
    /// report between two nodes forever).
    fn first_forward(&mut self, key: (NodeId, u64)) -> bool {
        self.forwarded_reports.insert(key)
    }
}

/// The leave event for `subject`: announced by the node itself on a
/// graceful shutdown, or by its detector (who does not know the
/// subject's own counter, hence the terminal `LEAVE_SEQ`).
pub(super) fn leave_event(subject: Target, now_us: u64) -> StateEvent {
    StateEvent {
        subject: subject.id,
        addr: subject.addr,
        level: subject.level,
        kind: EventKind::Leave,
        seq: LEAVE_SEQ,
        origin_us: now_us,
        info: Bytes::new(),
    }
}

impl NodeMachine {
    pub(super) fn on_report(
        &mut self,
        now_us: u64,
        reply_to: Target,
        event: StateEvent,
        outs: &mut Vec<Output>,
    ) {
        // §4.4: the multicast must be rooted at a top node of the
        // *subject's* part. Acknowledge only if we can root it or
        // forward it toward someone who can — a silent drop makes
        // the reporter time out, purge us from its top list, and
        // converge onto its real part top (stale cross-part
        // entries are unverifiable any other way).
        let key = event.key();
        let covers = self.eigenstring().contains(event.subject);
        if event.subject == self.me && event.kind.is_removal() && self.phase == Phase::Active {
            // Someone reported our death to us. We are the living
            // proof it is false: ack (so the reporter stops
            // retrying) and refute instead of rooting it.
            let tops = self.piggyback_tops();
            self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
            self.refute_false_obituary(now_us, &event, outs);
        } else if covers && self.believes_top() {
            let tops = self.piggyback_tops();
            self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
            self.start_multicast(now_us, event, outs);
        } else {
            let stronger_top = self
                .tops
                .entries()
                .iter()
                .filter(|t| {
                    t.level.value() < self.level.value()
                        && t.id != self.me
                        && t.id.prefix(t.level.value()).contains(event.subject)
                })
                .min_by_key(|t| (t.level.value(), t.id))
                .copied();
            // Cycle guard: forward each event key at most once.
            let first_time = self.dedup.first_forward(key);
            match stronger_top {
                Some(top) if first_time => {
                    let tops = self.piggyback_tops();
                    self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
                    self.send_rpc(outs, top, Message::Report { event }, RpcKind::Report, 0);
                }
                _ if covers => {
                    let tops = self.piggyback_tops();
                    self.send(outs, reply_to, Message::ReportAck { key, tops }, 0);
                    self.start_multicast(now_us, event, outs);
                }
                _ => { /* silent: reporter retries elsewhere */ }
            }
        }
    }

    pub(super) fn on_report_ack(&mut self, key: (NodeId, u64), tops: Vec<Target>) {
        self.refresh_tops(tops);
        self.report_dead.clear();
        self.resolve_rpc(|p| matches!(&p.msg, Message::Report { event } if event.key() == key));
    }

    pub(super) fn on_multicast(
        &mut self,
        now_us: u64,
        reply_to: Target,
        event: StateEvent,
        step: u8,
        outs: &mut Vec<Output>,
    ) {
        let key = event.key();
        self.send(outs, reply_to, Message::MulticastAck { key }, 0);
        // Our own false obituary is refuted, not forwarded — the subtree
        // assigned to us keeps us instead.
        if self.apply_event(now_us, &event) && !self.refute_false_obituary(now_us, &event, outs) {
            self.forward_event(&event, step, outs);
        }
    }

    pub(super) fn on_multicast_ack(&mut self, from: NodeId, key: (NodeId, u64)) {
        self.resolve_rpc(|p| {
            matches!(&p.msg, Message::Multicast { event, .. } if event.key() == key)
                && p.target.id == from
        });
    }

    /// `Command::ChangeInfo`: adopt `info` and announce it (§3).
    pub(super) fn change_info(&mut self, now_us: u64, info: Bytes, outs: &mut Vec<Output>) {
        self.info = info;
        if self.phase == Phase::Active {
            self.seq += 1;
            let event = self.self_event(now_us, EventKind::InfoChange);
            self.report_event(now_us, event, outs);
        }
    }

    pub(super) fn self_event(&self, now_us: u64, kind: EventKind) -> StateEvent {
        StateEvent {
            subject: self.me,
            addr: self.addr,
            level: self.level,
            kind,
            seq: self.seq,
            origin_us: now_us,
            info: self.info.clone(),
        }
    }

    /// Routes an event towards a top node (or multicasts directly when we
    /// are a top node ourselves).
    pub(super) fn report_event(&mut self, now_us: u64, event: StateEvent, outs: &mut Vec<Output>) {
        if self.believes_top() && self.phase == Phase::Active {
            self.start_multicast(now_us, event, outs);
            return;
        }
        let mut dead = self.report_dead.clone();
        // Never report to ourselves: a node able to root this multicast
        // would have taken the believes_top branch above. Our own
        // top-list entry goes stale the instant we shift off level 0 —
        // picking it would root the multicast at our new (narrower)
        // level and the rest of the id space would never hear the event.
        // (Found by the invariants sweep: [Join, Shift(seed, 1)].)
        dead.push(self.me);
        // Prefer top-list entries that actually cover the subject (their
        // eigenstring prefixes its id); in a split system the others
        // belong to foreign parts and cannot root this multicast.
        let covering: Vec<Target> = self
            .tops
            .entries()
            .iter()
            .filter(|t| {
                !dead.contains(&t.id) && t.id.prefix(t.level.value()).contains(event.subject)
            })
            .copied()
            .collect();
        let top = if covering.is_empty() {
            self.tops.choose(&dead, |n| self.rand_below(n))
        } else {
            Some(covering[self.rand_below(covering.len())])
        };
        let Some(top) = top else {
            // All tops stale: fall back to asking any peer (§4.5).
            self.fetch_top_list(outs, Some(event));
            return;
        };
        self.send_rpc(outs, top, Message::Report { event }, RpcKind::Report, 0);
    }

    /// Applies an event locally and forwards it from `step = our level`
    /// (the root role in §4.2).
    pub(super) fn start_multicast(
        &mut self,
        now_us: u64,
        event: StateEvent,
        outs: &mut Vec<Output>,
    ) {
        if self.apply_event(now_us, &event) {
            let step = self.level.value();
            #[cfg(feature = "trace")]
            self.tr(
                CauseId::new(event.subject.0, event.seq),
                TraceEventKind::McastRoot {
                    class: Self::trace_event_class(&event.kind),
                    step,
                },
            );
            self.forward_event(&event, step, outs);
        }
    }

    /// Computes and issues the §4.2 forwards for an event we are
    /// responsible for at `step`.
    pub(super) fn forward_event(&mut self, event: &StateEvent, step: u8, outs: &mut Vec<Output>) {
        let forwards = forward_steps(&self.peers, self.me, step, event.subject);
        for f in forwards {
            self.stats.forwards += 1;
            #[cfg(feature = "trace")]
            self.tr(
                CauseId::new(event.subject.0, event.seq),
                TraceEventKind::McastHop {
                    class: Self::trace_event_class(&event.kind),
                    child: f.target.id.0,
                    step: f.next_step,
                },
            );
            let msg = Message::Multicast {
                event: event.clone(),
                step: f.next_step,
            };
            let delay_us = self.cfg.processing_delay_us;
            self.send_rpc(outs, f.target, msg, RpcKind::McastForward, delay_us);
        }
    }

    /// Applies an event to the local peer list; returns `true` when fresh.
    /// Our own events coming back (we initiated them) are fresh only when
    /// we have not seen them, so the initiating call forwards once.
    pub(super) fn apply_event(&mut self, now_us: u64, event: &StateEvent) -> bool {
        let subject = event.subject;
        if !self.dedup.admit(event) {
            self.stats.events_duped += 1;
            return false;
        }
        if subject == self.me {
            return true;
        }
        self.stats.events_applied += 1;
        // Keep the top-node list's recorded levels in sync (stale levels
        // there misroute reports and break the believes_top judgement).
        if event.kind.is_removal() {
            self.tops.remove(subject);
        } else if event.level.is_top() {
            // A level-0 subject IS a top node: admit it, don't just sync
            // an existing entry. Piggyback alone never seeds the list of
            // a node that was born top (its own FindTop replies are
            // self-only), and an empty list leaves believes_top()
            // vacuously true after that node later lowers itself — it
            // then answers FindTop with itself and roots joins below
            // step 0, so part of the id space never hears them. Found by
            // the invariants sweep: [Join, Shift(seed, 1), Join].
            self.refresh_tops([Target {
                id: subject,
                addr: event.addr,
                level: event.level,
            }]);
        } else {
            self.tops.note_level(subject, event.level);
        }
        if !self.eigenstring().contains(subject) {
            // Outside our scope: we still forward (we may be a top node of
            // a part that covers it — then it IS in scope; otherwise this
            // is a routing artefact) but do not store.
            return true;
        }
        match event.kind {
            EventKind::Leave => {
                if let Some(old) = self.peers.remove(subject) {
                    if old.first_seen_us > 0 && event.origin_us > old.first_seen_us {
                        self.lifetimes
                            .record(old.level, event.origin_us - old.first_seen_us);
                    }
                }
                // Purge the top-node list too: a departed top would
                // otherwise absorb (and lose) reports until every node
                // individually timed out against it (§4.5's lazy
                // maintenance heals much faster with this).
                self.tops.remove(subject);
                // A later-originating event (a rejoin, or a refresh from a
                // falsely-declared node) re-admits via the origin clause.
            }
            EventKind::Join => {
                let ptr = event.to_pointer(now_us);
                self.peers.insert(ptr);
            }
            EventKind::LevelShift { .. } | EventKind::InfoChange | EventKind::Refresh => {
                if !self
                    .peers
                    .update(subject, event.level, event.info.clone(), now_us)
                {
                    // Absent pointer: §4.6 — the refresh revives it. The
                    // node's true join time is unknown; a zero first-seen
                    // keeps it out of the lifetime estimator.
                    let mut ptr = event.to_pointer(now_us);
                    ptr.first_seen_us = 0;
                    self.peers.insert(ptr);
                }
            }
        }
        true
    }
}
