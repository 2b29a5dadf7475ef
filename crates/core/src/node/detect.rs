//! Failure detection (§4.1): one ring probe per interval, the
//! cross-level fallback for lonely peers, obituaries, and the
//! self-refutation of a false one (DESIGN.md gap 13).

use super::dissem::leave_event;
use super::rpc::RpcKind;
use super::{NodeMachine, Output, Phase};
use crate::event::{EventKind, StateEvent};
use crate::id::{NodeId, ID_BITS};
use crate::messages::Message;
use crate::multicast::Target;

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, TraceEventKind};

impl NodeMachine {
    pub(super) fn on_probe_ack(&mut self, from: NodeId) {
        self.resolve_rpc(|p| matches!(p.kind, RpcKind::Probe) && p.target.id == from);
    }

    pub(super) fn probe_successor(&mut self, outs: &mut Vec<Output>) {
        // Only one outstanding probe at a time.
        if self.rpc_in_flight(|k| matches!(k, RpcKind::Probe)) {
            return;
        }
        let succ = self
            .peers
            .ring_successor_in_group(self.me, self.eigenstring(), self.level)
            // §4.1 probes within the same-level eigenstring group, but
            // heterogeneous levels can leave that group a singleton: after
            // a neighbor shifts level it is no longer anyone's group
            // successor, and its crash would go undetected forever. Found
            // by the invariants sweep (trace [Join, Shift, Crash] ends
            // with a permanently stale peer entry). Fall back to the
            // whole-peer-list ring — same one-probe-per-interval cost.
            .or_else(|| self.peers.ring_successor(self.me));
        // Cross-level fallback (ROADMAP "lazy detection of off-level
        // crashes", found by the model checker at depth 4): a peer alone
        // in its eigenstring group — e.g. the seed after shifting to a
        // level nobody else occupies — is in *nobody's* group ring, and
        // with no lifetime samples at its level, expiry never fires
        // either, so its crash would hold a departed pointer forever.
        // The XOR-nearest observer (computed over its own view, peers
        // plus self — near-identical views elect the same node) therefore
        // alternates its probe interval between the normal ring successor
        // and a round-robin over such "lonely" peers. Responsibility MUST
        // be unique-ish: if every observer probed every lonely peer, a
        // deep-level node in an N-node system would absorb N probe/ack
        // pairs per interval — sustained load that keeps a small-budget
        // node (the usual reason to sit deep) from ever climbing back
        // (found by the adaptation recovery test). Detection cost is
        // bounded: one probe per interval as before, the ring cadence at
        // worst halves for the one responsible observer, and if that
        // observer dies its own obituary hands the role to the next
        // nearest. A false positive is safe — the obituary's courtesy
        // copy lets a live target refute (DESIGN.md gap 13).
        let round = self.stats.probes_sent;
        let lonely_round = succ.is_none() || round % 2 == 1;
        // Only a lonely round reads the list. A debug build with
        // invariants still builds it each tick, as a differential test of
        // the fast selection against its quadratic definition; release
        // builds never pay for the reference.
        let lonely = if lonely_round || cfg!(all(feature = "invariants", debug_assertions)) {
            self.lonely_peers()
        } else {
            Vec::new()
        };
        #[cfg(feature = "invariants")]
        debug_assert_eq!(
            lonely,
            self.lonely_reference(),
            "{:?}: lonely-peer selection diverged from its reference",
            self.me
        );
        let target = if lonely_round && !lonely.is_empty() {
            lonely[(round / 2) as usize % lonely.len()]
        } else {
            let Some(succ) = succ else { return };
            Target::from(succ)
        };
        self.stats.probes_sent += 1;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::NONE,
            TraceEventKind::ProbeSent {
                target: target.id.0,
            },
        );
        self.send_rpc(outs, target, Message::Probe, RpcKind::Probe, 0);
    }

    /// The lonely peers this node answers for, in ascending id order:
    /// alone in their eigenstring group as this list sees it, not in our
    /// own group, and no held peer XOR-nearer to them than we are.
    ///
    /// Exactly `lonely_reference`, in one pass: the group test is
    /// read off the level index, and the nearness scan is cut to the ids
    /// sharing `lcp(me, p)` bits with `p` — any `q` outside that prefix
    /// differs from `p` in a bit where `me` agrees with it, so
    /// `q ^ p > me ^ p` and `q` can never fail the test.
    pub(super) fn lonely_peers(&self) -> Vec<Target> {
        self.peers
            .group_singletons()
            .into_iter()
            .filter(|&(id, level)| {
                let group = level.eigenstring(id);
                !(level == self.level && group == self.eigenstring()) && {
                    let mine = self.me.0 ^ id.0;
                    self.peers
                        .iter_prefix(id.prefix(self.me.common_prefix_len(id)))
                        .all(|q| q.id == id || (q.id.0 ^ id.0) >= mine)
                }
            })
            .filter_map(|(id, _)| self.peers.get(id))
            .map(Target::from)
            .collect()
    }

    /// `lonely_peers` by definition, quadratic in the list: what
    /// the proptest and every invariants-enabled probe tick compare the
    /// fast selection against.
    #[cfg(any(test, feature = "invariants"))]
    pub(super) fn lonely_reference(&self) -> Vec<Target> {
        self.peers
            .iter()
            .filter(|p| {
                let group = p.level.eigenstring(p.id);
                self.peers.count_group(group, p.level) == 1
                    && !(p.level == self.level && group == self.eigenstring())
                    && {
                        let mine = self.me.0 ^ p.id.0;
                        self.peers
                            .iter()
                            .all(|q| q.id == p.id || (q.id.0 ^ p.id.0) >= mine)
                    }
            })
            .map(Target::from)
            .collect()
    }

    pub(super) fn on_probe_failure(&mut self, now_us: u64, dead: Target, outs: &mut Vec<Output>) {
        self.stats.failures_detected += 1;
        // The detector is an observer too: feed the departed node's
        // lifetime into the §4.6 estimator, exactly as applying the
        // leave event would — `apply_event`'s Leave arm cannot, because
        // by the time the self-originated event reaches it the pointer
        // is already gone. Without this the detector keeps the generous
        // no-estimate refresh default while every *other* observer
        // tightens its expiry horizon from the same departure, and the
        // detector's own entry is the first to be (wrongly) expired.
        // Found by the depth-4 sweep: [Join(1), Join(2), Crash(2),
        // Shift(0, 1)].
        if let Some(old) = self.peers.remove(dead.id) {
            if old.first_seen_us > 0 && now_us > old.first_seen_us {
                self.lifetimes.record(old.level, now_us - old.first_seen_us);
            }
        }
        outs.push(Output::FailureDetected { dead: dead.id });
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::new(dead.id.0, super::LEAVE_SEQ),
            TraceEventKind::Obituary { subject: dead.id.0 },
        );
        let event = leave_event(dead, now_us);
        self.report_event(now_us, event.clone(), outs);
        // Courtesy copy straight to the condemned node. The §4.2
        // dissection excludes the changing node from its own audience,
        // so a false positive (three lost probe acks, §4.1) would
        // otherwise stay invisible until its next periodic refresh —
        // past the horizon of anyone who expires it first. Truly dead
        // nodes ignore the datagram; live ones refute immediately (see
        // `refute_false_obituary`). `ID_BITS` as the step makes the
        // copy a leaf: a non-Active receiver that still processes it
        // computes zero forwards.
        if !self.gap13_suppressed() {
            let copy = Message::Multicast {
                event,
                step: ID_BITS,
            };
            self.send(outs, dead, copy, 0);
        }
        // §4.1: "redirects its probing to the next neighbor, and then
        // immediately detects C's failure" — probe the new successor now.
        self.probe_successor(outs);
    }

    /// §4.6 false-obituary refutation: we just heard our own departure
    /// announced while very much alive (three lost probe acks suffice at
    /// Internet loss rates, §4.1). Re-announce immediately — the
    /// refresh's later origin re-admits us everywhere and demotes
    /// lingering obituary copies to duplicates (see `Dedup::admit`).
    /// Waiting for the periodic §4.6 refresh instead would leave us
    /// invisible for up to a full refresh period. Returns whether the
    /// event was such an obituary (and was refuted).
    pub(super) fn refute_false_obituary(
        &mut self,
        now_us: u64,
        event: &StateEvent,
        outs: &mut Vec<Output>,
    ) -> bool {
        if event.subject != self.me || !event.kind.is_removal() || self.phase != Phase::Active {
            return false;
        }
        if self.gap13_suppressed() {
            return false;
        }
        self.last_self_refresh_us = now_us;
        self.seq += 1;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::new(self.me.0, self.seq),
            TraceEventKind::Refutation,
        );
        let refute = self.self_event(now_us, EventKind::Refresh);
        self.report_event(now_us, refute, outs);
        true
    }
}
