//! Joining, raising and leaving (§4.3), with the §4.5 top-node-list
//! plumbing every reply piggybacks: both sides of the four-step join,
//! the download that completes a level raise, post-join reconciliation,
//! and the graceful leave.

use super::dissem::leave_event;
use super::rpc::RpcKind;
use super::{NodeMachine, Output, Phase, Timer};
use crate::error::ProtocolError;
use crate::event::{EventKind, StateEvent};
use crate::id::{NodeId, Prefix};
use crate::level::Level;
use crate::messages::Message;
use crate::model::ModelParams;
use crate::multicast::Target;
use crate::pointer::Pointer;

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, JoinPhase, TraceEventKind};

impl NodeMachine {
    /// §4.3 step 1, answering side.
    pub(super) fn on_find_top(&mut self, reply_to: Target, joiner: NodeId, outs: &mut Vec<Output>) {
        // Return tops covering the joiner when we know any;
        // otherwise our whole top list (the joiner will hop on).
        let mut tops = self.piggyback_tops();
        tops.retain(|t| t.id != joiner);
        let covering: Vec<Target> = tops
            .iter()
            .copied()
            .filter(|t| t.id.prefix(t.level.value()).contains(joiner))
            .collect();
        let reply = if covering.is_empty() { tops } else { covering };
        self.send(outs, reply_to, Message::FindTopReply { tops: reply }, 0);
    }

    pub(super) fn on_find_top_reply(&mut self, tops: Vec<Target>, outs: &mut Vec<Output>) {
        if self.phase != Phase::FindingTop {
            // Late duplicate; top list refresh is still useful.
            self.refresh_tops(tops);
            return;
        }
        self.take_rpc(|p| matches!(p.kind, RpcKind::JoinFindTop));
        let covering: Vec<Target> = tops
            .iter()
            .copied()
            .filter(|t| t.id.prefix(t.level.value()).contains(self.me))
            .collect();
        if let Some(&top) = covering.first() {
            self.refresh_tops(covering.iter().copied());
            self.phase = Phase::EstimatingLevel;
            #[cfg(feature = "trace")]
            self.tr(
                CauseId::NONE,
                TraceEventKind::JoinStep {
                    phase: JoinPhase::LevelQuery,
                },
            );
            self.send_rpc(outs, top, Message::LevelQuery, RpcKind::JoinLevelQuery, 0);
        } else if let Some(&hop) = tops.first() {
            // Cross-part bootstrap (§4.4): ask a top of the bootstrap's
            // part; its top list holds tops of other parts, ours included.
            let msg = Message::FindTop { joiner: self.me };
            self.send_rpc(outs, hop, msg, RpcKind::JoinFindTop, 0);
        } else {
            // The bootstrap knew no top at all: it must be a seed node
            // itself (it would have answered with covering tops
            // otherwise). Treat the sender as our top-of-part.
            self.fail(ProtocolError::BootstrapReturnedNoTops);
        }
    }

    /// §4.3 step 2, answering side: our level and measured cost.
    pub(super) fn on_level_query(&mut self, now_us: u64, reply_to: Target, outs: &mut Vec<Output>) {
        let cost = self.meter.bps(now_us);
        self.send(
            outs,
            reply_to,
            Message::LevelQueryReply {
                level: self.level,
                cost_bps: cost,
            },
            0,
        );
    }

    pub(super) fn on_level_query_reply(
        &mut self,
        l_t: Level,
        w_t_bps: f64,
        outs: &mut Vec<Output>,
    ) {
        if self.phase != Phase::EstimatingLevel {
            return;
        }
        let queried = self.take_rpc(|p| matches!(p.kind, RpcKind::JoinLevelQuery));
        let mut level = ModelParams::estimate_join_level(l_t, w_t_bps, self.threshold_bps);
        // A joiner can never be stronger than its part's tops.
        if level.value() < l_t.value() {
            level = l_t;
        }
        if self.cfg.warm_up {
            // §4.3 warm-up: start two levels weaker to come online fast;
            // the adaptation loop raises us once the background download
            // would have completed.
            level = Level::new(level.value().saturating_add(2));
        }
        self.level = level;
        self.phase = Phase::Downloading;
        #[cfg(feature = "trace")]
        self.tr(
            CauseId::NONE,
            TraceEventKind::JoinStep {
                phase: JoinPhase::Download,
            },
        );
        let scope = self.eigenstring();
        // A level reply normally implies a known top (the one we queried),
        // but a maliciously early or duplicated reply could arrive after
        // the top list was purged — fail the join rather than panic.
        let target = queried
            .map(|p| p.target)
            .or_else(|| self.tops.choose(&[], |n| self.rand_below(n)));
        let Some(target) = target else {
            self.fail(ProtocolError::LevelReplyWithoutKnownTop);
            return;
        };
        let msg = Message::Download { scope };
        self.send_rpc(outs, target, msg, RpcKind::JoinDownload, 0);
    }

    /// §4.3 step 3 (and a raise or reconcile), answering side.
    pub(super) fn on_download(
        &mut self,
        now_us: u64,
        reply_to: Target,
        scope: Prefix,
        outs: &mut Vec<Output>,
    ) {
        let mut pointers = self.peers.subset_for(scope);
        // Our own list never stores a self-pointer; the downloader
        // still must learn about us when we fall in its scope.
        if scope.contains(self.me) {
            let mut me = Pointer::with_info(self.me, self.addr, self.level, self.info.clone());
            me.last_refresh_us = now_us;
            pointers.push(me);
        }
        let tops = self.piggyback_tops();
        self.send(
            outs,
            reply_to,
            Message::DownloadReply {
                scope,
                pointers,
                tops,
            },
            0,
        );
    }

    pub(super) fn on_download_reply(
        &mut self,
        now_us: u64,
        scope: Prefix,
        pointers: Vec<Pointer>,
        tops: Vec<Target>,
        outs: &mut Vec<Output>,
    ) {
        self.refresh_tops(tops);
        match self.phase {
            Phase::Downloading => {
                if scope != self.eigenstring() {
                    return; // stale reply for a different scope
                }
                self.take_rpc(|p| matches!(p.kind, RpcKind::JoinDownload));
                self.peers = self.empty_list(scope);
                for p in pointers {
                    self.install_downloaded(p, now_us);
                }
                self.reconcile_tops_with_window();
                self.last_self_refresh_us = now_us;
                self.phase = Phase::Active;
                outs.push(Output::Joined);
                outs.extend(self.startup_timers());
                // Reconcile after the join multicast has had time to make
                // us visible to forwarders (a few RPC rounds).
                outs.push(Output::timer(4 * self.cfg.rpc_timeout_us, Timer::Reconcile));
                // §4.3 step 4: multicast our joining around our audience set.
                self.seq += 1;
                #[cfg(feature = "trace")]
                self.tr(
                    CauseId::new(self.me.0, self.seq),
                    TraceEventKind::JoinStep {
                        phase: JoinPhase::Active,
                    },
                );
                let event = self.self_event(now_us, EventKind::Join);
                self.report_event(now_us, event, outs);
            }
            Phase::Active => {
                // Post-join reconciliation: merge-only, never re-scope.
                if scope == self.eigenstring()
                    && self
                        .take_rpc(|p| matches!(p.kind, RpcKind::Reconcile))
                        .is_some()
                {
                    for ptr in pointers {
                        if !self.peers.contains(ptr.id) {
                            self.install_downloaded(ptr, now_us);
                        }
                    }
                    return;
                }
                // Level-raise download completing.
                let me = self.me;
                let pending = self.take_rpc(
                    |p| matches!(&p.kind, RpcKind::RaiseDownload { new_level } if new_level.eigenstring(me) == scope),
                );
                let Some(p) = pending else { return };
                let RpcKind::RaiseDownload { new_level } = p.kind else {
                    return;
                };
                self.last_shift_us = now_us;
                let old = self.level;
                self.level = new_level;
                self.peers.set_scope(scope);
                for ptr in pointers {
                    if !self.peers.contains(ptr.id) {
                        self.install_downloaded(ptr, now_us);
                    }
                }
                self.reconcile_tops_with_window();
                outs.push(Output::LevelShifted {
                    from: old,
                    to: new_level,
                });
                self.seq += 1;
                #[cfg(feature = "trace")]
                self.tr(
                    CauseId::new(self.me.0, self.seq),
                    TraceEventKind::LevelShift {
                        from: old.0,
                        to: new_level.0,
                    },
                );
                let event = self.self_event(now_us, EventKind::LevelShift { from: old });
                self.report_event(now_us, event, outs);
            }
            _ => {}
        }
    }

    /// Drops top-list entries a just-downloaded window proves gone:
    /// entries our scope covers but the authoritative pointer list does
    /// not contain. A leave multicast only reaches the subject's §2
    /// audience, so a node outside it (e.g. at a deeper level) keeps the
    /// departed top until the §4.5 lazy heal times a report out against
    /// it — but a level raise must not carry that stale entry *into* its
    /// own scope, where the top-containment invariant holds. Found by
    /// the invariants sweep: [Join(1), Join(2), Shift(1, 1), Leave(2)].
    fn reconcile_tops_with_window(&mut self) {
        let scope = self.eigenstring();
        let stale: Vec<NodeId> = self
            .tops
            .entries()
            .iter()
            .filter(|t| t.id != self.me && scope.contains(t.id) && !self.peers.contains(t.id))
            .map(|t| t.id)
            .collect();
        for id in stale {
            self.tops.remove(id);
        }
    }

    /// Installs a pointer obtained from a bulk download. Downloads carry
    /// no age information (`first_seen_us` may be 0 = unknown); unknown
    /// ages are preserved so they never contaminate the §4.6 lifetime
    /// estimator with short observation spans.
    fn install_downloaded(&mut self, mut ptr: Pointer, now_us: u64) {
        if ptr.id == self.me || self.dedup.known_departed(ptr.id) {
            // A downloaded list races with leave multicasts exactly like
            // a piggybacked top list does (see `refresh_tops`): the
            // leave we already applied can never purge a re-admitted
            // entry. Downloads carry no origin time to compare, so skip
            // conservatively — a live node's §4.6 refresh re-admits.
            return;
        }
        ptr.last_refresh_us = now_us;
        self.peers.insert(ptr);
    }

    /// `Timer::Reconcile` on an active node: re-download our scope from a
    /// top, and re-announce ourselves once.
    pub(super) fn reconcile(&mut self, now_us: u64, outs: &mut Vec<Output>) {
        if let Some(top) = self.tops.choose(&[], |n| self.rand_below(n)) {
            if top.id != self.me {
                let scope = self.eigenstring();
                let msg = Message::Download { scope };
                self.send_rpc(outs, top, msg, RpcKind::Reconcile, 0);
            }
        }
        // Re-announce ourselves once (a one-shot §4.6 refresh):
        // nodes that were themselves mid-join when our join
        // event multicast ran could not have been reached.
        self.last_self_refresh_us = now_us;
        self.seq += 1;
        let event = self.self_event(now_us, EventKind::Refresh);
        self.report_event(now_us, event, outs);
    }

    /// `Command::Shutdown`: announce our leave, then drain it.
    pub(super) fn shutdown(&mut self, now_us: u64, outs: &mut Vec<Output>) {
        if self.phase == Phase::Active {
            let event = leave_event(self.as_target(), now_us);
            self.report_event(now_us, event, outs);
            // §4.3: drain the announcement (retries and redirects
            // included) before going silent. Going Left at once
            // abandons the multicast's RPC state — a forward
            // addressed to a not-yet-detected crash then dies
            // with no redirect, hiding the leave from an entire
            // subtree until §4.6 expiry. Found by the invariant
            // checker's full-sim companion test (crash 1.5 s
            // before a graceful leave).
            self.phase = Phase::Leaving;
            return;
        }
        self.phase = Phase::Left;
    }

    pub(super) fn on_top_list_reply(
        &mut self,
        now_us: u64,
        tops: Vec<Target>,
        outs: &mut Vec<Output>,
    ) {
        self.refresh_tops(tops);
        let resumed = self.take_rpc(|p| matches!(p.kind, RpcKind::TopListFetch));
        if resumed.is_some() {
            if let Some(event) = self.parked_report.take() {
                self.report_event(now_us, event, outs);
            }
        }
    }

    /// §4.5 fallback when every known top is stale: ask a random peer for
    /// its top list, parking `resume` until the reply arrives.
    pub(super) fn fetch_top_list(&mut self, outs: &mut Vec<Output>, resume: Option<StateEvent>) {
        if self.rpc_in_flight(|k| matches!(k, RpcKind::TopListFetch)) {
            return;
        }
        let n = self.peers.len();
        if n == 0 {
            return;
        }
        let idx = self.rand_below(n);
        let Some(ptr) = self.peers.iter().nth(idx) else {
            return;
        };
        let target = Target::from(ptr);
        self.parked_report = resume;
        let msg = Message::TopListRequest;
        self.send_rpc(outs, target, msg, RpcKind::TopListFetch, 0);
    }

    /// Merges piggybacked top-node pointers, dropping any entry for
    /// ourselves. Peers legitimately list us among the tops of the part,
    /// but storing a self-entry is poison: it is never level-synced (we
    /// do not apply our own events), and a later level raise can pick it
    /// and "download" from ourselves — an empty list — leaving the shift
    /// announced to nobody. Found by the invariants sweep:
    /// [Join, Shift(1), Shift(0)].
    /// Also drops entries for nodes whose freshest known event was a
    /// removal: piggybacked top lists race with leave multicasts, and a
    /// stale list arriving after we applied the leave would re-seed the
    /// departed node forever — the leave is inside the dedup horizon and
    /// can never purge it again. A rejoin or refresh (fresh by the
    /// origin clause) clears the flag and re-admits through
    /// `apply_event`. Found by the invariants sweep at depth 4:
    /// [Join(1), Join(2), Shift(1, 1), Leave(2)].
    pub(super) fn refresh_tops(&mut self, fresh: impl IntoIterator<Item = Target>) {
        let me = self.me;
        let fresh: Vec<Target> = fresh
            .into_iter()
            .filter(|t| t.id != me && !self.dedup.known_departed(t.id))
            .collect();
        self.tops.refresh(fresh);
    }

    pub(super) fn piggyback_tops(&self) -> Vec<Target> {
        if self.believes_top() {
            // §4.5: a top node hands out tops of its own part — itself and
            // its same-group peers from the (fully connected) peer list.
            let mut tops: Vec<Target> = self
                .peers
                .iter_prefix(self.eigenstring())
                .filter(|ptr| ptr.level == self.level)
                .take(self.tops.capacity().saturating_sub(1))
                .map(Target::from)
                .collect();
            tops.insert(0, self.as_target());
            tops.truncate(self.tops.capacity());
            tops
        } else {
            self.tops.piggyback(NodeId(0))
        }
    }
}
