//! The RPC layer under every operation: sends, the pending-call table,
//! retries with backoff, and each call kind's give-up path.
//!
//! `rand_below` keys off `next_token`, which every `send_rpc` and every
//! retry advances: the order of calls here is part of the simulated
//! outcome.

use super::{NodeMachine, Output, Timer};
use crate::error::ProtocolError;
use crate::level::Level;
use crate::messages::Message;
use crate::multicast::{redirect_target, Target};

#[cfg(feature = "trace")]
use peerwindow_trace::{CauseId, TraceEventKind};

/// Backoff multiplier: attempt `k` (1-based) waits `rpc_timeout_us ·
/// 2^(k-1)` before the next re-send, where the paper's fixed interval
/// would hammer a failing path at exactly its failing cadence.
pub(super) const RPC_BACKOFF_MULT: f64 = 2.0;
/// Cap on one backed-off wait, µs: give-up latency stays bounded.
pub(super) const RPC_BACKOFF_MAX_US: u64 = 30_000_000;
/// Each wait is stretched by up to this fraction, drawn from the seeded
/// RNG, so nodes do not retry in lockstep after a partition heals.
pub(super) const RPC_BACKOFF_JITTER: f64 = 0.1;

/// Why an RPC was issued — determines the give-up behaviour. Calls that
/// carry an event (a multicast forward, a report) read it back from
/// [`PendingRpc::msg`].
#[derive(Clone, Debug)]
pub(super) enum RpcKind {
    /// Ring probe; give-up = failure detection (§4.1).
    Probe,
    /// Multicast forward; give-up = drop pointer and redirect within the
    /// flipped range the message's `step` names (§4.2).
    McastForward,
    /// Event report to a top node; give-up = redirect to another top
    /// (§4.5).
    Report,
    /// §4.3 step 1.
    JoinFindTop,
    /// §4.3 step 2.
    JoinLevelQuery,
    /// §4.3 step 3.
    JoinDownload,
    /// Level raise download; give-up = abort the raise.
    RaiseDownload { new_level: Level },
    /// Post-join reconciliation download (see `Timer::Reconcile`);
    /// give-up = skip (the §4.6 refresh eventually heals the list).
    Reconcile,
    /// Fallback top-list fetch (§4.5); the report it unblocks waits in
    /// `NodeMachine::parked_report`.
    TopListFetch,
}

/// A pending request awaiting its reply.
#[derive(Clone, Debug)]
pub(super) struct PendingRpc {
    pub(super) target: Target,
    pub(super) msg: Message,
    attempts: u32,
    pub(super) kind: RpcKind,
}

impl NodeMachine {
    pub(super) fn send(&mut self, outs: &mut Vec<Output>, to: Target, msg: Message, delay_us: u64) {
        self.stats.tx_msgs += 1;
        let bits = msg.wire_bits(&self.cfg);
        self.stats.tx_bits += bits;
        #[cfg(feature = "trace")]
        self.tr(
            Self::trace_cause(&msg),
            TraceEventKind::MsgSend {
                to: to.id.0,
                class: msg.trace_class(),
                bits,
            },
        );
        outs.push(Output::Send { to, msg, delay_us });
    }

    pub(super) fn send_rpc(
        &mut self,
        outs: &mut Vec<Output>,
        to: Target,
        msg: Message,
        kind: RpcKind,
        delay_us: u64,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(
            token,
            PendingRpc {
                target: to,
                msg: msg.clone(),
                attempts: 1,
                kind,
            },
        );
        self.send(outs, to, msg, delay_us);
        let wait = delay_us + self.cfg.rpc_timeout_us;
        outs.push(Output::timer(wait, Timer::RpcTimeout(token)));
    }

    /// Whether any pending RPC has a kind matching `pred`.
    pub(super) fn rpc_in_flight(&self, pred: impl Fn(&RpcKind) -> bool) -> bool {
        self.pending.values().any(|p| pred(&p.kind))
    }

    /// Removes the first pending RPC matching `pred` (reply arrived).
    pub(super) fn resolve_rpc(&mut self, pred: impl Fn(&PendingRpc) -> bool) {
        if let Some((&token, _)) = self.pending.iter().find(|(_, p)| pred(p)) {
            self.pending.remove(&token);
        }
    }

    /// Removes and returns the first pending RPC matching `pred`.
    pub(super) fn take_rpc(&mut self, pred: impl Fn(&PendingRpc) -> bool) -> Option<PendingRpc> {
        let token = self
            .pending
            .iter()
            .find(|(_, p)| pred(p))
            .map(|(&t, _)| t)?;
        self.pending.remove(&token)
    }

    pub(super) fn on_rpc_timeout(&mut self, now_us: u64, token: u64, outs: &mut Vec<Output>) {
        let Some(mut p) = self.pending.remove(&token) else {
            return; // already resolved
        };
        if p.attempts < self.cfg.max_attempts {
            p.attempts += 1;
            self.stats.rpc_retries += 1;
            let new_token = self.next_token;
            self.next_token += 1;
            self.send(outs, p.target, p.msg.clone(), 0);
            let wait = self.backoff_wait_us(p.attempts);
            outs.push(Output::timer(wait, Timer::RpcTimeout(new_token)));
            self.pending.insert(new_token, p);
            return;
        }
        // Give up after max_attempts.
        match p.kind {
            RpcKind::Probe => self.on_probe_failure(now_us, p.target, outs),
            RpcKind::McastForward => {
                let Message::Multicast { event, step } = p.msg else {
                    return;
                };
                // The flipped range the target was chosen from: the ids
                // sharing our first `step − 1` bits and differing at the
                // next (`forward_steps`' own formula).
                let range = self.me.prefix(step - 1).child(!self.me.bit(step - 1));
                // §4.2: remove the stale pointer and redirect. The paper
                // removes it *quietly*, but a quiet removal races §4.1:
                // the forwarder that drops the dead node is — by the
                // prefix-routing structure — usually its ring prober, so
                // the failure would never be reported and every other
                // audience member would keep the stale entry until the
                // §4.6 expiry. On the other hand, reporting a leave
                // straight away turns every triple packet loss into a
                // false obituary multicast. So: remove locally and
                // redirect now (delivery continuity), and *verify* the
                // suspect with a probe — the probe's own give-up path
                // reports the leave only if the node is really gone
                // (DESIGN.md clarification).
                self.stats.stale_dropped += 1;
                if let Some(old) = self.peers.remove(p.target.id) {
                    let suspect = Target::from(&old);
                    self.send_rpc(outs, suspect, Message::Probe, RpcKind::Probe, 0);
                }
                let next = redirect_target(&self.peers, range, event.subject, self.me, &[]);
                if let Some(next) = next {
                    #[cfg(feature = "trace")]
                    self.tr(
                        CauseId::new(event.subject.0, event.seq),
                        TraceEventKind::McastRedirect {
                            class: Self::trace_event_class(&event.kind),
                            old: p.target.id.0,
                            new: next.id.0,
                            step,
                        },
                    );
                    let msg = Message::Multicast { event, step };
                    self.send_rpc(outs, next, msg, RpcKind::McastForward, 0);
                }
            }
            RpcKind::Report => {
                let Message::Report { event } = p.msg else {
                    return;
                };
                self.tops.remove(p.target.id);
                self.report_dead.push(p.target.id);
                self.report_event(now_us, event, outs);
            }
            RpcKind::JoinFindTop | RpcKind::JoinLevelQuery | RpcKind::JoinDownload => {
                // Try another known top; if none, the join fails.
                let dead = vec![p.target.id];
                self.tops.remove(p.target.id);
                if let Some(top) = self.tops.choose(&dead, |n| self.rand_below(n)) {
                    let kind = p.kind;
                    self.send_rpc(outs, top, p.msg, kind, 0);
                } else {
                    self.fail(ProtocolError::NoReachableTop);
                }
            }
            RpcKind::RaiseDownload { .. } => {
                // Abort the raise and forget the unresponsive top so the
                // next attempt picks a live one.
                self.tops.remove(p.target.id);
            }
            RpcKind::Reconcile => { /* §4.6 refresh will heal eventually */ }
            RpcKind::TopListFetch => {
                // Try one more random peer, then drop the event (it will
                // self-heal via §4.6).
                let resume = self.parked_report.take();
                self.fetch_top_list(outs, resume);
            }
        }
    }

    /// Retry wait before attempt `attempt + 1`: exponential backoff over
    /// the base RPC timeout, capped, stretched by deterministic jitter
    /// (the paper retries at the fixed `rpc_timeout_us`; that cadence
    /// resonates with bursty loss and post-partition retry storms —
    /// every node re-sends in lockstep — so retries now spread out).
    pub(super) fn backoff_wait_us(&self, attempt: u32) -> u64 {
        let base = self.cfg.rpc_timeout_us.max(1);
        let wait = (base as f64 * RPC_BACKOFF_MULT.powi(attempt.saturating_sub(1) as i32))
            .min(RPC_BACKOFF_MAX_US.max(base) as f64) as u64;
        let span = (wait as f64 * RPC_BACKOFF_JITTER) as u64;
        if span == 0 {
            wait
        } else {
            // rand_below keys off next_token, which on_rpc_timeout just
            // advanced — each retry draws fresh jitter.
            wait + self.rand_below(span as usize + 1) as u64
        }
    }

    /// Deterministic xorshift, used where the paper says "randomly".
    pub(super) fn rand_below(&self, n: usize) -> usize {
        debug_assert!(n > 0);
        let mut x = self.rng ^ self.next_token.wrapping_mul(0x9E3779B97F4A7C15);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    }
}
