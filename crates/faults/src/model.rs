//! The interpretive side: judging datagrams against a plan.

use crate::plan::{Condition, FaultPlan};
use crate::rng::LinkRng;
use std::collections::BTreeMap;

/// What the network does to one datagram. Judged once, at send time, by
/// the shard that owns the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The datagram never arrives.
    Drop,
    /// The datagram arrives, `extra_delay_us` later than the link's base
    /// latency (0 on the reliable fast path).
    Deliver {
        /// Jitter added on top of the base latency, microseconds.
        extra_delay_us: u64,
    },
    /// The datagram arrives twice: the original after `extra_delay_us`
    /// of jitter, the copy after `dup_extra_delay_us` (always strictly
    /// larger).
    Duplicate {
        /// Jitter on the original, microseconds.
        extra_delay_us: u64,
        /// Total extra delay on the duplicate, microseconds.
        dup_extra_delay_us: u64,
    },
}

impl Verdict {
    /// Extra delay, over the link's base latency, of each copy that
    /// arrives, as `[duplicate, original]`: `Drop` → neither, `Deliver` →
    /// the original only, `Duplicate` → both. Every host emits in this
    /// order, the duplicate first, so two copies that tie on the clock
    /// (`gap_us = 0`) reach the receiver in the same order everywhere.
    #[inline]
    pub fn delays(self) -> [Option<u64>; 2] {
        match self {
            Verdict::Drop => [None, None],
            Verdict::Deliver { extra_delay_us } => [None, Some(extra_delay_us)],
            Verdict::Duplicate {
                extra_delay_us,
                dup_extra_delay_us,
            } => [Some(dup_extra_delay_us), Some(extra_delay_us)],
        }
    }
}

/// Running totals over every judged datagram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Datagrams judged (== datagrams sent while a conditioner was
    /// installed).
    pub judged: u64,
    /// Datagrams dropped (loss, burst loss, or blackhole).
    pub dropped: u64,
    /// Datagrams duplicated.
    pub duplicated: u64,
    /// Datagrams delivered with nonzero jitter.
    pub jittered: u64,
}

impl FaultCounters {
    /// Accumulates `other` into `self` (per-shard counters merge).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.judged += other.judged;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.jittered += other.jittered;
    }
}

/// The single hook both sim engines call. `Send` because the parallel
/// engine moves each shard (and its shard-local conditioner) onto a
/// worker thread.
pub trait FaultModel: Send {
    /// Judges one datagram from `src` to `dst` sent at `now_us`.
    fn judge(&mut self, now_us: u64, src: u32, dst: u32) -> Verdict;
    /// Totals so far.
    fn counters(&self) -> FaultCounters;
}

/// Per-link mutable state: the random stream and the Gilbert–Elliott
/// chain position (shared by every GE rule touching the link — one
/// physical link has one burst process).
#[derive(Clone, Debug)]
struct LinkState {
    rng: LinkRng,
    ge_bad: bool,
}

/// Interprets a [`FaultPlan`] packet by packet. Link state is created
/// lazily on first use, keyed by the *directed* link, in a `BTreeMap`
/// (deterministic, and the key set is identical across shard counts
/// because each link is only ever judged in its sender's shard).
#[derive(Clone, Debug)]
pub struct LinkConditioner {
    plan: FaultPlan,
    links: BTreeMap<(u32, u32), LinkState>,
    counters: FaultCounters,
}

impl LinkConditioner {
    /// A conditioner over `plan`, with fresh per-link state.
    pub fn new(plan: FaultPlan) -> Self {
        LinkConditioner {
            plan,
            links: BTreeMap::new(),
            counters: FaultCounters::default(),
        }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FaultModel for LinkConditioner {
    // The fast path must inline into the engines' send loops (the
    // zero-fault overhead budget is ~1%; see
    // crates/bench/tests/faults_overhead.rs), so the ruleless return is
    // split out from the interpretive slow path.
    #[inline]
    fn judge(&mut self, now_us: u64, src: u32, dst: u32) -> Verdict {
        self.counters.judged += 1;
        // Fast path: no active rule touches this link right now. No RNG
        // draw, no link-state allocation.
        if !self
            .plan
            .rules
            .iter()
            .any(|r| r.active(now_us) && r.links.matches(src, dst))
        {
            return Verdict::Deliver { extra_delay_us: 0 };
        }
        self.judge_slow(now_us, src, dst)
    }

    #[inline]
    fn counters(&self) -> FaultCounters {
        self.counters
    }
}

impl LinkConditioner {
    /// At least one rule is active on this link: consult (and lazily
    /// create) link state, draw from the per-link stream, compose rule
    /// effects in declaration order.
    #[cold]
    fn judge_slow(&mut self, now_us: u64, src: u32, dst: u32) -> Verdict {
        let seed = self.plan.seed;
        let st = self.links.entry((src, dst)).or_insert_with(|| LinkState {
            rng: LinkRng::for_link(seed, src, dst),
            ge_bad: false,
        });
        let mut drop = false;
        let mut extra_us = 0u64;
        let mut dup_gap: Option<u64> = None;
        for rule in &self.plan.rules {
            if !rule.active(now_us) || !rule.links.matches(src, dst) {
                continue;
            }
            match rule.condition {
                Condition::Blackhole => drop = true,
                Condition::Loss { p } => {
                    if st.rng.next_f64() < p {
                        drop = true;
                    }
                }
                Condition::GilbertElliott {
                    p_enter_bad,
                    p_exit_bad,
                    loss_good,
                    loss_bad,
                } => {
                    let flip = if st.ge_bad { p_exit_bad } else { p_enter_bad };
                    if st.rng.next_f64() < flip {
                        st.ge_bad = !st.ge_bad;
                    }
                    let p = if st.ge_bad { loss_bad } else { loss_good };
                    if st.rng.next_f64() < p {
                        drop = true;
                    }
                }
                Condition::Jitter { max_extra_us } => {
                    extra_us += st.rng.below(max_extra_us.saturating_add(1));
                }
                Condition::Duplicate { p, gap_us } => {
                    if dup_gap.is_none() && st.rng.next_f64() < p {
                        dup_gap = Some(gap_us.max(1));
                    }
                }
            }
        }
        if drop {
            self.counters.dropped += 1;
            return Verdict::Drop;
        }
        if extra_us > 0 {
            self.counters.jittered += 1;
        }
        match dup_gap {
            Some(gap) => {
                self.counters.duplicated += 1;
                Verdict::Duplicate {
                    extra_delay_us: extra_us,
                    dup_extra_delay_us: extra_us + gap,
                }
            }
            None => Verdict::Deliver {
                extra_delay_us: extra_us,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultRule, LinkSel, NodeSel};
    use proptest::prelude::*;

    fn always(links: LinkSel, condition: Condition) -> FaultRule {
        FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links,
            condition,
        }
    }

    #[test]
    fn delays_list_the_duplicate_then_the_original() {
        assert_eq!(Verdict::Drop.delays(), [None, None]);
        assert_eq!(
            Verdict::Deliver { extra_delay_us: 3 }.delays(),
            [None, Some(3)]
        );
        let twice = Verdict::Duplicate {
            extra_delay_us: 3,
            dup_extra_delay_us: 10,
        };
        assert_eq!(twice.delays(), [Some(10), Some(3)]);
    }

    #[test]
    fn reliable_plan_delivers_everything_untouched() {
        let mut c = LinkConditioner::new(FaultPlan::reliable(9));
        for k in 0..1000 {
            assert_eq!(c.judge(k, 1, 2), Verdict::Deliver { extra_delay_us: 0 });
        }
        let cs = c.counters();
        assert_eq!(cs.judged, 1000);
        assert_eq!(cs.dropped + cs.duplicated + cs.jittered, 0);
        // Fast path never materialises link state.
        assert!(c.links.is_empty());
    }

    #[test]
    fn blackhole_drops_exactly_its_window_and_direction() {
        let plan = FaultPlan::reliable(1).with_rule(FaultRule {
            from_us: 100,
            until_us: 200,
            links: LinkSel::one_way(NodeSel::One(1), NodeSel::One(2)),
            condition: Condition::Blackhole,
        });
        let mut c = LinkConditioner::new(plan);
        assert_eq!(c.judge(99, 1, 2), Verdict::Deliver { extra_delay_us: 0 });
        assert_eq!(c.judge(100, 1, 2), Verdict::Drop);
        // Reverse direction unaffected: asymmetric link failure.
        assert_eq!(c.judge(150, 2, 1), Verdict::Deliver { extra_delay_us: 0 });
        assert_eq!(c.judge(200, 1, 2), Verdict::Deliver { extra_delay_us: 0 });
        assert_eq!(c.counters().dropped, 1);
    }

    #[test]
    fn same_plan_same_seed_is_bit_identical() {
        let plan = FaultPlan::uniform_loss(42, 0.3)
            .with_rule(always(
                LinkSel::all(),
                Condition::Jitter { max_extra_us: 500 },
            ))
            .with_rule(always(
                LinkSel::all(),
                Condition::Duplicate { p: 0.1, gap_us: 50 },
            ));
        let mut a = LinkConditioner::new(plan.clone());
        let mut b = LinkConditioner::new(plan.clone());
        // Interleave links differently on b: per-link streams must make
        // the per-link verdict sequences identical anyway.
        let mut va = Vec::new();
        for k in 0..500 {
            va.push(a.judge(k, 1, 2));
            a.judge(k, 3, 4);
        }
        let mut vb = Vec::new();
        for k in 0..500 {
            b.judge(k, 3, 4);
            b.judge(k, 5, 6); // extra traffic on other links
            vb.push(b.judge(k, 1, 2));
        }
        assert_eq!(va, vb);

        let mut c = LinkConditioner::new(FaultPlan {
            seed: 43,
            ..plan.clone()
        });
        let vc: Vec<Verdict> = (0..500).map(|k| c.judge(k, 1, 2)).collect();
        assert_ne!(va, vc, "different seed must give a different sequence");
    }

    #[test]
    fn jitter_adds_and_duplicate_trails_original() {
        let plan = FaultPlan::reliable(5)
            .with_rule(always(
                LinkSel::all(),
                Condition::Jitter { max_extra_us: 300 },
            ))
            .with_rule(always(
                LinkSel::all(),
                Condition::Duplicate { p: 1.0, gap_us: 70 },
            ));
        let mut c = LinkConditioner::new(plan);
        for k in 0..200 {
            match c.judge(k, 8, 9) {
                Verdict::Duplicate {
                    extra_delay_us,
                    dup_extra_delay_us,
                } => {
                    assert!(extra_delay_us <= 300);
                    assert_eq!(dup_extra_delay_us, extra_delay_us + 70);
                }
                v => panic!("expected a duplicate, got {v:?}"),
            }
        }
        assert_eq!(c.counters().duplicated, 200);
    }

    #[test]
    fn gilbert_elliott_actually_bursts() {
        // Strongly bursty chain: long Bad dwell times must yield runs of
        // consecutive drops far beyond what uniform loss at the same
        // average rate produces.
        let plan = FaultPlan::reliable(11).with_rule(always(
            LinkSel::all(),
            Condition::GilbertElliott {
                p_enter_bad: 0.01,
                p_exit_bad: 0.05,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        ));
        let mut c = LinkConditioner::new(plan);
        let mut longest_run = 0u32;
        let mut run = 0u32;
        for k in 0..20_000 {
            if c.judge(k, 1, 2) == Verdict::Drop {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 0;
            }
        }
        // E[Bad dwell] = 1/p_exit = 20 packets; uniform loss at the same
        // ~17% average rate has P(run ≥ 10) ≈ 2e-8 per position.
        assert!(
            longest_run >= 10,
            "GE produced no burst (longest run {longest_run})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite: Gilbert–Elliott with equal good/bad-state loss is
        /// statistically indistinguishable from uniform loss — the chain
        /// state becomes irrelevant, so the empirical drop rate must
        /// match `p` within binomial noise, whatever the transition
        /// probabilities.
        #[test]
        fn ge_with_equal_state_loss_reduces_to_uniform(
            seed in any::<u64>(),
            p in (50u32..600).prop_map(|m| m as f64 / 1000.0),
            p_enter in (10u32..900).prop_map(|m| m as f64 / 1000.0),
            p_exit in (10u32..900).prop_map(|m| m as f64 / 1000.0),
        ) {
            const N: u64 = 30_000;
            let plan = FaultPlan::reliable(seed).with_rule(always(
                LinkSel::all(),
                Condition::GilbertElliott {
                    p_enter_bad: p_enter,
                    p_exit_bad: p_exit,
                    loss_good: p,
                    loss_bad: p,
                },
            ));
            let mut c = LinkConditioner::new(plan);
            for k in 0..N {
                c.judge(k, 1, 2);
            }
            let rate = c.counters().dropped as f64 / N as f64;
            // 6-sigma binomial envelope: 6·sqrt(p(1-p)/N) ≤ 0.018.
            let tol = 6.0 * (p * (1.0 - p) / N as f64).sqrt();
            prop_assert!(
                (rate - p).abs() < tol,
                "rate {rate:.4} vs p {p:.4} (tol {tol:.4})"
            );
        }

        /// Uniform loss drops at its nominal rate (the `set_loss` shim's
        /// statistical contract).
        #[test]
        fn uniform_loss_rate_matches_p(
            seed in any::<u64>(),
            p in (20u32..500).prop_map(|m| m as f64 / 1000.0),
        ) {
            const N: u64 = 30_000;
            let mut c = LinkConditioner::new(FaultPlan::uniform_loss(seed, p));
            for k in 0..N {
                c.judge(k, 1, 2);
            }
            let rate = c.counters().dropped as f64 / N as f64;
            let tol = 6.0 * (p * (1.0 - p) / N as f64).sqrt();
            prop_assert!((rate - p).abs() < tol);
        }
    }
}
