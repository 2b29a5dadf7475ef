//! The declarative side: who, when, and what kind of misbehaviour.

/// Selects a set of nodes by sim address (`u32` actor id, the same ids
/// the sim engines use).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeSel {
    /// Every node.
    All,
    /// Exactly one node.
    One(u32),
    /// Nodes whose `actor % key_mod` lands in `domains`, so a partition
    /// can be cut along stub-domain boundaries.
    Domain {
        /// Modulus for the domain key.
        key_mod: u32,
        /// Accepted residues.
        domains: Vec<u32>,
    },
}

impl NodeSel {
    /// Whether `node` is selected.
    #[inline]
    pub fn matches(&self, node: u32) -> bool {
        match self {
            NodeSel::All => true,
            NodeSel::One(n) => *n == node,
            NodeSel::Domain { key_mod, domains } => {
                *key_mod > 0 && domains.contains(&(node % key_mod))
            }
        }
    }
}

/// Selects a set of *directed* links. With `symmetric`, the reversed
/// direction is selected too — `(src→dst) ∪ (dst→src)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkSel {
    /// Sender-side selector.
    pub src: NodeSel,
    /// Receiver-side selector.
    pub dst: NodeSel,
    /// Also match the reversed direction.
    pub symmetric: bool,
}

impl LinkSel {
    /// Every link, both directions.
    pub fn all() -> Self {
        LinkSel {
            src: NodeSel::All,
            dst: NodeSel::All,
            symmetric: false,
        }
    }

    /// One direction only: `src → dst`.
    pub fn one_way(src: NodeSel, dst: NodeSel) -> Self {
        LinkSel {
            src,
            dst,
            symmetric: false,
        }
    }

    /// Both directions between the two node sets.
    pub fn between(a: NodeSel, b: NodeSel) -> Self {
        LinkSel {
            src: a,
            dst: b,
            symmetric: true,
        }
    }

    /// Whether the directed link `(src, dst)` is selected.
    #[inline]
    pub fn matches(&self, src: u32, dst: u32) -> bool {
        if self.src.matches(src) && self.dst.matches(dst) {
            return true;
        }
        self.symmetric && self.src.matches(dst) && self.dst.matches(src)
    }
}

/// One network condition. Loss conditions OR together when stacked;
/// jitter adds; duplication triggers at most one copy per datagram.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// Uniform i.i.d. loss with probability `p` — the legacy model, kept
    /// as the degenerate case backing the `set_loss(f64)` shims.
    Loss {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott two-state Markov burst loss. The chain advances
    /// once per judged packet: from Good it enters Bad with
    /// `p_enter_bad`, from Bad it recovers with `p_exit_bad`; the packet
    /// is then lost with the current state's loss rate. With
    /// `loss_good == loss_bad` this reduces exactly to uniform loss.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_enter_bad: f64,
        /// P(Bad → Good) per packet.
        p_exit_bad: f64,
        /// Loss probability while in Good.
        loss_good: f64,
        /// Loss probability while in Bad.
        loss_bad: f64,
    },
    /// Adds `uniform[0, max_extra_us]` to the delivery latency. Large
    /// values reorder datagrams relative to the link's base latency.
    Jitter {
        /// Maximum extra one-way delay, microseconds.
        max_extra_us: u64,
    },
    /// Duplicates the datagram with probability `p`; the copy arrives
    /// `gap_us` after the original (plus any jitter already applied).
    Duplicate {
        /// Duplication probability in `[0, 1]`.
        p: f64,
        /// Extra delay of the duplicate over the original, microseconds.
        gap_us: u64,
    },
    /// Drops everything. One-way blackholes model asymmetric link
    /// failure; symmetric blackholes between domain selectors model
    /// partitions.
    Blackhole,
}

/// A [`Condition`] active on `links` during `[from_us, until_us)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Activation time (inclusive), sim microseconds.
    pub from_us: u64,
    /// Deactivation time (exclusive); `u64::MAX` for "never heals".
    pub until_us: u64,
    /// Which directed links the condition applies to.
    pub links: LinkSel,
    /// What happens to matching datagrams.
    pub condition: Condition,
}

impl FaultRule {
    /// Whether the rule is active at `now_us`.
    #[inline]
    pub fn active(&self, now_us: u64) -> bool {
        self.from_us <= now_us && now_us < self.until_us
    }
}

/// A seeded, deterministic schedule of network conditions. The plan is
/// pure data: interpreting it (and owning the per-link RNG state) is the
/// [`LinkConditioner`](crate::LinkConditioner)'s job.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every per-link random stream.
    pub seed: u64,
    /// Rules, evaluated in declaration order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no rules: the network is perfectly reliable, but the
    /// conditioner still runs (used to measure the zero-fault overhead).
    pub fn reliable(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The legacy model: uniform i.i.d. loss `p` on every link, forever.
    pub fn uniform_loss(seed: u64, p: f64) -> Self {
        FaultPlan::reliable(seed).with_rule(FaultRule {
            from_us: 0,
            until_us: u64::MAX,
            links: LinkSel::all(),
            condition: Condition::Loss { p },
        })
    }

    /// Appends a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Cuts the network into two halves along the stub-domain key during
    /// `[from_us, until_us)`: nodes whose `actor % key_mod` is in
    /// `isolated` cannot exchange datagrams with the rest in either
    /// direction. The partition heals at `until_us`.
    pub fn with_partition(
        self,
        from_us: u64,
        until_us: u64,
        key_mod: u32,
        isolated: &[u32],
    ) -> Self {
        let rest: Vec<u32> = (0..key_mod).filter(|d| !isolated.contains(d)).collect();
        self.with_rule(FaultRule {
            from_us,
            until_us,
            links: LinkSel::between(
                NodeSel::Domain {
                    key_mod,
                    domains: isolated.to_vec(),
                },
                NodeSel::Domain {
                    key_mod,
                    domains: rest,
                },
            ),
            condition: Condition::Blackhole,
        })
    }

    /// Whether any rule can ever match (false ⇒ the conditioner's fast
    /// path is taken on every packet).
    pub fn is_reliable(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_match_as_documented() {
        assert!(NodeSel::All.matches(7));
        assert!(NodeSel::One(7).matches(7));
        assert!(!NodeSel::One(7).matches(8));
        let dom = NodeSel::Domain {
            key_mod: 4,
            domains: vec![1, 3],
        };
        assert!(dom.matches(5)); // 5 % 4 == 1
        assert!(!dom.matches(8)); // 8 % 4 == 0
        let degenerate = NodeSel::Domain {
            key_mod: 0,
            domains: vec![0],
        };
        assert!(!degenerate.matches(0)); // no div-by-zero, matches nothing
    }

    #[test]
    fn symmetric_links_match_both_directions() {
        let one_way = LinkSel::one_way(NodeSel::One(1), NodeSel::One(2));
        assert!(one_way.matches(1, 2));
        assert!(!one_way.matches(2, 1));
        let both = LinkSel::between(NodeSel::One(1), NodeSel::One(2));
        assert!(both.matches(1, 2));
        assert!(both.matches(2, 1));
        assert!(!both.matches(1, 3));
    }

    #[test]
    fn rule_window_is_half_open() {
        let r = FaultRule {
            from_us: 10,
            until_us: 20,
            links: LinkSel::all(),
            condition: Condition::Blackhole,
        };
        assert!(!r.active(9));
        assert!(r.active(10));
        assert!(r.active(19));
        assert!(!r.active(20));
    }

    #[test]
    fn partition_isolates_both_directions_and_heals() {
        let plan = FaultPlan::reliable(1).with_partition(100, 200, 4, &[0, 1]);
        let rule = &plan.rules[0];
        // Domain {0,1} vs {2,3}: actor 4 (dom 0) × actor 6 (dom 2).
        assert!(rule.links.matches(4, 6));
        assert!(rule.links.matches(6, 4));
        // Intra-half links unaffected.
        assert!(!rule.links.matches(4, 5)); // dom 0 → dom 1
        assert!(!rule.links.matches(6, 7)); // dom 2 → dom 3
        assert!(rule.active(150));
        assert!(!rule.active(200)); // healed
    }
}
