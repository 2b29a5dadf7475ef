//! A line-based text serialization for [`FaultPlan`]s.
//!
//! The workspace builds offline with no JSON crate (the vendored `serde`
//! is an empty stub), and the crate must stay dependency-free, so the
//! plan-file format is hand-rolled: one declaration per line, `#`
//! comments and blank lines ignored.
//!
//! ```text
//! plan seed=11
//! rule from=10000000 until=25000000 links=dom:2:1>dom:2:0 sym cond=blackhole
//! rule from=0 until=max links=one:3>all cond=loss:0.05
//! ```
//!
//! Grammar:
//!
//! * node selector — `all` | `one:N` | `dom:MOD:R,R,…` (residues of
//!   `node % MOD`)
//! * links — `SRC>DST`, with a trailing `sym` token for both directions
//! * condition — `blackhole` | `loss:P` | `ge:P_ENTER:P_EXIT:L_GOOD:L_BAD`
//!   | `jitter:MAX_US` | `dup:P:GAP_US`
//!
//! Floats are written with Rust's shortest-round-trip formatting, so
//! `to_text` → `from_text` reproduces the plan exactly — the determinism
//! contract (same plan + seed ⇒ same verdicts) survives the file system.

use crate::plan::{Condition, FaultPlan, FaultRule, LinkSel, NodeSel};

/// Serializes a plan to the line format above.
pub fn to_text(plan: &FaultPlan) -> String {
    let mut out = format!("plan seed={}\n", plan.seed);
    for r in &plan.rules {
        out.push_str("rule from=");
        out.push_str(&r.from_us.to_string());
        out.push_str(" until=");
        if r.until_us == u64::MAX {
            out.push_str("max");
        } else {
            out.push_str(&r.until_us.to_string());
        }
        out.push_str(" links=");
        sel_to(&mut out, &r.links.src);
        out.push('>');
        sel_to(&mut out, &r.links.dst);
        if r.links.symmetric {
            out.push_str(" sym");
        }
        out.push_str(" cond=");
        cond_to(&mut out, &r.condition);
        out.push('\n');
    }
    out
}

/// Parses the line format back into a plan. Unknown lines are an error,
/// never silently skipped — a typoed rule must not yield a quieter
/// network than the experiment asked for.
pub fn from_text(text: &str) -> Result<FaultPlan, String> {
    let mut plan: Option<FaultPlan> = None;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("plan line {}: {msg}: {raw:?}", ln + 1);
        if let Some(rest) = line.strip_prefix("plan ") {
            let seed = rest
                .trim()
                .strip_prefix("seed=")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("expected `plan seed=N`"))?;
            if plan.is_some() {
                return Err(err("duplicate `plan` line"));
            }
            plan = Some(FaultPlan::reliable(seed));
        } else if let Some(rest) = line.strip_prefix("rule ") {
            let p = plan
                .as_mut()
                .ok_or_else(|| err("`rule` before the `plan` line"))?;
            p.rules.push(parse_rule(rest).map_err(|m| err(&m))?);
        } else {
            return Err(err("unrecognized declaration"));
        }
    }
    plan.ok_or_else(|| "no `plan seed=N` line found".to_string())
}

fn sel_to(out: &mut String, sel: &NodeSel) {
    match sel {
        NodeSel::All => out.push_str("all"),
        NodeSel::One(n) => {
            out.push_str("one:");
            out.push_str(&n.to_string());
        }
        NodeSel::Domain { key_mod, domains } => {
            out.push_str("dom:");
            out.push_str(&key_mod.to_string());
            out.push(':');
            for (i, d) in domains.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&d.to_string());
            }
        }
    }
}

fn cond_to(out: &mut String, cond: &Condition) {
    match cond {
        Condition::Blackhole => out.push_str("blackhole"),
        Condition::Loss { p } => {
            out.push_str(&format!("loss:{p}"));
        }
        Condition::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        } => {
            out.push_str(&format!(
                "ge:{p_enter_bad}:{p_exit_bad}:{loss_good}:{loss_bad}"
            ));
        }
        Condition::Jitter { max_extra_us } => {
            out.push_str(&format!("jitter:{max_extra_us}"));
        }
        Condition::Duplicate { p, gap_us } => {
            out.push_str(&format!("dup:{p}:{gap_us}"));
        }
    }
}

fn parse_rule(rest: &str) -> Result<FaultRule, String> {
    let mut from_us = None;
    let mut until_us = None;
    let mut links = None;
    let mut symmetric = false;
    let mut condition = None;
    for tok in rest.split_whitespace() {
        if tok == "sym" {
            symmetric = true;
        } else if let Some(v) = tok.strip_prefix("from=") {
            from_us = Some(v.parse().map_err(|_| format!("bad from {v:?}"))?);
        } else if let Some(v) = tok.strip_prefix("until=") {
            until_us = Some(if v == "max" {
                u64::MAX
            } else {
                v.parse().map_err(|_| format!("bad until {v:?}"))?
            });
        } else if let Some(v) = tok.strip_prefix("links=") {
            let (src, dst) = v
                .split_once('>')
                .ok_or_else(|| format!("links needs `SRC>DST`, got {v:?}"))?;
            links = Some((parse_sel(src)?, parse_sel(dst)?));
        } else if let Some(v) = tok.strip_prefix("cond=") {
            condition = Some(parse_cond(v)?);
        } else {
            return Err(format!("unknown token {tok:?}"));
        }
    }
    let (src, dst) = links.ok_or("missing links=")?;
    Ok(FaultRule {
        from_us: from_us.ok_or("missing from=")?,
        until_us: until_us.ok_or("missing until=")?,
        links: LinkSel {
            src,
            dst,
            symmetric,
        },
        condition: condition.ok_or("missing cond=")?,
    })
}

fn parse_sel(s: &str) -> Result<NodeSel, String> {
    if s == "all" {
        return Ok(NodeSel::All);
    }
    if let Some(n) = s.strip_prefix("one:") {
        return Ok(NodeSel::One(
            n.parse().map_err(|_| format!("bad node {n:?}"))?,
        ));
    }
    if let Some(rest) = s.strip_prefix("dom:") {
        let (m, doms) = rest
            .split_once(':')
            .ok_or_else(|| format!("dom needs `dom:MOD:R,…`, got {s:?}"))?;
        let key_mod = m.parse().map_err(|_| format!("bad modulus {m:?}"))?;
        let domains = doms
            .split(',')
            .map(|d| d.parse().map_err(|_| format!("bad residue {d:?}")))
            .collect::<Result<Vec<u32>, _>>()?;
        return Ok(NodeSel::Domain { key_mod, domains });
    }
    Err(format!("unknown selector {s:?}"))
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_cond(s: &str) -> Result<Condition, String> {
    if s == "blackhole" {
        return Ok(Condition::Blackhole);
    }
    let (kind, args) = s.split_once(':').unwrap_or((s, ""));
    let parts: Vec<&str> = if args.is_empty() {
        Vec::new()
    } else {
        args.split(':').collect()
    };
    match (kind, parts.as_slice()) {
        ("loss", [p]) => Ok(Condition::Loss { p: parse_f64(p)? }),
        ("ge", [pe, px, lg, lb]) => Ok(Condition::GilbertElliott {
            p_enter_bad: parse_f64(pe)?,
            p_exit_bad: parse_f64(px)?,
            loss_good: parse_f64(lg)?,
            loss_bad: parse_f64(lb)?,
        }),
        ("jitter", [m]) => Ok(Condition::Jitter {
            max_extra_us: parse_u64(m)?,
        }),
        ("dup", [p, gap]) => Ok(Condition::Duplicate {
            p: parse_f64(p)?,
            gap_us: parse_u64(gap)?,
        }),
        _ => Err(format!("unknown condition {s:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar() -> FaultPlan {
        FaultPlan::reliable(11)
            .with_partition(10_000_000, 25_000_000, 2, &[1])
            .with_rule(FaultRule {
                from_us: 0,
                until_us: u64::MAX,
                links: LinkSel::one_way(NodeSel::One(3), NodeSel::All),
                condition: Condition::Loss { p: 0.05 },
            })
            .with_rule(FaultRule {
                from_us: 5,
                until_us: 6,
                links: LinkSel::all(),
                condition: Condition::GilbertElliott {
                    p_enter_bad: 0.01,
                    p_exit_bad: 0.05,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                },
            })
            .with_rule(FaultRule {
                from_us: 7,
                until_us: 8,
                links: LinkSel::between(NodeSel::One(1), NodeSel::One(2)),
                condition: Condition::Jitter { max_extra_us: 30 },
            })
            .with_rule(FaultRule {
                from_us: 9,
                until_us: 10,
                links: LinkSel::all(),
                condition: Condition::Duplicate {
                    p: 0.125,
                    gap_us: 50,
                },
            })
    }

    #[test]
    fn every_condition_and_selector_round_trips_exactly() {
        let plan = exemplar();
        let text = to_text(&plan);
        let back = from_text(&text).expect("parses");
        assert_eq!(back, plan);
        // Stability: re-serializing the parse is byte-identical.
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn comments_blank_lines_and_whitespace_are_tolerated() {
        let text = "# partition-heal demo\n\n  plan seed=7\n\
                    \trule from=1 until=max links=all>all cond=loss:0.5\n";
        let plan = from_text(text).expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 1);
        assert_eq!(plan.rules[0].until_us, u64::MAX);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_silent_skip() {
        for bad in [
            "",                                                                // no plan line
            "rule from=0 until=1 links=all>all cond=blackhole",                // rule before plan
            "plan seed=1\nplan seed=2",                                        // duplicate plan
            "plan seed=x",                                                     // bad seed
            "plan seed=1\nrule from=0 links=all>all cond=loss:1",              // missing until
            "plan seed=1\nrule from=0 until=1 links=all cond=blackhole",       // no `>`
            "plan seed=1\nrule from=0 until=1 links=all>all cond=loss",        // missing p
            "plan seed=1\nrule from=0 until=1 links=all>all cond=warp:9",      // unknown cond
            "plan seed=1\nrule from=0 until=1 links=dom:2>all cond=blackhole", // dom arity
            "plan seed=1\nbogus line",                                         // unknown decl
        ] {
            assert!(from_text(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn verdict_streams_survive_the_file_format() {
        use crate::model::{FaultModel, LinkConditioner};
        let plan = exemplar();
        let back = from_text(&to_text(&plan)).unwrap();
        let mut a = LinkConditioner::new(plan);
        let mut b = LinkConditioner::new(back);
        for k in 0..2_000 {
            assert_eq!(a.judge(k * 7, 1, 2), b.judge(k * 7, 1, 2));
            assert_eq!(a.judge(k * 7, 2, 1), b.judge(k * 7, 2, 1));
        }
        assert_eq!(a.counters(), b.counters());
    }
}
