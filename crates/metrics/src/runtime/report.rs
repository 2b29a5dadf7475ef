//! Merged per-run reports: the aggregation target every
//! [`ShardSlot`](super::ShardSlot) folds into, with a table
//! renderer, a JSONL export whose parser is an exact inverse (pinned by
//! `pw stat roundtrip` in the tests), and a Prometheus text exposition.

use super::prom::{escape_label, render_counters};
use super::{Counter, SampleKind, TimeCat, GROUPS};
use crate::histogram::LogHistogram;
use crate::table::Table;
use peerwindow_trace::json::{self, JVal};

/// Per-shard breakdown attached to a [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u64,
    /// Events this shard executed.
    pub events: u64,
    /// Cross-shard messages this shard sent.
    pub handoff_msgs: u64,
    /// Events still pending at report time.
    pub pending: u64,
}

/// A merged wall-clock report for one engine run: total time per
/// [`TimeCat`], counters, sample distributions, and per-shard rows.
///
/// Reports are additive — every slot folds in with plain `+=` /
/// histogram merges — so the merged result is independent of fold
/// order (pinned by the histogram merge proptest).
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Run label (e.g. `fanout_modulo_4`).
    pub name: String,
    /// Shard count of the run.
    pub shards: u64,
    /// Worker-thread count of the run.
    pub workers: u64,
    /// `(category, total ns)` per [`TimeCat`], canonical order.
    pub time_ns: Vec<(String, u64)>,
    /// `(counter, value)` per [`Counter`], canonical order.
    pub counters: Vec<(String, u64)>,
    /// `(sample, distribution)` per [`SampleKind`], canonical order.
    pub hists: Vec<(String, LogHistogram)>,
    /// Per-shard rows (empty when metrics were never enabled).
    pub per_shard: Vec<ShardReport>,
}

impl RunReport {
    /// An empty report with every canonical key present (so folds are
    /// pure additions and exports have a stable shape).
    pub fn new(name: &str, shards: u64, workers: u64) -> Self {
        RunReport {
            name: name.to_string(),
            shards,
            workers,
            time_ns: TimeCat::ALL
                .iter()
                .map(|c| (c.name().to_string(), 0))
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|c| (c.name().to_string(), 0))
                .collect(),
            hists: SampleKind::ALL
                .iter()
                .map(|s| (s.name().to_string(), LogHistogram::new(1.0, 2.0)))
                .collect(),
            per_shard: Vec::new(),
        }
    }

    /// Adds `ns` to category `cat` (creating the row if unknown).
    pub fn add_time_ns(&mut self, cat: &str, ns: u64) {
        if let Some(e) = self.time_ns.iter_mut().find(|(n, _)| n == cat) {
            e.1 += ns;
        } else {
            self.time_ns.push((cat.to_string(), ns));
        }
    }

    /// Adds `v` to counter `name` (creating the row if unknown).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        if let Some(e) = self.counters.iter_mut().find(|(n, _)| n == name) {
            e.1 += v;
        } else {
            self.counters.push((name.to_string(), v));
        }
    }

    /// Merges `h` into the distribution `name`.
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        if let Some(e) = self.hists.iter_mut().find(|(n, _)| n == name) {
            e.1.merge(h);
        } else {
            let mut fresh = LogHistogram::new(h.min(), h.base());
            fresh.merge(h);
            self.hists.push((name.to_string(), fresh));
        }
    }

    /// Value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Total attributed wall-clock nanoseconds across all categories.
    pub fn total_time_ns(&self) -> u64 {
        self.time_ns.iter().map(|(_, ns)| ns).sum()
    }

    /// Coarse attribution: `(group, fraction)` for the four groups in
    /// [`GROUPS`] order. Because the recorder is lap-based the
    /// fractions sum to 1.0 (within float rounding) whenever any time
    /// was recorded; an empty report yields all zeros.
    pub fn attribution(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_time_ns();
        let mut grouped = [0u64; GROUPS.len()];
        for (cat, ns) in &self.time_ns {
            let group = TimeCat::ALL
                .iter()
                .find(|c| c.name() == cat)
                .map(|c| c.group())
                .unwrap_or("other");
            let gi = GROUPS
                .iter()
                .position(|g| *g == group)
                .unwrap_or(GROUPS.len() - 1);
            grouped[gi] += ns;
        }
        GROUPS
            .iter()
            .zip(grouped)
            .map(|(g, ns)| {
                (
                    *g,
                    if total == 0 {
                        0.0
                    } else {
                        ns as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Fraction of attributed time in group `g` (see [`GROUPS`]).
    pub fn frac(&self, g: &str) -> f64 {
        self.attribution()
            .into_iter()
            .find(|(name, _)| *name == g)
            .map(|(_, f)| f)
            .unwrap_or(0.0)
    }

    /// Shard rows sorted by events descending, truncated to `n`.
    pub fn top_shards(&self, n: usize) -> Vec<&ShardReport> {
        let mut rows: Vec<&ShardReport> = self.per_shard.iter().collect();
        rows.sort_by(|a, b| b.events.cmp(&a.events).then(a.shard.cmp(&b.shard)));
        rows.truncate(n);
        rows
    }

    /// Renders the report as markdown tables (attribution, phase times,
    /// counters, distributions, top-`top` shards).
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let total_ms = self.total_time_ns() as f64 / 1e6;
        out.push_str(&format!(
            "# run {} — shards={} workers={} measured={:.2} ms\n\n",
            self.name, self.shards, self.workers, total_ms
        ));

        let mut attr = Table::new(vec!["group", "fraction"]);
        for (g, f) in self.attribution() {
            attr.row(vec![g.to_string(), format!("{f:.3}")]);
        }
        out.push_str(&attr.to_markdown());

        let mut phases = Table::new(vec!["phase", "ms", "share"]);
        let total = self.total_time_ns().max(1);
        for (cat, ns) in &self.time_ns {
            phases.row(vec![
                cat.clone(),
                format!("{:.3}", *ns as f64 / 1e6),
                format!("{:.3}", *ns as f64 / total as f64),
            ]);
        }
        out.push('\n');
        out.push_str(&phases.to_markdown());

        let mut ctr = Table::new(vec!["counter", "value"]);
        for (name, v) in &self.counters {
            ctr.row(vec![name.clone(), v.to_string()]);
        }
        out.push('\n');
        out.push_str(&ctr.to_markdown());

        let mut dist = Table::new(vec![
            "sample", "count", "p50", "p90", "p99", "under", "over",
        ]);
        for (name, h) in &self.hists {
            dist.row(vec![
                name.clone(),
                h.total().to_string(),
                format!("{:.1}", h.quantile(0.5)),
                format!("{:.1}", h.quantile(0.9)),
                format!("{:.1}", h.quantile(0.99)),
                h.underflow().to_string(),
                h.overflow().to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&dist.to_markdown());

        if !self.per_shard.is_empty() {
            let mut tbl = Table::new(vec!["shard", "events", "handoff", "pending"]);
            for s in self.top_shards(top) {
                tbl.row(vec![
                    s.shard.to_string(),
                    s.events.to_string(),
                    s.handoff_msgs.to_string(),
                    s.pending.to_string(),
                ]);
            }
            out.push('\n');
            out.push_str(&tbl.to_markdown());
        }
        out
    }

    /// Serialises the report as JSON Lines. [`parse_jsonl`] is the
    /// exact inverse: `to_jsonl ∘ parse_jsonl ∘ to_jsonl == to_jsonl`
    /// byte for byte (checked by `pw stat roundtrip`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"rec\":\"run\",\"name\":{},\"shards\":{},\"workers\":{}}}\n",
            json_str(&self.name),
            self.shards,
            self.workers
        ));
        for (cat, ns) in &self.time_ns {
            out.push_str(&format!(
                "{{\"rec\":\"time\",\"cat\":{},\"ns\":{}}}\n",
                json_str(cat),
                ns
            ));
        }
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"rec\":\"ctr\",\"name\":{},\"v\":{}}}\n",
                json_str(name),
                v
            ));
        }
        for (name, h) in &self.hists {
            let counts: Vec<String> = h.bucket_counts().iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "{{\"rec\":\"hist\",\"name\":{},\"min\":{},\"base\":{},\"underflow\":{},\"overflow\":{},\"counts\":[{}]}}\n",
                json_str(name),
                h.min(),
                h.base(),
                h.underflow(),
                h.overflow(),
                counts.join(",")
            ));
        }
        for s in &self.per_shard {
            out.push_str(&format!(
                "{{\"rec\":\"shard\",\"shard\":{},\"events\":{},\"handoff_msgs\":{},\"pending\":{}}}\n",
                s.shard, s.events, s.handoff_msgs, s.pending
            ));
        }
        out.push_str("{\"rec\":\"end\"}\n");
        out
    }
}

/// `s` as a JSON string literal, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

/// Parses a JSONL export produced by [`RunReport::to_jsonl`] (one or
/// more concatenated reports). Exact inverse of the exporter; any
/// malformed line is an error, not a skip.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunReport>, String> {
    let mut reports = Vec::new();
    let mut cur: Option<RunReport> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |e: String| format!("line {}: {e} in {line:?}", lineno + 1);
        let v = json::parse(line).map_err(|e| err(e.message))?;
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| err(format!("missing field {key:?}")))
        };
        let typed = |key: &str, want: &str| err(format!("field {key:?} is not {want}"));
        let string = |key| field(key)?.as_str().ok_or_else(|| typed(key, "a string"));
        let num = |key| field(key)?.as_num().ok_or_else(|| typed(key, "a u64"));
        let float = |key| field(key)?.as_f64().ok_or_else(|| typed(key, "a number"));
        match (string("rec")?, cur.as_mut()) {
            ("run", None) => {
                // Start from truly empty rows: the exporter writes every
                // row it has, so parsing must not pre-seed defaults.
                cur = Some(RunReport {
                    name: string("name")?.to_string(),
                    shards: num("shards")?,
                    workers: num("workers")?,
                    time_ns: Vec::new(),
                    counters: Vec::new(),
                    hists: Vec::new(),
                    per_shard: Vec::new(),
                })
            }
            ("run", Some(_)) => return Err(err("new run before end of previous".to_string())),
            ("time", Some(r)) => r.time_ns.push((string("cat")?.to_string(), num("ns")?)),
            ("ctr", Some(r)) => r.counters.push((string("name")?.to_string(), num("v")?)),
            ("hist", Some(r)) => {
                let JVal::Arr(items) = field("counts")? else {
                    return Err(typed("counts", "an array"));
                };
                let counts: Vec<u64> = items
                    .iter()
                    .map(|c| c.as_num().ok_or_else(|| typed("counts", "a u64 array")))
                    .collect::<Result<_, _>>()?;
                let (min, base) = (float("min")?, float("base")?);
                if min <= 0.0 || base <= 1.0 || counts.len() > LogHistogram::MAX_BUCKETS {
                    return Err(err("bad histogram geometry".to_string()));
                }
                let (under, over) = (num("underflow")?, num("overflow")?);
                let h = LogHistogram::from_parts(min, base, counts, under, over);
                r.hists.push((string("name")?.to_string(), h));
            }
            ("shard", Some(r)) => r.per_shard.push(ShardReport {
                shard: num("shard")?,
                events: num("events")?,
                handoff_msgs: num("handoff_msgs")?,
                pending: num("pending")?,
            }),
            ("end", Some(_)) => reports.extend(cur.take()),
            (rec @ ("time" | "ctr" | "hist" | "shard" | "end"), None) => {
                return Err(err(format!("{rec} outside run")))
            }
            (other, _) => return Err(err(format!("unknown record kind {other:?}"))),
        }
    }
    if cur.is_some() {
        return Err("truncated export: run without end record".to_string());
    }
    Ok(reports)
}

/// Renders one or more run reports as a Prometheus text exposition
/// page: per-phase time, counters, and per-shard event counters.
pub fn prometheus(reports: &[RunReport]) -> String {
    let mut out = String::new();
    let mut time: Vec<(String, u64)> = Vec::new();
    let mut shard_events: Vec<(String, u64)> = Vec::new();
    let mut by_counter: Vec<(String, Vec<(String, u64)>)> = Vec::new();
    for r in reports {
        let run = escape_label(&r.name);
        for (cat, ns) in &r.time_ns {
            time.push((format!("run=\"{run}\",cat=\"{}\"", escape_label(cat)), *ns));
        }
        for (name, v) in &r.counters {
            let idx = match by_counter.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    by_counter.push((name.clone(), Vec::new()));
                    by_counter.len() - 1
                }
            };
            by_counter[idx].1.push((format!("run=\"{run}\""), *v));
        }
        for s in &r.per_shard {
            shard_events.push((format!("run=\"{run}\",shard=\"{}\"", s.shard), s.events));
        }
    }
    render_counters(
        &mut out,
        "peerwindow_engine_time_ns_total",
        "Wall-clock nanoseconds attributed to each engine phase.",
        &time,
    );
    for (name, fam) in &by_counter {
        render_counters(
            &mut out,
            &format!("peerwindow_engine_{name}_total"),
            "Engine runtime counter.",
            fam,
        );
    }
    render_counters(
        &mut out,
        "peerwindow_engine_shard_events_total",
        "Events executed per shard.",
        &shard_events,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::super::{Counter, SampleKind, ShardSlot, TimeCat};
    use super::*;

    fn sample_report() -> RunReport {
        let mut slot = ShardSlot::enabled_slot();
        slot.add(Counter::Events, 120);
        slot.add(Counter::Windows, 4);
        slot.add(Counter::HandoffMsgs, 9);
        slot.add(Counter::HandoffBatches, 3);
        slot.observe(SampleKind::EventsPerWindow, 30.0);
        slot.observe(SampleKind::WindowWidthUs, 1000.0);
        slot.mark();
        std::hint::black_box((0..5000).sum::<u64>());
        slot.lap(TimeCat::Execute);
        slot.lap(TimeCat::WaitPlan);
        let mut r = RunReport::new("sample", 2, 2);
        slot.fold_into(&mut r);
        r.per_shard.push(ShardReport {
            shard: 0,
            events: 80,
            handoff_msgs: 9,
            pending: 0,
        });
        r.per_shard.push(ShardReport {
            shard: 1,
            events: 40,
            handoff_msgs: 0,
            pending: 2,
        });
        r
    }

    #[test]
    fn attribution_fractions_sum_to_one_when_time_recorded() {
        let r = sample_report();
        assert!(r.total_time_ns() > 0);
        let sum: f64 = r.attribution().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum {sum}");
    }

    #[test]
    fn empty_report_attribution_is_all_zero() {
        let r = RunReport::new("empty", 1, 1);
        for (_, f) in r.attribution() {
            assert_eq!(f, 0.0);
        }
    }

    #[test]
    fn jsonl_round_trips_byte_identical() {
        let r = sample_report();
        let text = r.to_jsonl();
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], r);
        assert_eq!(
            parsed[0].to_jsonl(),
            text,
            "export must be an exact inverse"
        );
    }

    /// Names are written as JSON string literals, so one holding a
    /// quote, a backslash, a newline, a tab, a control byte or a
    /// multi-byte char still makes one record per line and reads back
    /// unchanged — in the run, counter and histogram name positions.
    #[test]
    fn jsonl_round_trips_names_that_need_escaping() {
        let odd = "a\"b\\c\nd\te\u{1}é✓";
        let mut r = RunReport::new(odd, 1, 1);
        r.add_counter(odd, 3);
        r.merge_hist(odd, &LogHistogram::new(1.0, 2.0));
        let text = r.to_jsonl();
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed, vec![r]);
        assert_eq!(parsed[0].to_jsonl(), text);
    }

    #[test]
    fn jsonl_concatenated_reports_parse_in_order() {
        let a = sample_report();
        let b = RunReport::new("second", 1, 1);
        let text = format!("{}{}", a.to_jsonl(), b.to_jsonl());
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "sample");
        assert_eq!(parsed[1].name, "second");
    }

    /// Every malformed line is an error, never a skip or a panic: a
    /// truncated export, a missing or mistyped field, an orphan or
    /// unknown record, bad histogram geometry.
    #[test]
    fn jsonl_truncation_and_garbage_are_errors() {
        let text = sample_report().to_jsonl();
        let truncated = &text[..text.len() - "{\"rec\":\"end\"}\n".len()];
        assert!(parse_jsonl(truncated).is_err());
        let run = "{\"rec\":\"run\",\"name\":\"r\",\"shards\":1,\"workers\":1}\n";
        let hist = |fields: &str| format!("{{\"rec\":\"hist\",\"name\":\"h\",{fields}}}");
        let geometry = "\"underflow\":0,\"overflow\":0,\"counts\":[1]";
        let bad = [
            "{\"name\":\"c\",\"v\":1}".to_string(),
            "{\"rec\":7}".to_string(),
            "{\"rec\":\"bogus\"}".to_string(),
            run.trim().to_string(),
            "{\"rec\":\"ctr\",\"name\":\"c\"}".to_string(),
            "{\"rec\":\"ctr\",\"name\":7,\"v\":1}".to_string(),
            "{\"rec\":\"ctr\",\"name\":\"c\",\"v\":1.5}".to_string(),
            "{\"rec\":\"ctr\",\"name\":\"c\",\"v\":\"1\"}".to_string(),
            "{\"rec\":\"ctr\",\"name\":\"c\",\"v\":18446744073709551616}".to_string(),
            "{\"rec\":\"time\",\"cat\":\"execute\",\"ns\":-1}".to_string(),
            "{\"rec\":\"shard\",\"shard\":0,\"events\":1,\"handoff_msgs\":0}".to_string(),
            hist("\"min\":1,\"base\":2,\"underflow\":0,\"overflow\":0"),
            hist("\"min\":1,\"base\":2,\"underflow\":0,\"overflow\":0,\"counts\":[1,x]"),
            hist("\"min\":1,\"base\":2,\"underflow\":0,\"overflow\":0,\"counts\":[1.5]"),
            hist(&format!("\"min\":\"1\",\"base\":2,{geometry}")),
            hist(&format!("\"min\":0,\"base\":2,{geometry}")),
            hist(&format!("\"min\":1,\"base\":1,{geometry}")),
            hist("\"min\":1,\"base\":2,\"underflow\":0.5,\"overflow\":0,\"counts\":[]"),
        ];
        for line in &bad {
            let text = format!("{run}{line}\n{{\"rec\":\"end\"}}\n");
            assert!(parse_jsonl(&text).is_err(), "accepted {line}");
        }
        for orphan in [
            "{\"rec\":\"end\"}",
            "{\"rec\":\"ctr\",\"name\":\"c\",\"v\":1}",
        ] {
            assert!(
                parse_jsonl(orphan).is_err(),
                "accepted {orphan} outside a run"
            );
        }
    }

    #[test]
    fn render_includes_attribution_and_top_shards() {
        let r = sample_report();
        let out = r.render(1);
        assert!(out.contains("barrier_wait"));
        assert!(
            out.contains("| 0     | 80 "),
            "top-1 keeps the busiest shard:\n{out}"
        );
        assert!(
            !out.contains("| 1     | 40 "),
            "top-1 drops the idle shard:\n{out}"
        );
    }

    #[test]
    fn prometheus_page_has_type_headers_and_run_labels() {
        let r = sample_report();
        let page = prometheus(std::slice::from_ref(&r));
        assert!(page.contains("# TYPE peerwindow_engine_time_ns_total counter"));
        assert!(page.contains("run=\"sample\",cat=\"execute\""));
        assert!(page.contains("peerwindow_engine_events_total{run=\"sample\"} 120"));
        assert!(
            page.contains("peerwindow_engine_shard_events_total{run=\"sample\",shard=\"0\"} 80")
        );
    }

    #[test]
    fn counter_names_round_trip_through_report_keys() {
        let r = RunReport::new("x", 1, 1);
        for c in Counter::ALL {
            assert_eq!(r.counter(c.name()), 0);
        }
    }

    mod round_trip {
        use super::*;
        use proptest::prelude::*;

        /// `(1 + m/2^64) · 10^e`: a fractional value between 1e-9 and 2e8.
        fn scaled(mantissa: u64, exp: i32) -> f64 {
            (1.0 + mantissa as f64 / u64::MAX as f64) * 10f64.powi(exp)
        }

        /// Names drawn from characters the exporter has to escape.
        const NAME: &str = "[a-z\"\\\n\t\u{1}é✓]{0,12}";

        proptest! {
            // The exporter writes `min`/`base` with `f64`'s `Display`; the
            // reader must take every such fraction back bit for bit, and
            // every escaped name and count unchanged.
            #[test]
            fn to_jsonl_parse_jsonl_to_jsonl_is_identity(
                name in NAME,
                shards in any::<u64>(),
                rows in proptest::collection::vec((NAME, any::<u64>()), 0..4),
                geometry in proptest::collection::vec(
                    (any::<u64>(), -9i32..9, any::<u64>(), -9i32..9),
                    0..4,
                ),
                counts in proptest::collection::vec(any::<u64>(), 0..=LogHistogram::MAX_BUCKETS),
                spill in (any::<u64>(), any::<u64>()),
                shard in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ) {
                let mut r = RunReport::new(&name, shards, shards / 3);
                for (n, v) in &rows {
                    r.time_ns.push((n.clone(), *v));
                    r.counters.push((n.clone(), *v));
                }
                for (i, &(m1, e1, m2, e2)) in geometry.iter().enumerate() {
                    let h = LogHistogram::from_parts(
                        scaled(m1, e1),
                        1.0 + scaled(m2, e2),
                        counts[..counts.len() * i / geometry.len()].to_vec(),
                        spill.0,
                        spill.1,
                    );
                    let hist_name = rows.get(i).map_or_else(|| name.clone(), |(n, _)| n.clone());
                    r.hists.push((hist_name, h));
                }
                let (shard, events, handoff_msgs, pending) = shard;
                r.per_shard.push(ShardReport { shard, events, handoff_msgs, pending });
                let text = r.to_jsonl();
                let parsed = parse_jsonl(&text).expect("an export parses");
                prop_assert_eq!(&parsed, &vec![r]);
                prop_assert_eq!(parsed[0].to_jsonl(), text);
            }
        }
    }
}
