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

fn str_field(line: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":\"");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("missing string field {key:?} in {line:?}"))?
        + pat.len();
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                // The literal, both quotes included.
                return match json::parse(&line[start - 1..=i]) {
                    Ok(JVal::Str(s)) => Ok(s),
                    other => Err(format!("bad string field {key:?} in {line:?}: {other:?}")),
                };
            }
            _ => i += 1,
        }
    }
    Err(format!("unterminated string field {key:?} in {line:?}"))
}

fn raw_num_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("missing numeric field {key:?} in {line:?}"))?
        + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

fn u64_field(line: &str, key: &str) -> Result<u64, String> {
    raw_num_field(line, key)?
        .parse()
        .map_err(|e| format!("bad u64 {key:?} in {line:?}: {e}"))
}

fn f64_field(line: &str, key: &str) -> Result<f64, String> {
    raw_num_field(line, key)?
        .parse()
        .map_err(|e| format!("bad f64 {key:?} in {line:?}: {e}"))
}

fn counts_field(line: &str) -> Result<Vec<u64>, String> {
    let pat = "\"counts\":[";
    let start = line
        .find(pat)
        .ok_or_else(|| format!("missing counts array in {line:?}"))?
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(']')
        .ok_or_else(|| format!("unterminated counts array in {line:?}"))?;
    let body = &rest[..end];
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|e| format!("bad count {t:?} in {line:?}: {e}"))
        })
        .collect()
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
        let rec = str_field(line, "rec").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let err = |e: String| format!("line {}: {e}", lineno + 1);
        match rec.as_str() {
            "run" => {
                if cur.is_some() {
                    return Err(err("new run before end of previous".to_string()));
                }
                let mut r = RunReport::new(
                    &str_field(line, "name").map_err(err)?,
                    u64_field(line, "shards").map_err(err)?,
                    u64_field(line, "workers").map_err(err)?,
                );
                // Start from truly empty rows: the exporter writes every
                // row it has, so parsing must not pre-seed defaults.
                r.time_ns.clear();
                r.counters.clear();
                r.hists.clear();
                cur = Some(r);
            }
            "time" => {
                let r = cur
                    .as_mut()
                    .ok_or_else(|| err("time outside run".to_string()))?;
                r.time_ns.push((
                    str_field(line, "cat").map_err(err)?,
                    u64_field(line, "ns").map_err(err)?,
                ));
            }
            "ctr" => {
                let r = cur
                    .as_mut()
                    .ok_or_else(|| err("ctr outside run".to_string()))?;
                r.counters.push((
                    str_field(line, "name").map_err(err)?,
                    u64_field(line, "v").map_err(err)?,
                ));
            }
            "hist" => {
                let r = cur
                    .as_mut()
                    .ok_or_else(|| err("hist outside run".to_string()))?;
                let h = LogHistogram::from_parts(
                    f64_field(line, "min").map_err(err)?,
                    f64_field(line, "base").map_err(err)?,
                    counts_field(line).map_err(err)?,
                    u64_field(line, "underflow").map_err(err)?,
                    u64_field(line, "overflow").map_err(err)?,
                );
                r.hists.push((str_field(line, "name").map_err(err)?, h));
            }
            "shard" => {
                let r = cur
                    .as_mut()
                    .ok_or_else(|| err("shard outside run".to_string()))?;
                r.per_shard.push(ShardReport {
                    shard: u64_field(line, "shard").map_err(err)?,
                    events: u64_field(line, "events").map_err(err)?,
                    handoff_msgs: u64_field(line, "handoff_msgs").map_err(err)?,
                    pending: u64_field(line, "pending").map_err(err)?,
                });
            }
            "end" => {
                let r = cur
                    .take()
                    .ok_or_else(|| err("end outside run".to_string()))?;
                reports.push(r);
            }
            other => return Err(err(format!("unknown record kind {other:?}"))),
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

    #[test]
    fn jsonl_truncation_and_garbage_are_errors() {
        let r = sample_report();
        let text = r.to_jsonl();
        let truncated = &text[..text.len() - "{\"rec\":\"end\"}\n".len()];
        assert!(parse_jsonl(truncated).is_err());
        assert!(parse_jsonl("{\"rec\":\"bogus\"}\n").is_err());
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
}
