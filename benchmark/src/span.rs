//! Bench-side spans: one record per timed call into a layer.
//!
//! Spans are kept in memory and written out when the run ends. A span
//! names the layer call it wraps (`core.node.handle.probe_timer`), its
//! start and end, the span that caused it, and a weight: hot calls are
//! sampled one in `weight`, so `duration × weight` estimates the time of
//! all the calls the sample stands for. A layer's self time is its
//! span's duration minus what its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// How many calls this sampled span stands for (1 = not sampled).
    pub weight: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    /// Recorded spans.
    pub count: u64,
    /// Calls the recorded spans stand for (Σ weight).
    pub calls: u64,
    /// Σ duration of recorded spans, ns (unweighted; `total_ns / count`
    /// is the mean time of one call).
    pub total_ns: u64,
    /// Σ (duration − children) × weight, ns: the layer's own share of the
    /// wall clock, scaled up to all the calls the samples stand for.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration of one call, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// In-memory span recorder. Disabled, `begin`/`end` are one branch each.
pub struct Tracer {
    on: bool,
    run_id: u64,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `on`; `run_id` tags every span of the
    /// run in the written file.
    pub fn new(on: bool, run_id: u64) -> Self {
        Tracer {
            on,
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded right now.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (the traced run alternates traced
    /// and untraced slices to measure its own overhead). Only call with
    /// no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    /// Opens a span standing for one call.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.begin_weighted(name, 1)
    }

    /// Opens a span standing for `weight` calls (1-in-`weight` sampling).
    #[inline]
    pub fn begin_weighted(&mut self, name: &'static str, weight: u32) -> SpanId {
        if !self.on {
            return SpanId(ROOT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            weight,
        });
        self.open.push(idx);
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[idx as usize].start_ns = self.t0.elapsed().as_nanos() as u64;
        SpanId(idx)
    }

    /// Closes the innermost open span, which must be `id`.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == ROOT {
            return;
        }
        // Read the clock first, for the same reason.
        let now = self.t0.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Times `f` under a span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals with self times.
    pub fn stats(&self) -> BTreeMap<&'static str, NameStats> {
        stats_of(&self.spans, 0..self.spans.len())
    }

    /// Per-name totals over the spans recorded at indices `range` (a
    /// workload brackets its timed loop with [`Self::len`]).
    pub fn stats_in(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, NameStats> {
        stats_of(&self.spans, range)
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"run\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"weight\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns, s.weight
            )?;
        }
        w.flush()
    }
}

/// Self-time arithmetic over a span set: a span's self time is its
/// duration minus the (weighted) durations of its direct children,
/// floored at zero because a sampled child scaled by its weight can
/// overshoot the parent it was sampled in. Only spans at indices `range`
/// are totalled.
pub fn stats_of(
    spans: &[Span],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns() * s.weight as u64;
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, children) in spans[range.clone()].iter().zip(&child_ns[range]) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.calls += s.weight as u64;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(*children) * s.weight as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, weight: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            weight,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("cycle", 0, 100, ROOT, 1),
            span("capture", 10, 40, 0, 1),
            span("prepare", 40, 90, 0, 1),
            span("decode", 50, 60, 2, 1),
        ];
        let st = stats_of(&spans, 0..spans.len());
        assert_eq!(st["cycle"].self_ns, 20);
        assert_eq!(st["capture"].self_ns, 30);
        assert_eq!(st["prepare"].self_ns, 40);
        assert_eq!(st["decode"].self_ns, 10);
        // Self times partition the root span.
        assert_eq!(st.values().map(|s| s.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn sampled_children_are_scaled_by_weight() {
        // One in 4 datagrams is spanned: 4 calls of 10 ns each inside a
        // 50 ns round leave 10 ns of the round's own time.
        let spans = vec![span("round", 0, 50, ROOT, 1), span("encode", 5, 15, 0, 4)];
        let st = stats_of(&spans, 0..spans.len());
        assert_eq!(st["encode"].calls, 4);
        assert_eq!(st["encode"].self_ns, 40);
        assert_eq!(st["encode"].mean_ns(), 10.0);
        assert_eq!(st["round"].self_ns, 10);
        // An overshooting sample floors the parent at zero.
        let spans = vec![span("round", 0, 50, ROOT, 1), span("encode", 5, 25, 0, 4)];
        assert_eq!(stats_of(&spans, 0..2)["round"].self_ns, 0);
        // A range totals only its own spans.
        assert_eq!(stats_of(&spans, 1..2).len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let s = t.begin("x");
        t.end(s);
        assert_eq!(t.len(), 0);
        t.set_on(true);
        let outer = t.begin("outer");
        t.time("inner", || ());
        t.end(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
    }
}
