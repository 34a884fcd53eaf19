//! Point-in-time metric snapshots and their export formats.
//!
//! [`Snapshot`] is the typed result of [`Registry::snapshot`]
//! (crate::Registry::snapshot): plain serializable structs, so a bench
//! binary can dump it to JSON (`--telemetry out.json`), render the
//! Prometheus text exposition for scraping, or print a human-readable
//! [`Snapshot::report`] table. Snapshots from different registries —
//! e.g. one per-server registry per shard-count sweep point plus the
//! process-global one — combine with [`Snapshot::merge`].

use std::collections::BTreeMap;

use serde::Serialize;

use crate::metrics::{quantile_from_buckets, BUCKETS};

/// One counter reading.
#[derive(Debug, Clone, Serialize)]
pub struct CounterSample {
    /// Metric name (`softcell_<crate>_<name>_total`).
    pub name: String,
    /// `key=value` label, empty for unlabeled metrics.
    pub label: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge reading.
#[derive(Debug, Clone, Serialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// `key=value` label, empty for unlabeled metrics.
    pub label: String,
    /// Gauge value at snapshot time.
    pub value: u64,
}

/// One histogram reading with precomputed percentiles.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// `key=value` label, empty for unlabeled metrics.
    pub label: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (upper bound of the bucket holding the rank).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Raw log2 bucket counts (see [`crate::metrics::bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSample {
    /// Builds a sample from raw buckets, deriving the count from the
    /// buckets themselves so the percentiles are self-consistent even if
    /// recordings race the snapshot.
    pub fn from_buckets(
        name: String,
        label: String,
        buckets: Vec<u64>,
        sum: u64,
        max: u64,
    ) -> HistogramSample {
        let count: u64 = buckets.iter().sum();
        HistogramSample {
            name,
            label,
            count,
            sum,
            max,
            p50: quantile_from_buckets(&buckets, count, 0.50),
            p95: quantile_from_buckets(&buckets, count, 0.95),
            p99: quantile_from_buckets(&buckets, count, 0.99),
            buckets,
        }
    }

    /// Mean sample value; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One completed trace span, with the kind owned so snapshots are
/// self-contained (see [`crate::trace::SpanRecord`]).
#[derive(Debug, Clone, Serialize)]
pub struct SpanSample {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Segment name, e.g. `"serve_frame"`.
    pub kind: String,
    /// Microseconds since the process trace epoch.
    pub start_us: u64,
    /// End of the interval.
    pub end_us: u64,
    /// Shard the span ran on (-1 = not shard-bound).
    pub shard: i64,
    /// Free-form operand.
    pub label: u64,
}

/// Per-span-kind critical-path attribution over every complete trace
/// in a snapshot (see [`Snapshot::critical_path`]).
#[derive(Debug, Clone, Serialize)]
pub struct KindAttribution {
    /// Segment name.
    pub kind: String,
    /// Spans of this kind (all, not just on the critical path).
    pub count: u64,
    /// Summed wall time of all spans of this kind, µs.
    pub total_us: u64,
    /// Time this kind spent on the blocking chain, µs: interval not
    /// covered by any child — the segment's *self* contribution to
    /// end-to-end latency.
    pub critical_us: u64,
}

/// Every metric a registry held at one instant.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Snapshot {
    /// Counter readings, sorted by (name, label).
    pub counters: Vec<CounterSample>,
    /// Gauge readings, sorted by (name, label).
    pub gauges: Vec<GaugeSample>,
    /// Histogram readings, sorted by (name, label).
    pub histograms: Vec<HistogramSample>,
    /// Retained trace spans, oldest first.
    pub spans: Vec<SpanSample>,
    /// Trace spans evicted before this snapshot.
    pub spans_dropped: u64,
}

impl Snapshot {
    /// Sum of counter `name` across all labels (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Counter `name{label}` (zero if absent).
    pub fn counter_labeled(&self, name: &str, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map_or(0, |c| c.value)
    }

    /// Gauge `name{label}` (zero if absent).
    pub fn gauge_labeled(&self, name: &str, label: &str) -> u64 {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.label == label)
            .map_or(0, |g| g.value)
    }

    /// First histogram named `name`, any label.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds `other` into `self`: counters add, gauges keep the larger
    /// reading (they track high-water marks across instances),
    /// histograms merge bucket-wise with percentiles recomputed, spans
    /// concatenate (every tracer stamps from the one process trace
    /// epoch, so spans of different registries order by `start_us`).
    pub fn merge(&mut self, other: &Snapshot) {
        let mut counters: BTreeMap<(String, String), u64> = self
            .counters
            .drain(..)
            .map(|c| ((c.name, c.label), c.value))
            .collect();
        for c in &other.counters {
            *counters
                .entry((c.name.clone(), c.label.clone()))
                .or_insert(0) += c.value;
        }
        self.counters = counters
            .into_iter()
            .map(|((name, label), value)| CounterSample { name, label, value })
            .collect();

        let mut gauges: BTreeMap<(String, String), u64> = self
            .gauges
            .drain(..)
            .map(|g| ((g.name, g.label), g.value))
            .collect();
        for g in &other.gauges {
            let slot = gauges.entry((g.name.clone(), g.label.clone())).or_insert(0);
            *slot = (*slot).max(g.value);
        }
        self.gauges = gauges
            .into_iter()
            .map(|((name, label), value)| GaugeSample { name, label, value })
            .collect();

        let mut hists: BTreeMap<(String, String), HistogramSample> = self
            .histograms
            .drain(..)
            .map(|h| ((h.name.clone(), h.label.clone()), h))
            .collect();
        for h in &other.histograms {
            match hists.entry((h.name.clone(), h.label.clone())) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let cur = e.get_mut();
                    let mut buckets = vec![0u64; BUCKETS.max(cur.buckets.len())];
                    for (i, b) in cur.buckets.iter().enumerate() {
                        buckets[i] += b;
                    }
                    for (i, b) in h.buckets.iter().enumerate() {
                        buckets[i] += b;
                    }
                    *cur = HistogramSample::from_buckets(
                        h.name.clone(),
                        h.label.clone(),
                        buckets,
                        cur.sum.saturating_add(h.sum),
                        cur.max.max(h.max),
                    );
                }
            }
        }
        self.histograms = hists.into_values().collect();

        self.spans.extend(other.spans.iter().cloned());
        self.spans_dropped += other.spans_dropped;
    }

    /// A plain-text table of every nonzero metric — what
    /// `tab2_agent_throughput` prints after a run.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let key = |name: &str, label: &str| {
            if label.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{label}}}")
            }
        };
        let width = self
            .counters
            .iter()
            .map(|c| key(&c.name, &c.label).len())
            .chain(self.gauges.iter().map(|g| key(&g.name, &g.label).len()))
            .chain(self.histograms.iter().map(|h| key(&h.name, &h.label).len()))
            .max()
            .unwrap_or(6)
            .max(6);
        out.push_str(&format!("{:<width$}  {:>12}\n", "metric", "value"));
        for c in self.counters.iter().filter(|c| c.value > 0) {
            out.push_str(&format!(
                "{:<width$}  {:>12}\n",
                key(&c.name, &c.label),
                c.value
            ));
        }
        for g in self.gauges.iter().filter(|g| g.value > 0) {
            out.push_str(&format!(
                "{:<width$}  {:>12}\n",
                key(&g.name, &g.label),
                g.value
            ));
        }
        let hists: Vec<&HistogramSample> = self.histograms.iter().filter(|h| h.count > 0).collect();
        if !hists.is_empty() {
            out.push_str(&format!(
                "{:<width$}  {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "p50", "p95", "p99", "max"
            ));
            for h in hists {
                out.push_str(&format!(
                    "{:<width$}  {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                    key(&h.name, &h.label),
                    h.count,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                ));
            }
        }
        if !self.spans.is_empty() || self.spans_dropped > 0 {
            out.push_str(&format!(
                "spans: {} retained, {} dropped, {} complete trace(s)\n",
                self.spans.len(),
                self.spans_dropped,
                self.complete_traces().len()
            ));
            let attrib = self.critical_path();
            let total_crit: u64 = attrib.iter().map(|a| a.critical_us).sum();
            if total_crit > 0 {
                out.push_str(&format!(
                    "{:<width$}  {:>12} {:>12} {:>12} {:>7}\n",
                    "critical path", "count", "total_us", "critical_us", "share%"
                ));
                for a in &attrib {
                    out.push_str(&format!(
                        "{:<width$}  {:>12} {:>12} {:>12} {:>7.1}\n",
                        a.kind,
                        a.count,
                        a.total_us,
                        a.critical_us,
                        100.0 * a.critical_us as f64 / total_crit as f64
                    ));
                }
            }
        }
        out
    }

    /// Spans grouped by trace, restricted to *complete* traces — those
    /// whose every parent reference resolves within the trace (ring
    /// eviction can orphan the tail of old traces; an export must not
    /// show dangling parents).
    pub fn complete_traces(&self) -> BTreeMap<u64, Vec<&SpanSample>> {
        let mut by_trace: BTreeMap<u64, Vec<&SpanSample>> = BTreeMap::new();
        for s in &self.spans {
            by_trace.entry(s.trace_id).or_default().push(s);
        }
        by_trace.retain(|_, spans| {
            let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
            spans
                .iter()
                .all(|s| s.parent == 0 || (s.parent != s.span_id && ids.contains(&s.parent)))
        });
        by_trace
    }

    /// Chrome `trace_event` JSON (the `about://tracing` / Perfetto
    /// format): one complete duration event (`ph:"X"`, microsecond
    /// timestamps) per span, one virtual thread per trace so each
    /// operation renders as its own lane.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for spans in self.complete_traces().values() {
            for s in spans {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"softcell\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\
                     \"parent\":{},\"shard\":{},\"label\":{}}}}}",
                    json_escape(&s.kind),
                    s.start_us,
                    s.end_us.saturating_sub(s.start_us),
                    s.trace_id,
                    s.trace_id,
                    s.span_id,
                    s.parent,
                    s.shard,
                    s.label
                ));
            }
        }
        out.push_str("]}");
        out
    }

    /// Critical-path attribution: for every complete trace, walk the
    /// span tree backward from each root's end, attributing each moment
    /// to the *innermost* span covering it — a parent is only charged
    /// for time no child accounts for (its self-time on the blocking
    /// chain). Returns per-kind totals, largest critical share first.
    pub fn critical_path(&self) -> Vec<KindAttribution> {
        let mut agg: BTreeMap<&str, KindAttribution> = BTreeMap::new();
        for s in &self.spans {
            let e = agg
                .entry(s.kind.as_str())
                .or_insert_with(|| KindAttribution {
                    kind: s.kind.clone(),
                    count: 0,
                    total_us: 0,
                    critical_us: 0,
                });
            e.count += 1;
            e.total_us += s.end_us.saturating_sub(s.start_us);
        }
        for spans in self.complete_traces().values() {
            let mut children: BTreeMap<u64, Vec<&SpanSample>> = BTreeMap::new();
            for s in spans {
                children.entry(s.parent).or_default().push(s);
            }
            for kids in children.values_mut() {
                kids.sort_by_key(|s| std::cmp::Reverse(s.end_us));
            }
            for root in children.get(&0).cloned().unwrap_or_default() {
                let mut visited = std::collections::BTreeSet::new();
                walk_critical(root, &children, &mut visited, &mut agg);
            }
        }
        let mut out: Vec<KindAttribution> = agg.into_values().collect();
        out.sort_by(|a, b| {
            (b.critical_us, b.total_us, a.kind.as_str()).cmp(&(
                a.critical_us,
                a.total_us,
                b.kind.as_str(),
            ))
        });
        out
    }
}

/// One step of the critical-path walk: charge `span` for the stretch of
/// its interval not covered by any child (walking children newest-end
/// first), recursing into each child as it is encountered.
fn walk_critical<'a>(
    span: &'a SpanSample,
    children: &BTreeMap<u64, Vec<&'a SpanSample>>,
    visited: &mut std::collections::BTreeSet<u64>,
    agg: &mut BTreeMap<&'a str, KindAttribution>,
) {
    if !visited.insert(span.span_id) {
        return;
    }
    let mut cursor = span.end_us.max(span.start_us);
    for kid in children.get(&span.span_id).cloned().unwrap_or_default() {
        if kid.start_us >= cursor {
            continue; // entirely past the cursor: a sibling already covers it
        }
        let kid_end = kid.end_us.min(cursor);
        if let Some(e) = agg.get_mut(span.kind.as_str()) {
            e.critical_us += cursor - kid_end;
        }
        walk_critical(kid, children, visited, agg);
        cursor = kid.start_us.max(span.start_us);
    }
    if let Some(e) = agg.get_mut(span.kind.as_str()) {
        e.critical_us += cursor.saturating_sub(span.start_us);
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, label: &str, value: u64) -> CounterSample {
        CounterSample {
            name: name.to_string(),
            label: label.to_string(),
            value,
        }
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms() {
        let mut a = Snapshot {
            counters: vec![sample("softcell_x_total", "shard=0", 3)],
            ..Default::default()
        };
        let mut buckets = vec![0u64; BUCKETS];
        buckets[7] = 10; // ten samples of ~100
        a.histograms.push(HistogramSample::from_buckets(
            "softcell_lat_ns".into(),
            String::new(),
            buckets.clone(),
            1000,
            120,
        ));
        let mut b = Snapshot {
            counters: vec![
                sample("softcell_x_total", "shard=0", 4),
                sample("softcell_x_total", "shard=1", 5),
            ],
            ..Default::default()
        };
        buckets[14] = 1; // one outlier of ~10_000
        buckets[7] = 0;
        b.histograms.push(HistogramSample::from_buckets(
            "softcell_lat_ns".into(),
            String::new(),
            buckets,
            10_000,
            10_000,
        ));
        a.merge(&b);
        assert_eq!(a.counter_labeled("softcell_x_total", "shard=0"), 7);
        assert_eq!(a.counter("softcell_x_total"), 12);
        let h = a.histogram("softcell_lat_ns").unwrap();
        assert_eq!(h.count, 11);
        assert_eq!(h.sum, 11_000);
        assert_eq!(h.max, 10_000);
        assert_eq!(h.p50, 127);
        assert_eq!(h.p99, 16_383);
    }

    fn span(trace: u64, id: u64, parent: u64, kind: &str, s: u64, e: u64) -> SpanSample {
        SpanSample {
            trace_id: trace,
            span_id: id,
            parent,
            kind: kind.to_string(),
            start_us: s,
            end_us: e,
            shard: -1,
            label: 0,
        }
    }

    #[test]
    fn chrome_trace_exports_only_complete_traces() {
        let snap = Snapshot {
            spans: vec![
                span(1, 10, 0, "root", 0, 100),
                span(1, 11, 10, "child", 10, 40),
                // parent 99 was evicted from the ring: trace 2 is
                // incomplete and must not be exported
                span(2, 20, 99, "orphan", 5, 6),
            ],
            ..Default::default()
        };
        let traces = snap.complete_traces();
        assert!(traces.contains_key(&1));
        assert!(!traces.contains_key(&2));
        let json = snap.to_chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"dur\":30"), "child runs 10..40");
        assert!(!json.contains("orphan"));
    }

    #[test]
    fn critical_path_charges_gaps_to_the_parent() {
        // root [0,100] with children [10,40] and [60,90]: the root's
        // self-time on the blocking chain is the three uncovered gaps
        // (0-10, 40-60, 90-100) = 40 µs.
        let snap = Snapshot {
            spans: vec![
                span(1, 1, 0, "root", 0, 100),
                span(1, 2, 1, "early", 10, 40),
                span(1, 3, 1, "late", 60, 90),
            ],
            ..Default::default()
        };
        let attrib = snap.critical_path();
        let get = |k: &str| attrib.iter().find(|a| a.kind == k).expect(k).clone();
        assert_eq!(get("root").total_us, 100);
        assert_eq!(get("root").critical_us, 40);
        assert_eq!(get("early").critical_us, 30);
        assert_eq!(get("late").critical_us, 30);
        assert_eq!(attrib[0].kind, "root", "sorted by critical share");
        let text = snap.report();
        assert!(text.contains("critical path"), "report has the table");
        assert!(text.contains("spans: 3 retained"));
    }

    #[test]
    fn report_lists_nonzero_metrics() {
        let snap = Snapshot {
            counters: vec![
                sample("softcell_seen_total", "", 5),
                sample("softcell_never_total", "", 0),
            ],
            ..Default::default()
        };
        let text = snap.report();
        assert!(text.contains("softcell_seen_total"));
        assert!(!text.contains("softcell_never_total"), "zeros elided");
    }
}
