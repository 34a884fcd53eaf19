//! Harness-side spans: one per call into a layer's public function,
//! kept in memory and written out as Chrome `trace_event` JSON when the
//! run ends. Nothing here reaches into the measured crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the trace's span list; spans of one
/// request share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
    pub tid: u32,
}

/// A single thread's span recorder. All tracers of a run share `epoch`
/// so their spans land on one time axis.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing and reads no clock: the untraced
    /// twin of a traced drive runs the same code through this.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    /// Runs `f` inside a span named after the layer it calls into. Spans
    /// opened by `f` through the tracer it is handed become children.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            tid: self.tid,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans cover. Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals over a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
    /// Whole-span durations in ns, one per call (for percentiles).
    pub durations: Vec<f64>,
}

/// Groups spans by name. Root spans (no parent) are the traced run's
/// end-to-end time; everything below them is layer time.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let l = layers.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += self_ns;
        l.durations.push((s.end_ns - s.start_ns) as f64);
    }
    layers
}

/// One layer's whole-span durations in µs (empty if it never ran).
pub fn durations_us(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> Vec<f64> {
    layers
        .get(name)
        .map(|l| l.durations.iter().map(|ns| ns / 1e3).collect())
        .unwrap_or_default()
}

/// Share of the root spans' total duration that non-root spans' self
/// times account for — how much of the traced end-to-end time is
/// attributed to a named layer instead of to the harness loop itself.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let mut root_total = 0u64;
    let mut layer_self = 0u64;
    for (s, self_ns) in spans.iter().zip(selfs) {
        match s.parent {
            None => root_total += s.end_ns - s.start_ns,
            Some(_) => layer_self += self_ns,
        }
    }
    if root_total == 0 {
        0.0
    } else {
        layer_self as f64 / root_total as f64
    }
}

/// Chrome `trace_event` JSON ("complete" events, µs). At most `limit`
/// spans are written — the head of the run; parents always precede
/// their children in the list, so a truncated file has no orphans.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"span_id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            i + 1,
            s.parent.map_or(0, |p| p + 1),
            s.request,
        )
        .expect("write to String");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // overlaps `a` on 20..30: the union covers 10..50, not 20 + 30
            span("b", 20, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            // grandchild: reduces `c`, not the root
            span("d", 72, 78, Some(2 + 1)),
            // sticks out past the parent: clipped at 100
            span("e", 95, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 5));
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[3], 10 - 6);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn coverage_counts_layer_self_time_against_root_duration() {
        let spans = vec![
            span("op", 0, 100, None),
            span("x", 0, 60, Some(0)),
            span("y", 10, 40, Some(1)),
        ];
        // x self 30 + y self 30 of a 100 ns root
        assert!((coverage(&spans) - 0.6).abs() < 1e-12);
        let layers = by_layer(&spans);
        assert_eq!(layers["x"].self_ns, 30);
        assert_eq!(layers["op"].self_ns, 40);
        assert_eq!(layers["y"].durations, vec![30.0]);
    }

    #[test]
    fn tracer_nests_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        a.scope("outer", 7, |t| t.scope("inner", 7, |_| ()));
        let mut b = Tracer::new(epoch, 1);
        b.scope("outer", 8, |t| t.scope("inner", 8, |_| ()));
        a.absorb(b);
        let s = &a.into_spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[3].parent), (Some(0), Some(2)));
        assert_eq!((s[2].tid, s[3].request), (1, 8));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = chrome_trace(s, 3);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"span_id\":2,\"parent\":1,\"request\":7"));
    }
}
