//! The metric registry: named, optionally labeled metric families.
//!
//! Callers register once — `registry.counter("softcell_x_total")` or
//! `registry.counter_with("softcell_x_total", "shard=3")` — cache the
//! returned `Arc` handle, and touch only the handle's atomics on the hot
//! path; the registry's interning mutex is never taken per event.
//! Metric names follow `softcell_<crate>_<name>` with counters suffixed
//! `_total` (DESIGN.md §11); labels are a single `key=value` string so
//! families stay flat and allocation-free to iterate.
//!
//! Two registries matter in practice: [`Registry::global`] for
//! process-wide subsystems whose instances are anonymous (ctlchan
//! transports, dataplane tables), and per-instance registries owned by
//! each `ControllerServer` so tests running many servers in parallel
//! never see each other's numbers.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot, SpanSample};
use crate::trace::Tracer;

type Family<T> = Mutex<BTreeMap<(String, String), Arc<T>>>;

/// A set of named metric families plus one span tracer.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
    tracer: Tracer,
}

fn intern<T: Default>(family: &Family<T>, name: &str, label: &str) -> Arc<T> {
    let mut map = family.lock().expect("registry poisoned");
    Arc::clone(
        map.entry((name.to_string(), label.to_string()))
            .or_default(),
    )
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// The process-wide registry for subsystems without a natural owner.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// The unlabeled counter `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, "")
    }

    /// The counter `name{label}`; same `(name, label)` returns the same
    /// underlying counter.
    pub fn counter_with(&self, name: &str, label: &str) -> Arc<Counter> {
        intern(&self.counters, name, label)
    }

    /// The unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, "")
    }

    /// The gauge `name{label}`.
    pub fn gauge_with(&self, name: &str, label: &str) -> Arc<Gauge> {
        intern(&self.gauges, name, label)
    }

    /// The unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, "")
    }

    /// The histogram `name{label}`.
    pub fn histogram_with(&self, name: &str, label: &str) -> Arc<Histogram> {
        intern(&self.histograms, name, label)
    }

    /// This registry's span tracer (disarmed by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A point-in-time copy of every registered metric and the retained
    /// spans, ready for JSON/Prometheus export or merging.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|((name, label), c)| CounterSample {
                name: name.clone(),
                label: label.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|((name, label), g)| GaugeSample {
                name: name.clone(),
                label: label.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|((name, label), h)| {
                HistogramSample::from_buckets(
                    name.clone(),
                    label.clone(),
                    h.buckets(),
                    h.sum(),
                    h.max(),
                )
            })
            .collect();
        let spans = self
            .tracer
            .records()
            .into_iter()
            .map(|s| SpanSample {
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent: s.parent,
                kind: s.kind.to_string(),
                start_us: s.start_us,
                end_us: s.end_us,
                shard: s.shard,
                label: s.label,
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
            spans_dropped: self.tracer.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_label_share_one_metric() {
        let r = Registry::new();
        let a = r.counter_with("softcell_test_total", "shard=0");
        let b = r.counter_with("softcell_test_total", "shard=0");
        let other = r.counter_with("softcell_test_total", "shard=1");
        a.inc();
        b.inc();
        other.inc();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.get(), 2);
        assert_eq!(other.get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counter("softcell_test_total"), 3, "family sums");
        assert_eq!(snap.counter_labeled("softcell_test_total", "shard=1"), 1);
    }

    #[test]
    fn snapshot_carries_tracer_spans() {
        let r = Registry::default();
        r.tracer().set_sampling(1, 0);
        {
            let _root = r.tracer().span_in(
                crate::trace::TraceContext {
                    trace_id: 42,
                    parent: 0,
                },
                "op",
            );
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].trace_id, 42);
        assert_eq!(snap.spans[0].kind, "op");
        assert_eq!(snap.spans_dropped, 0);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global() as *const Registry;
        let b = Registry::global() as *const Registry;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_captures_all_metric_kinds() {
        let r = Registry::new();
        r.counter("softcell_test_c_total").add(5);
        r.gauge_with("softcell_test_g", "sw=2").record_max(9);
        r.histogram("softcell_test_h_ns").record(1000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("softcell_test_c_total"), 5);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauges[0].value, 9);
        let h = snap.histogram("softcell_test_h_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 1000);
    }
}
