//! Telemetry substrate for the SoftCell reproduction: lock-free
//! counters/gauges, log2 latency histograms, a labeled-family metric
//! [`Registry`], and a sampled causal [`Tracer`] whose one span ring
//! also holds the control plane's lifecycle instants.
//!
//! The paper's evaluation (§6) hinges on quantities the runtime itself
//! is best placed to measure — packet-in service latency, per-shard
//! load, flow-table pressure, retry/dedup activity on the southbound
//! channel. This crate gives every layer one cheap way to emit them:
//!
//! * [`metrics`] — [`Counter`]/[`Gauge`]/[`Histogram`], each a few
//!   `Relaxed` atomics on the hot path, plus [`Stopwatch`] for timing and
//!   [`LocalHistogram`] for one thread's samples, absorbed once.
//! * [`registry`] — [`Registry`]: named, optionally labeled families
//!   (`softcell_<crate>_<name>` naming, `key=value` labels) interned
//!   once and touched lock-free thereafter; a process-wide
//!   [`Registry::global`] plus per-instance registries where isolation
//!   matters.
//! * [`snapshot`] — [`Snapshot`]: typed point-in-time export, merged
//!   across registries, rendered to JSON (via serde), Prometheus text
//!   exposition, or a human-readable report table.
//! * [`trace`] — [`Tracer`]: sampled causal spans ([`TraceContext`]
//!   propagated across threads and the wire, RAII [`Span`] guards, a
//!   bounded record ring) feeding the snapshot's critical-path
//!   attribution and Chrome `trace_event` export (DESIGN.md §15).
//!   Rare lifecycle events (reconnect, fail-over, re-home…) land in
//!   the same ring as zero-duration spans via [`Tracer::instant`].

pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, quantile_from_buckets, Counter, Gauge, Histogram,
    LocalHistogram, Stopwatch, BUCKETS,
};
pub use registry::Registry;
pub use snapshot::{
    CounterSample, GaugeSample, HistogramSample, KindAttribution, Snapshot, SpanSample,
};
pub use trace::{ReqTrace, Span, SpanRecord, TraceContext, Tracer, DEFAULT_SLOW_US};
