//! Criterion micro-benchmarks for the telemetry substrate.
//!
//! The acceptance bar is a counter increment under 10 ns — cheap enough
//! to leave in every hot path. Benchmarked:
//!
//! * `telemetry_counter_inc` — one relaxed atomic increment, the cost a
//!   packet-in pays per counter it touches.
//! * `telemetry_gauge_record_max` — one `fetch_max`, the occupancy
//!   high-water-mark path.
//! * `telemetry_histogram_record` — bucket index + two `fetch_add` +
//!   one `fetch_max`, the latency-sample path.
//! * `telemetry_stopwatch_record` — `Instant::now` twice plus the
//!   histogram record: the full cost of timing one request.
//! * `telemetry_family_lookup` — interning a labeled counter through
//!   the registry's mutex-guarded map (the cold path; hot paths hold
//!   `Arc` handles instead).
//! * `telemetry_snapshot` — draining a populated registry into an
//!   exportable [`Snapshot`] (runs once per report, never per request).
//!
//! With `--features telemetry-off` every primitive compiles to a no-op;
//! the same benches then measure pure harness overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use softcell_telemetry::{Counter, Gauge, Histogram, Registry, Stopwatch};

fn bench_primitives(c: &mut Criterion) {
    // empty closure through the same driver: the loop + black_box floor
    // to subtract from every number below
    c.bench_function("telemetry_harness_floor", |b| b.iter(|| ()));

    // no black_box around the targets: an atomic RMW is a side effect
    // the compiler cannot elide, and forcing the handle to escape every
    // iteration would bill a pointer reload to the primitive
    let counter = Counter::new();
    c.bench_function("telemetry_counter_inc", |b| b.iter(|| counter.inc()));

    let gauge = Gauge::new();
    let mut v = 0u64;
    c.bench_function("telemetry_gauge_record_max", |b| {
        b.iter(|| {
            v = v.wrapping_add(0x9E37_79B9) & 0xFFFF;
            gauge.record_max(v)
        })
    });

    let hist = Histogram::new();
    let mut sample = 1u64;
    c.bench_function("telemetry_histogram_record", |b| {
        b.iter(|| {
            sample = sample.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(sample >> 32)
        })
    });

    c.bench_function("telemetry_stopwatch_record", |b| {
        b.iter(|| {
            let sw = Stopwatch::start();
            sw.record(&hist);
        })
    });
}

fn bench_registry(c: &mut Criterion) {
    let registry = Registry::new();
    c.bench_function("telemetry_family_lookup", |b| {
        b.iter(|| black_box(registry.counter_with("softcell_bench_family_lookup_total", "shard=3")))
    });

    let populated = Registry::new();
    for shard in 0..8u64 {
        let label = format!("shard={shard}");
        populated
            .counter_with("softcell_bench_served_total", &label)
            .add(shard * 1000);
        let h = populated.histogram_with("softcell_bench_latency_ns", &label);
        for i in 0..1024u64 {
            h.record(i * 97);
        }
    }
    populated.tracer().instant("attach", 1);
    c.bench_function("telemetry_snapshot", |b| {
        b.iter(|| black_box(populated.snapshot()))
    });
}

criterion_group!(benches, bench_primitives, bench_registry);
criterion_main!(benches);
