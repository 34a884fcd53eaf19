//! Histogram edge cases: empty snapshots, top-bucket saturation, and
//! concurrent recording agreeing with sequential totals.

use std::sync::Arc;

use proptest::prelude::*;
use softcell_telemetry::{bucket_index, Histogram, HistogramSample, Registry, BUCKETS};

#[test]
fn zero_samples_yield_zeroed_snapshot_without_division() {
    let r = Registry::new();
    let _ = r.histogram("softcell_test_empty_ns");
    let snap = r.snapshot();
    let h = snap
        .histogram("softcell_test_empty_ns")
        .expect("registered");
    assert_eq!(h.count, 0);
    assert_eq!(h.sum, 0);
    assert_eq!(h.max, 0);
    assert_eq!((h.p50, h.p95, h.p99), (0, 0, 0));
    assert_eq!(h.mean(), 0.0, "mean of empty histogram is 0, not NaN");
    // the report of an empty histogram must not panic either
    let _ = snap.report();
}

#[test]
fn top_bucket_saturates_instead_of_overflowing() {
    let h = Histogram::new();
    for v in [u64::MAX, u64::MAX, 1 << 63, (1 << 62) - 1] {
        h.record(v);
    }
    assert_eq!(h.count(), 4);
    assert_eq!(h.max(), u64::MAX);
    let buckets = h.buckets();
    assert_eq!(
        buckets[BUCKETS - 1],
        3,
        "MAX and 1<<63 share the top bucket"
    );
    assert_eq!(buckets[BUCKETS - 2], 1, "(1<<62)-1 has bit length 62");
    assert_eq!(h.quantile(0.99), u64::MAX, "top bucket reports u64::MAX");
    // sum wrapped (2 * u64::MAX + ...), but count/buckets stay exact and
    // the percentile path never divides by the wrapped sum
    let sample = HistogramSample::from_buckets(
        "softcell_test_sat_ns".into(),
        String::new(),
        buckets,
        h.sum(),
        h.max(),
    );
    assert_eq!(sample.count, 4);
    assert_eq!(sample.p50, u64::MAX);
}

proptest! {
    /// `Snapshot::merge` on histograms is lossless at the percentile
    /// level: the merged p50/p95/p99 equal those of one histogram fed
    /// the union of both sample sets (bucket merging is exact, so the
    /// derived quantiles must be too).
    #[test]
    fn merged_percentiles_match_union_histogram(
        a in proptest::collection::vec(0u64..10_000_000, 0..128),
        b in proptest::collection::vec(0u64..10_000_000, 0..128),
    ) {
        let snap_of = |samples: &[u64]| {
            let r = Registry::new();
            let h = r.histogram("softcell_test_merge_ns");
            for &v in samples {
                h.record(v);
            }
            r.snapshot()
        };
        let mut merged = snap_of(&a);
        merged.merge(&snap_of(&b));

        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let single = snap_of(&union);

        let m = merged.histogram("softcell_test_merge_ns").expect("merged");
        let s = single.histogram("softcell_test_merge_ns").expect("single");
        prop_assert_eq!(m.count, s.count);
        prop_assert_eq!(m.sum, s.sum);
        prop_assert_eq!(m.max, s.max);
        prop_assert_eq!((m.p50, m.p95, m.p99), (s.p50, s.p95, s.p99));
        prop_assert_eq!(&m.buckets, &s.buckets);
    }

    /// Eight threads hammering one histogram record exactly the same
    /// count, sum, max and per-bucket totals as recording the same
    /// samples sequentially.
    #[test]
    fn concurrent_recording_matches_sequential(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..64),
            8..9,
        ),
    ) {
        let concurrent = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for samples in &per_thread {
                let h = Arc::clone(&concurrent);
                s.spawn(move || {
                    for &v in samples {
                        h.record(v);
                    }
                });
            }
        });

        let sequential = Histogram::new();
        let mut expect_count = 0u64;
        let mut expect_sum = 0u64;
        let mut expect_max = 0u64;
        for &v in per_thread.iter().flatten() {
            sequential.record(v);
            expect_count += 1;
            expect_sum += v;
            expect_max = expect_max.max(v);
        }

        prop_assert_eq!(concurrent.count(), expect_count);
        prop_assert_eq!(concurrent.sum(), expect_sum);
        prop_assert_eq!(concurrent.max(), expect_max);
        prop_assert_eq!(concurrent.buckets(), sequential.buckets());
        for &v in per_thread.iter().flatten().take(1) {
            // spot-check the shared bucket math both paths rely on
            prop_assert!(bucket_index(v) < BUCKETS);
        }
    }
}
