//! Lock-free metric primitives: counters, gauges, log2 histograms.
//!
//! Every primitive is a handful of `Relaxed` atomic operations on the
//! hot path — no locks, no allocation, no clock reads except where the
//! caller explicitly starts a [`Stopwatch`]. A thread that records many
//! samples alone keeps a [`LocalHistogram`] and absorbs it once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i >= 1` holds values of bit length `i` (i.e. `2^(i-1) ..= 2^i - 1`),
/// and the top bucket saturates — values too large for any finite bucket
/// land there instead of overflowing.
pub const BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, live connections) or
/// track a high-water mark via [`Gauge::record_max`].
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero would cost a CAS loop; the
    /// counters this backs are matched inc/dec pairs, so plain wrapping
    /// subtraction is exact in practice).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger — a lock-free
    /// high-water mark. A mark is passed rarely and read on every call
    /// (each table install reports its occupancy), so the
    /// read-modify-write runs only when a plain load says `v` passes it.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if v > self.value.load(Ordering::Relaxed) {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram: 64 buckets keyed by bit length, so a
/// `record` is two `fetch_add`s plus a `fetch_max` with no allocation.
/// Quantiles are read out as the upper bound of the bucket holding the
/// requested rank — exact to within 2× for any value distribution,
/// which is all a p50/p95/p99 latency readout needs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else the bit length clamped to
/// the top (saturating) bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The largest value bucket `i` can hold (`u64::MAX` for the saturating
/// top bucket) — the value quantile readouts report for that bucket.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Quantile over raw bucket counts: upper bound of the bucket holding
/// the `ceil(q * count)`-th sample. Zero when empty — never divides.
pub fn quantile_from_buckets(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum = cum.saturating_add(c);
        if cum >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. The running sum wraps at `u64::MAX`, which at
    /// one nanosecond granularity is ~584 years of accumulated latency.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Quantile `q` in `[0, 1]`; zero when no samples were recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets(), self.count(), q)
    }

    /// Adds every sample `local` recorded, as if each had been recorded
    /// here: one atomic per bucket instead of four per sample.
    pub fn absorb(&self, local: &LocalHistogram) {
        for (b, &n) in self.buckets.iter().zip(&local.buckets) {
            b.fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }
}

/// A [`Histogram`] one thread keeps in plain integers — the same
/// buckets, count, wrapping sum and max — and hands to
/// [`Histogram::absorb`] once, instead of writing shared atomics per
/// sample.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }
}

/// A started clock that records its elapsed nanoseconds into a
/// [`Histogram`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Reads the monotonic clock.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records the elapsed nanoseconds into `hist`.
    #[inline]
    pub fn record(&self, hist: &Histogram) {
        hist.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(7);
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 10);
        g.record_max(3);
        assert_eq!(g.get(), 10, "record_max never lowers");
        g.record_max(99);
        assert_eq!(g.get(), 99);
    }

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1 << 40), 41);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1 << 63), BUCKETS - 1, "top bucket saturates");
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper bound 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, upper bound 16383
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 100 + 10 * 10_000);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.quantile(0.50), 127);
        assert_eq!(h.quantile(0.90), 127);
        assert_eq!(h.quantile(0.95), 16_383);
        assert_eq!(h.quantile(0.99), 16_383);
    }

    #[test]
    fn absorbing_a_local_histogram_equals_recording_straight() {
        let samples = [0, 0, 1, 3, 100, 10_000, 1 << 40, u64::MAX, u64::MAX];
        let (straight, absorbed) = (Histogram::new(), Histogram::new());
        absorbed.record(7); // absorb adds to what is there
        straight.record(7);
        let mut local = LocalHistogram::default();
        for v in samples {
            straight.record(v);
            local.record(v);
        }
        absorbed.absorb(&local);
        absorbed.absorb(&LocalHistogram::default());
        assert_eq!(absorbed.buckets(), straight.buckets());
        assert_eq!(absorbed.count(), straight.count());
        assert_eq!(absorbed.sum(), straight.sum(), "both sums wrap");
        assert_eq!(absorbed.max(), u64::MAX);
        assert_eq!(absorbed.max(), straight.max());
    }

    #[test]
    fn stopwatch_records_nonzero_elapsed() {
        let h = Histogram::new();
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        sw.record(&h);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "slept >= 1 ms");
    }
}
