//! Order statistics for slice and latency samples.

/// The reported value, median, quartiles and sample count of one
/// metric; for latency samples also the highest percentile the sample
/// supports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// What the run reports for the metric: the median, unless the
    /// workload estimated it another way (see [`quiet_low`]).
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// `(percentile, value)`, see [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summary of timing or throughput samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            value: median,
            median,
            q1,
            q3,
            n: sorted.len(),
            tail: tail_percentile(&sorted),
        }
    }

    /// `value` as the workload estimated it, with the spread of the
    /// `samples` it was estimated from.
    pub fn estimated(value: f64, samples: &[f64]) -> Summary {
        Summary {
            value,
            ..Summary::of(samples)
        }
    }

    /// A value that is counted, not sampled (rules, tags, bytes).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
            tail: None,
        }
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-th percentile (nearest rank) of an unsorted sample; 0 when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// The share of a timing's samples taken as undisturbed.
const QUIET_PCT: f64 = 10.0;

/// The quiet decile of timing samples: the duration that the fastest
/// tenth of the repetitions stayed within. On a shared host a neighbour
/// can only slow a repetition down, for milliseconds or for minutes at a
/// time, and the median of a run moves with how much of the run was
/// disturbed (identical runs read 142 k and 244 k round trips/s); the
/// fast edge of the distribution is what the program does when left
/// alone, and repeats within a few percent. Work that only some
/// repetitions do (a table growing, a queue draining) falls outside it:
/// a workload must cut its repetitions so that each does the same work.
pub fn quiet_low(samples: &[f64]) -> f64 {
    percentile(samples, QUIET_PCT)
}

/// [`quiet_low`] for rates, where undisturbed means high.
pub fn quiet_high(samples: &[f64]) -> f64 {
    percentile(samples, 100.0 - QUIET_PCT)
}

/// Quartiles of a sorted sample, by the method of Python's
/// `statistics.quantiles(values, n=4)` (the method the benchmark
/// driver uses), so the harness's spreads read the same as the
/// driver's. Fewer than two samples collapse onto the single value.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of p90 / p95 / p99 / p99.9 / p99.99 that still has at
/// least ten samples beyond it; `None` below 100 samples.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    // in basis points, so "samples beyond" is exact integer arithmetic
    [9_999usize, 9_990, 9_900, 9_500, 9_000]
        .into_iter()
        .find_map(|bp| {
            let beyond = n * (10_000 - bp) / 10_000;
            (beyond >= 10).then(|| (bp as f64 / 100.0, sorted[n - 1 - beyond]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 6.0, 10.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quiet_decile_is_the_fast_edge_whatever_the_slow_side_does() {
        let calm: Vec<f64> = (0..100).map(|i| 1000.0 + f64::from(i)).collect();
        // the same run with six tenths of its repetitions disturbed
        let disturbed: Vec<f64> = calm
            .iter()
            .enumerate()
            .map(|(i, v)| if i % 5 < 3 { v * 2.5 } else { *v })
            .collect();
        assert_eq!(quiet_low(&calm), 1009.0);
        assert!((quiet_low(&disturbed) / quiet_low(&calm) - 1.0).abs() < 0.02);
        assert!(Summary::of(&disturbed).median / Summary::of(&calm).median > 2.0);
        let rates: Vec<f64> = calm.iter().map(|v| 1.0 / v).collect();
        assert_eq!(quiet_high(&rates), 1.0 / 1010.0);
        assert_eq!(quiet_low(&[]), 0.0);
        let s = Summary::estimated(quiet_low(&calm), &calm);
        assert_eq!((s.value, s.n), (1009.0, 100));
        assert!(s.median > s.value);
    }

    #[test]
    fn summary_sorts_and_reports_spread() {
        let s = Summary::of(&[10.0, 1.0, 5.0, 9.0, 2.0, 6.0, 3.0, 8.0, 4.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!(s.tail, None);
        assert_eq!(Summary::exact(0.0).iqr_share(), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let sorted = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&sorted(99)), None);
        // 100 samples: only p90 leaves ten beyond it (values 90..=99)
        assert_eq!(tail_percentile(&sorted(100)), Some((90.0, 89.0)));
        assert_eq!(tail_percentile(&sorted(200)), Some((95.0, 189.0)));
        assert_eq!(tail_percentile(&sorted(999)), Some((95.0, 949.0)));
        assert_eq!(tail_percentile(&sorted(1_000)), Some((99.0, 989.0)));
        assert_eq!(tail_percentile(&sorted(10_000)), Some((99.9, 9_989.0)));
        assert_eq!(tail_percentile(&sorted(100_000)), Some((99.99, 99_989.0)));
    }
}
