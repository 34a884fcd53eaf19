//! Empirical CDFs and percentiles — what Figure 6 plots.

use serde::Serialize;

/// An empirical CDF over `f64` samples.
#[derive(Clone, Debug, Serialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (order irrelevant).
    pub fn from_samples(mut samples: Vec<f64>) -> Cdf {
        samples.retain(|x| x.is_finite());
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted: samples }
    }

    /// Builds from integer counts.
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Cdf {
        Cdf::from_samples(counts.into_iter().map(|c| c as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (p in [0, 1]), by nearest-rank on the sorted
    /// samples. The paper quotes "99.999 percentile" = `quantile(0.99999)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile wants p in [0,1]");
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Median shorthand.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// `P(X <= x)`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `n` evenly spaced `(value, cumulative_fraction)` points for
    /// plotting/printing the CDF curve.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (1..=n)
            .map(|i| {
                let p = i as f64 / n as f64;
                (self.quantile(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let c = Cdf::from_counts(1..=100u64);
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(0.99), 99.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.01), 1.0);
        assert_eq!(c.max(), 100.0);
        assert!((c.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn fraction_below_matches_quantile() {
        let c = Cdf::from_counts(1..=1000u64);
        assert!((c.fraction_below(500.0) - 0.5).abs() < 2e-3);
        assert_eq!(c.fraction_below(0.0), 0.0);
        assert_eq!(c.fraction_below(2000.0), 1.0);
    }

    #[test]
    fn curve_is_monotone() {
        let c = Cdf::from_samples(vec![3.0, 1.0, 2.0, 10.0, 4.0]);
        let pts = c.curve(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().0, 10.0);
    }

    #[test]
    fn empty_and_nan_handling() {
        let c = Cdf::from_samples(vec![f64::NAN, f64::INFINITY]);
        assert!(c.is_empty());
        assert!(c.quantile(0.5).is_nan());
        assert!(c.curve(5).is_empty());
    }

    proptest! {
        #[test]
        fn prop_quantile_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let c = Cdf::from_samples(samples);
            let mut last = f64::NEG_INFINITY;
            for i in 1..=20 {
                let q = c.quantile(i as f64 / 20.0);
                prop_assert!(q >= last);
                last = q;
            }
        }

        #[test]
        fn prop_quantile_within_range(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let c = Cdf::from_samples(samples.clone());
            let q = c.quantile(0.7);
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(q >= lo && q <= hi);
        }
    }
}
