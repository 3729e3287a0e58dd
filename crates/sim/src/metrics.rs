//! Measurement toolbox shared by both simulators.
//!
//! Everything here is plain data — recorders are updated synchronously from
//! the event loop and read out after the run. [`JainIndex`] implements
//! Jain's fairness index `F = (Σx)² / (n · Σx²)`, the metric the paper uses
//! in its Fig. 3 worked example (0.73 for e2e control vs 1.0 for INRPP).

use std::fmt;

/// Streaming summary statistics (Welford's algorithm): count, mean, variance,
/// min, max, sum — O(1) memory regardless of sample count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl SummaryStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        SummaryStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "SummaryStats given non-finite sample {x}");
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel-runs reduction).
    pub fn merge(&mut self, other: &SummaryStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for SummaryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min.min(f64::INFINITY),
            self.max.max(f64::NEG_INFINITY),
        )
    }
}

/// Sort quantile samples into ascending order using [`f64::total_cmp`].
///
/// The one shared sort for every quantile path in the workspace
/// (flowsim's weighted CDF, the session facade's quantile probe). `total_cmp` is a total order, so a NaN sample —
/// e.g. a metric derived from a 0/0 ratio — sorts to the end instead of
/// panicking the comparator mid-run; quantiles over the finite prefix
/// stay exact and only the extreme upper quantiles surface the NaN.
pub fn sort_samples(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// [`sort_samples`] for `(value, weight)` pairs, ordering by value.
///
/// Ties keep their relative order only up to the sort's internal
/// permutation — callers needing byte-stable output across runs already
/// get it, because the input order is itself deterministic.
pub fn sort_weighted_samples(xs: &mut [(f64, f64)]) {
    xs.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Jain's fairness index over a set of allocations.
///
/// `F = (Σ xᵢ)² / (n · Σ xᵢ²)`; ranges from `1/n` (one flow hogs everything)
/// to `1.0` (perfectly equal). The paper's Fig. 3: throughputs `(8, 2)` give
/// `F ≈ 0.735`, `(5, 5)` give `F = 1.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JainIndex;

impl JainIndex {
    /// Compute the index; `None` for an empty slice or all-zero allocations.
    pub fn compute(values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let sum: f64 = values.iter().sum();
        let sq: f64 = values.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return None;
        }
        Some(sum * sum / (values.len() as f64 * sq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_stats_basic() {
        let mut s = SummaryStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn summary_stats_empty() {
        let s = SummaryStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_stats_merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = SummaryStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = SummaryStats::new();
        let mut b = SummaryStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = SummaryStats::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&SummaryStats::new());
        assert_eq!(a, before);
        let mut e = SummaryStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn jain_matches_paper_example() {
        // Fig. 3 left: flows get 8 and 2 Mbps -> F = (10)^2/(2*68) = 0.7353
        let f = JainIndex::compute(&[8.0, 2.0]).unwrap();
        assert!((f - 0.7353).abs() < 1e-3, "index {f}");
        // Fig. 3 right: equal shares -> 1.0
        assert_eq!(JainIndex::compute(&[5.0, 5.0]), Some(1.0));
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(JainIndex::compute(&[]), None);
        assert_eq!(JainIndex::compute(&[0.0, 0.0]), None);
        let f = JainIndex::compute(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((f - 0.25).abs() < 1e-12); // 1/n lower bound
        let f = JainIndex::compute(&[3.0, 3.0, 3.0]).unwrap();
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_sorts_order_nan_last() {
        let mut xs = [f64::NAN, 2.0, -1.0, f64::INFINITY];
        sort_samples(&mut xs);
        assert_eq!(&xs[..3], &[-1.0, 2.0, f64::INFINITY]);
        assert!(xs[3].is_nan());
        let mut ws = [(f64::NAN, 1.0), (0.5, 2.0), (-3.0, 1.0)];
        sort_weighted_samples(&mut ws);
        assert_eq!(ws[0], (-3.0, 1.0));
        assert_eq!(ws[1], (0.5, 2.0));
        assert!(ws[2].0.is_nan());
    }
}
