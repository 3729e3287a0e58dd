//! Random variates for workload generation.
//!
//! `rand` (the crate) ships only uniform primitives; the heavy-tailed and
//! memoryless distributions that traffic models need live in `rand_distr`.
//! Rather than pull another dependency for ~two hundred lines of textbook
//! inverse-transform sampling, we implement them here with validated
//! constructors and closed-form means that the property tests check against
//! empirical averages.
//!
//! Everything samples from a [`SimRng`] so results are reproducible.

use std::fmt;

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Error returned by distribution constructors on invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    what: String,
}

impl DistError {
    fn new(what: impl Into<String>) -> Self {
        DistError { what: what.into() }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for DistError {}

/// A real-valued random variate source.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, when it exists in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi)`; requires `lo < hi` and both finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(DistError::new(format!(
                "Uniform requires lo < hi, got [{lo}, {hi})"
            )));
        }
        Ok(Uniform { lo, hi })
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.f64()
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`): the memoryless
/// inter-arrival law of a Poisson process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Rate parameterisation; requires `lambda > 0` and finite.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::new(format!(
                "Exponential rate must be > 0, got {lambda}"
            )));
        }
        Ok(Exponential { lambda })
    }

    /// Mean parameterisation: `Exponential::with_mean(m) == Exponential::new(1/m)`.
    pub fn with_mean(mean: f64) -> Result<Self, DistError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistError::new(format!(
                "Exponential mean must be > 0, got {mean}"
            )));
        }
        Exponential::new(1.0 / mean)
    }

    /// The rate λ.
    pub fn rate(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse transform; f64_open_zero keeps ln() away from -inf.
        -rng.f64_open_zero().ln() / self.lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Pareto (Type I) with scale `x_m > 0` and shape `alpha > 0` — the standard
/// heavy-tailed flow-size model. The mean is infinite for `alpha <= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Requires both parameters positive and finite.
    pub fn new(scale: f64, shape: f64) -> Result<Self, DistError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DistError::new(format!(
                "Pareto scale must be > 0, got {scale}"
            )));
        }
        if !(shape.is_finite() && shape > 0.0) {
            return Err(DistError::new(format!(
                "Pareto shape must be > 0, got {shape}"
            )));
        }
        Ok(Pareto { scale, shape })
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale / rng.f64_open_zero().powf(1.0 / self.shape)
    }
    fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.shape * self.scale / (self.shape - 1.0))
    }
}

/// Pareto truncated to `[scale, cap]` by resampling the CDF — keeps the body
/// heavy-tailed while bounding simulation memory for the largest flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    scale: f64,
    shape: f64,
    cap: f64,
}

impl BoundedPareto {
    /// Requires `0 < scale < cap` and `shape > 0`.
    pub fn new(scale: f64, shape: f64, cap: f64) -> Result<Self, DistError> {
        let inner = Pareto::new(scale, shape)?;
        if !(cap.is_finite() && cap > scale) {
            return Err(DistError::new(format!(
                "BoundedPareto cap must exceed scale {scale}, got {cap}"
            )));
        }
        Ok(BoundedPareto {
            scale: inner.scale,
            shape: inner.shape,
            cap,
        })
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse transform of the truncated CDF (no rejection loop).
        let (l, h, a) = (self.scale, self.cap, self.shape);
        let u = rng.f64();
        let la = l.powf(a);
        let ha = h.powf(a);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a)
    }
    fn mean(&self) -> Option<f64> {
        let (l, h, a) = (self.scale, self.cap, self.shape);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1 limit: mean = ln(h/l) * l*h/(h-l)
            Some(l * h / (h - l) * (h / l).ln())
        } else {
            let la = l.powf(a);
            Some(
                la / (1.0 - (l / h).powf(a))
                    * (a / (a - 1.0))
                    * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0)),
            )
        }
    }
}

/// Weighted discrete distribution over `0..weights.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cdf: Vec<f64>,
}

impl Discrete {
    /// Builds from non-negative weights with a positive sum.
    pub fn new(weights: &[f64]) -> Result<Self, DistError> {
        if weights.is_empty() {
            return Err(DistError::new("Discrete requires at least one weight"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(DistError::new("Discrete weights must be finite and >= 0"));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(DistError::new("Discrete weights must sum to > 0"));
        }
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Discrete { cdf })
    }

    /// Draw an index in `0..len`.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A Poisson arrival process: exponential inter-arrival gaps with the given
/// rate in events per simulated second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    gap: Exponential,
}

impl PoissonProcess {
    /// `rate_per_sec` arrivals per second on average; must be positive.
    pub fn new(rate_per_sec: f64) -> Result<Self, DistError> {
        Ok(PoissonProcess {
            gap: Exponential::new(rate_per_sec)?,
        })
    }

    /// Draw the gap until the next arrival.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.gap.sample(rng))
    }

    /// The arrival rate λ (per second).
    pub fn rate(&self) -> f64 {
        self.gap.rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::from_seed_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(BoundedPareto::new(2.0, 1.2, 1.0).is_err());
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[0.0, 0.0]).is_err());
        assert!(Discrete::new(&[1.0, -2.0]).is_err());
        assert!(PoissonProcess::new(0.0).is_err());
    }

    #[test]
    fn error_display_names_parameter() {
        let e = Exponential::new(-2.0).unwrap_err();
        assert!(e.to_string().contains("rate must be > 0"));
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(4.0).unwrap();
        assert_eq!(d.mean(), Some(4.0));
        let m = empirical_mean(&d, 1, 200_000);
        assert!((m - 4.0).abs() < 0.05, "empirical mean {m}");
    }

    #[test]
    fn exponential_is_memoryless_shape() {
        // P(X > 2m) should be about e^-2 ≈ 0.135.
        let d = Exponential::with_mean(1.0).unwrap();
        let mut rng = SimRng::from_seed_u64(2);
        let n = 100_000;
        let tail = (0..n).filter(|_| d.sample(&mut rng) > 2.0).count() as f64 / n as f64;
        assert!((tail - (-2.0f64).exp()).abs() < 0.01, "tail {tail}");
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        assert_eq!(d.mean(), Some(4.0));
        let mut rng = SimRng::from_seed_u64(3);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let m = empirical_mean(&d, 4, 100_000);
        assert!((m - 4.0).abs() < 0.02, "empirical mean {m}");
    }

    #[test]
    fn pareto_mean_and_support() {
        let d = Pareto::new(1.0, 2.5).unwrap();
        assert!((d.mean().unwrap() - 2.5 / 1.5).abs() < 1e-12);
        let mut rng = SimRng::from_seed_u64(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        let m = empirical_mean(&d, 6, 400_000);
        assert!((m - 5.0 / 3.0).abs() < 0.05, "empirical mean {m}");
    }

    #[test]
    fn pareto_heavy_tail_has_no_mean() {
        assert_eq!(Pareto::new(1.0, 0.9).unwrap().mean(), None);
        assert_eq!(Pareto::new(1.0, 1.0).unwrap().mean(), None);
    }

    #[test]
    fn bounded_pareto_respects_cap() {
        let d = BoundedPareto::new(1.0, 1.2, 1000.0).unwrap();
        let mut rng = SimRng::from_seed_u64(7);
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&x), "out of support: {x}");
        }
        let m = empirical_mean(&d, 8, 400_000);
        let want = d.mean().unwrap();
        assert!(
            (m - want).abs() / want < 0.05,
            "empirical {m} vs formula {want}"
        );
    }

    #[test]
    fn discrete_tracks_weights() {
        let d = Discrete::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut rng = SimRng::from_seed_u64(12);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[d.sample_index(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let f0 = counts[0] as f64 / 100_000.0;
        assert!((f0 - 0.25).abs() < 0.01, "f0 {f0}");
    }

    #[test]
    fn poisson_process_rate() {
        let p = PoissonProcess::new(50.0).unwrap();
        assert_eq!(p.rate(), 50.0);
        let mut rng = SimRng::from_seed_u64(13);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_secs_f64()).sum();
        let mean_gap = total / n as f64;
        assert!((mean_gap - 0.02).abs() < 0.001, "mean gap {mean_gap}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Exponential::new(1.0).unwrap();
        let a: Vec<f64> = {
            let mut rng = SimRng::from_seed_u64(42);
            (0..16).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SimRng::from_seed_u64(42);
            (0..16).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
