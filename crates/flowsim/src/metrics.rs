//! Flow-level metrics: weighted CDFs and the per-run report.

use inrpp_sim::metrics::sort_weighted_samples;
use inrpp_sim::time::SimDuration;

/// Empirical CDF over weighted samples.
///
/// Fig. 4b's path-stretch CDF weights each subpath's stretch by the traffic
/// it carried — a plain sample CDF would over-represent barely-used detours.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeightedCdf {
    samples: Vec<(f64, f64)>,
    total_weight: f64,
    sorted: bool,
}

impl WeightedCdf {
    /// An empty CDF.
    pub fn new() -> Self {
        WeightedCdf {
            samples: Vec::new(),
            total_weight: 0.0,
            sorted: true,
        }
    }

    /// Record `value` carrying `weight` (non-positive weights are
    /// ignored). A NaN *value* is tolerated — it sorts after every
    /// finite value (see [`sort_weighted_samples`]) so one degenerate
    /// stretch sample cannot crash a long run's quantile queries.
    pub fn record(&mut self, value: f64, weight: f64) {
        if weight <= 0.0 || !weight.is_finite() {
            return;
        }
        self.samples.push((value, weight));
        self.total_weight += weight;
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of weights.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            sort_weighted_samples(&mut self.samples);
            self.sorted = true;
        }
    }

    /// Weighted fraction of mass at values `<= x`.
    pub fn fraction_le(&mut self, x: f64) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        self.ensure_sorted();
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            // NaN compares unordered (`partial_cmp` is `None`), and NaN
            // mass must not be counted as `<= x`.
            if !v.partial_cmp(&x).is_some_and(|o| o.is_le()) {
                break;
            }
            acc += w;
        }
        acc / self.total_weight
    }

    /// Weighted `q`-quantile. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let target = q * self.total_weight;
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            acc += w;
            if acc >= target {
                return Some(v);
            }
        }
        Some(self.samples.last().expect("non-empty").0)
    }

    /// `(x, F(x))` step points, deduplicated on x, for plotting.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            acc += w;
            let f = acc / self.total_weight;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = f,
                _ => out.push((v, f)),
            }
        }
        out
    }

    /// Weighted mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        self.samples.iter().map(|&(v, w)| v * w).sum::<f64>() / self.total_weight
    }

    /// Merge another CDF into this one.
    pub fn merge(&mut self, other: &WeightedCdf) {
        self.samples.extend_from_slice(&other.samples);
        self.total_weight += other.total_weight;
        self.sorted = false;
    }
}

/// Result of one flow-level simulation run.
#[derive(Debug, Clone)]
pub struct FlowSimReport {
    /// Strategy display name.
    pub strategy: String,
    /// Topology display name.
    pub topology: String,
    /// Flows that arrived within the window.
    pub arrived_flows: usize,
    /// Flows that completed before the horizon.
    pub completed_flows: usize,
    /// Flows with no route.
    pub unroutable_flows: usize,
    /// Total bits offered by arrived flows.
    pub offered_bits: f64,
    /// Total bits actually delivered (including partial flows).
    pub delivered_bits: f64,
    /// Wall-clock length of the simulated window.
    pub duration: SimDuration,
    /// Mean flow completion time over completed flows, seconds.
    pub mean_fct_secs: f64,
    /// Traffic-weighted path-stretch CDF (Fig. 4b).
    pub stretch: WeightedCdf,
    /// Time-weighted mean of Jain's fairness index across active flows.
    pub mean_jain: f64,
    /// Time-weighted mean utilisation across directed channels.
    pub mean_utilisation: f64,
    /// Time-weighted utilisation per directed channel
    /// (index = `link.idx() * 2 + direction`).
    pub channel_utilisation: Vec<f64>,
}

impl FlowSimReport {
    /// Normalised network throughput: delivered / offered (Fig. 4a metric).
    pub fn throughput(&self) -> f64 {
        if self.offered_bits <= 0.0 {
            0.0
        } else {
            self.delivered_bits / self.offered_bits
        }
    }

    /// Delivered bits per second of simulated time.
    pub fn goodput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.delivered_bits / secs
        }
    }

    /// The `n` busiest directed channels as `(channel index, utilisation)`,
    /// hottest first. Channel index decodes as `link = idx / 2`,
    /// `direction = idx % 2` (0 = the link's `a -> b` direction).
    pub fn hottest_channels(&self, n: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self
            .channel_utilisation
            .iter()
            .copied()
            .enumerate()
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<5} on {:<14} thr={:.3} util={:.3} jain={:.3} fct={:.3}s done={}/{}",
            self.strategy,
            self.topology,
            self.throughput(),
            self.mean_utilisation,
            self.mean_jain,
            self.mean_fct_secs,
            self.completed_flows,
            self.arrived_flows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_cdf_basic() {
        let mut c = WeightedCdf::new();
        c.record(1.0, 3.0);
        c.record(2.0, 1.0);
        assert_eq!(c.count(), 2);
        assert!((c.total_weight() - 4.0).abs() < 1e-12);
        assert!((c.fraction_le(1.0) - 0.75).abs() < 1e-12);
        assert!((c.fraction_le(0.5) - 0.0).abs() < 1e-12);
        assert!((c.fraction_le(2.0) - 1.0).abs() < 1e-12);
        assert!((c.mean() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_quantiles() {
        let mut c = WeightedCdf::new();
        c.record(10.0, 1.0);
        c.record(20.0, 1.0);
        c.record(30.0, 2.0);
        assert_eq!(c.quantile(0.25), Some(10.0));
        assert_eq!(c.quantile(0.5), Some(20.0));
        assert_eq!(c.quantile(1.0), Some(30.0));
        assert_eq!(c.quantile(0.9), Some(30.0));
    }

    #[test]
    fn zero_or_negative_weights_ignored() {
        let mut c = WeightedCdf::new();
        c.record(1.0, 0.0);
        c.record(2.0, -5.0);
        c.record(3.0, f64::NAN);
        assert_eq!(c.count(), 0);
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.fraction_le(10.0), 0.0);
        assert_eq!(c.mean(), 0.0);
    }

    #[test]
    fn nan_values_do_not_panic_quantiles() {
        // Regression: the sort comparator used partial_cmp().expect(),
        // so one NaN-valued sample panicked every quantile query. The
        // shared total_cmp sort puts NaN last; finite quantiles stay
        // exact and only the extreme tail surfaces the NaN.
        let mut c = WeightedCdf::new();
        c.record(f64::NAN, 1.0);
        c.record(1.0, 1.0);
        c.record(2.0, 2.0);
        assert_eq!(c.quantile(0.25), Some(1.0));
        assert_eq!(c.quantile(0.75), Some(2.0));
        assert!(c.quantile(1.0).unwrap().is_nan());
        assert!((c.fraction_le(2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn points_accumulate_and_dedup() {
        let mut c = WeightedCdf::new();
        c.record(1.0, 1.0);
        c.record(1.0, 1.0);
        c.record(1.5, 2.0);
        let pts = c.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 0.5).abs() < 1e-12);
        assert!((pts[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_mass() {
        let mut a = WeightedCdf::new();
        a.record(1.0, 1.0);
        let mut b = WeightedCdf::new();
        b.record(3.0, 3.0);
        a.merge(&b);
        assert!((a.fraction_le(1.0) - 0.25).abs() < 1e-12);
        assert_eq!(a.count(), 2);
    }

    fn sample_report() -> FlowSimReport {
        FlowSimReport {
            strategy: "SP".into(),
            topology: "t".into(),
            arrived_flows: 10,
            completed_flows: 8,
            unroutable_flows: 0,
            offered_bits: 100.0,
            delivered_bits: 75.0,
            duration: SimDuration::from_secs(5),
            mean_fct_secs: 0.5,
            stretch: WeightedCdf::new(),
            mean_jain: 0.9,
            mean_utilisation: 0.4,
            channel_utilisation: vec![0.1, 0.9, 0.5, 0.9],
        }
    }

    #[test]
    fn report_throughput_and_goodput() {
        let r = sample_report();
        assert!((r.throughput() - 0.75).abs() < 1e-12);
        assert!((r.goodput_bps() - 15.0).abs() < 1e-12);
        assert!(r.summary().contains("SP"));
    }

    #[test]
    fn hottest_channels_sorted_and_truncated() {
        let r = sample_report();
        let hot = r.hottest_channels(3);
        assert_eq!(hot.len(), 3);
        assert_eq!(hot[0], (1, 0.9));
        assert_eq!(hot[1], (3, 0.9), "ties break by channel index");
        assert_eq!(hot[2], (2, 0.5));
        assert!(r.hottest_channels(100).len() == 4);
    }
}
