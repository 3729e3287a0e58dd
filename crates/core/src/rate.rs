//! Request accounting and the anticipated-rate estimator (Eq. 1, §3.3).
//!
//! ICN's request/data symmetry means a router can *predict* its incoming
//! data: every request it forwards upstream will pull one chunk back along
//! the reverse path roughly one RTT later. Concretely:
//!
//! * a request arrives on downstream interface `j`, is forwarded upstream
//!   out of interface `i`, and names a chunk of known size;
//! * the chunk will arrive on `i` and must depart through `j`.
//!
//! Each upstream interface `i` therefore tracks, per tumbling window `T_i`,
//! how many request-bits it forwarded on behalf of every downstream
//! interface `j` — the paper's `y_{j→i}` ratios. Summing over `i` gives the
//! **anticipated rate** `r_a(j)` each outgoing interface must sustain in
//! the next interval, which the phase machine compares with the actual
//! capacity `r(j)`.
//!
//! The estimator exposes the ratios and the per-interface anticipated
//! rates.

use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;

/// Dense local interface index within one router.
pub type IfaceId = usize;

/// Tumbling-window request accountant for one router.
///
/// ```
/// use inrpp::rate::RateEstimator;
/// use inrpp_sim::time::{SimDuration, SimTime};
///
/// // a 3-interface router, accounting over T_i = 100 ms
/// let mut est = RateEstimator::new(3, SimDuration::from_millis(100), SimTime::ZERO);
/// // requests forwarded upstream via iface 0 on behalf of downstream iface 2,
/// // naming 1 Mbit of chunks in total
/// est.record_request(SimTime::ZERO, 0, 2, 1e6);
/// // once the window closes, iface 2 anticipates 1 Mbit / 100 ms = 10 Mbps
/// est.maybe_roll(SimTime::from_millis(100));
/// assert!((est.anticipated_rate(2).as_mbps() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RateEstimator {
    n_ifaces: usize,
    interval: SimDuration,
    window_start: SimTime,
    /// bits\[upstream i\]\[downstream j\] requested during the open window
    open: Vec<Vec<f64>>,
    /// snapshot of the last completed window
    closed: Vec<Vec<f64>>,
}

impl RateEstimator {
    /// An estimator for a router with `n_ifaces` interfaces.
    ///
    /// # Panics
    /// Panics if `n_ifaces == 0` or the interval is zero.
    pub fn new(n_ifaces: usize, interval: SimDuration, now: SimTime) -> Self {
        assert!(n_ifaces > 0, "router needs at least one interface");
        assert!(!interval.is_zero(), "interval T_i must be positive");
        RateEstimator {
            n_ifaces,
            interval,
            window_start: now,
            open: vec![vec![0.0; n_ifaces]; n_ifaces],
            closed: vec![vec![0.0; n_ifaces]; n_ifaces],
        }
    }

    /// Roll the tumbling window forward if `now` passed its end. Idempotent.
    pub fn maybe_roll(&mut self, now: SimTime) {
        while now.saturating_duration_since(self.window_start) >= self.interval {
            std::mem::swap(&mut self.open, &mut self.closed);
            for row in &mut self.open {
                row.iter_mut().for_each(|v| *v = 0.0);
            }
            self.window_start += self.interval;
        }
    }

    /// Record a request forwarded upstream out of `up` that will pull
    /// `chunk_bits` of data back out through downstream interface `down`.
    ///
    /// # Panics
    /// Panics on out-of-range interface ids or a negative size.
    pub fn record_request(&mut self, now: SimTime, up: IfaceId, down: IfaceId, chunk_bits: f64) {
        assert!(
            up < self.n_ifaces && down < self.n_ifaces,
            "iface out of range"
        );
        assert!(chunk_bits >= 0.0, "negative chunk size");
        self.maybe_roll(now);
        self.open[up][down] += chunk_bits;
    }

    /// Eq. 1: the fraction of interface `up`'s forwarded requests that were
    /// on behalf of downstream interface `down`, over the last completed
    /// window. Zero when `up` forwarded nothing.
    pub fn ratio(&self, up: IfaceId, down: IfaceId) -> f64 {
        let total: f64 = self.closed[up].iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            self.closed[up][down] / total
        }
    }

    /// Anticipated rate `r_a(j)`: traffic interface `j` must forward in the
    /// next interval, summed over all upstream interfaces (the "central
    /// management entity" aggregation of §3.3).
    pub fn anticipated_rate(&self, down: IfaceId) -> Rate {
        assert!(down < self.n_ifaces, "iface out of range");
        let bits: f64 = (0..self.n_ifaces).map(|up| self.closed[up][down]).sum();
        let secs = self.interval.as_secs_f64();
        if secs <= 0.0 {
            Rate::ZERO
        } else {
            Rate::bps(bits / secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RateEstimator {
        RateEstimator::new(3, SimDuration::from_millis(100), SimTime::ZERO)
    }

    #[test]
    fn fresh_estimator_predicts_nothing() {
        let e = est();
        assert_eq!(e.anticipated_rate(0), Rate::ZERO);
        assert_eq!(e.ratio(0, 1), 0.0);
    }

    #[test]
    fn anticipated_rate_appears_after_window_rolls() {
        let mut e = est();
        // 1 Mbit of requests in the first 100 ms window: up=0, down=1
        e.record_request(SimTime::ZERO, 0, 1, 1e6);
        // still the open window: nothing anticipated yet
        assert_eq!(e.anticipated_rate(1), Rate::ZERO);
        // roll by recording in the next window
        e.maybe_roll(SimTime::from_millis(100));
        // 1 Mbit over 100 ms = 10 Mbps
        assert!((e.anticipated_rate(1).as_mbps() - 10.0).abs() < 1e-9);
        assert_eq!(e.anticipated_rate(0), Rate::ZERO);
    }

    #[test]
    fn ratios_follow_eq1() {
        let mut e = est();
        e.record_request(SimTime::ZERO, 0, 1, 3e6);
        e.record_request(SimTime::ZERO, 0, 2, 1e6);
        e.maybe_roll(SimTime::from_millis(100));
        assert!((e.ratio(0, 1) - 0.75).abs() < 1e-12);
        assert!((e.ratio(0, 2) - 0.25).abs() < 1e-12);
        assert_eq!(e.ratio(1, 0), 0.0);
    }

    #[test]
    fn anticipated_rate_sums_over_upstreams() {
        let mut e = est();
        e.record_request(SimTime::ZERO, 0, 2, 2e6);
        e.record_request(SimTime::ZERO, 1, 2, 3e6);
        e.maybe_roll(SimTime::from_millis(100));
        assert!((e.anticipated_rate(2).as_mbps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn windows_tumble_and_forget() {
        let mut e = est();
        e.record_request(SimTime::ZERO, 0, 1, 1e6);
        e.maybe_roll(SimTime::from_millis(100));
        assert!(e.anticipated_rate(1).as_bps() > 0.0);
        // two empty windows later the prediction is gone
        e.maybe_roll(SimTime::from_millis(300));
        assert_eq!(e.anticipated_rate(1), Rate::ZERO);
    }

    #[test]
    fn roll_is_idempotent_within_window() {
        let mut e = est();
        e.record_request(SimTime::ZERO, 0, 1, 1e6);
        e.maybe_roll(SimTime::from_millis(150));
        let r1 = e.anticipated_rate(1);
        e.maybe_roll(SimTime::from_millis(160));
        e.maybe_roll(SimTime::from_millis(199));
        assert_eq!(e.anticipated_rate(1), r1);
    }

    #[test]
    fn recording_rolls_automatically() {
        let mut e = est();
        e.record_request(SimTime::ZERO, 0, 1, 1e6);
        // recording in a later window rolls the old one out
        e.record_request(SimTime::from_millis(250), 0, 1, 5e5);
        // the closed window is now the *second* (empty) 100ms window
        assert_eq!(e.anticipated_rate(1), Rate::ZERO);
    }

    #[test]
    #[should_panic(expected = "iface out of range")]
    fn out_of_range_interface_panics() {
        let mut e = est();
        e.record_request(SimTime::ZERO, 5, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one interface")]
    fn zero_interfaces_rejected() {
        let _ = RateEstimator::new(0, SimDuration::from_millis(1), SimTime::ZERO);
    }
}
