//! Configuration for the INRPP mechanisms.
//!
//! Defaults follow the paper's prose where it commits to a value and are
//! conservative where it leaves the knob open (each such case is marked).

use inrpp_sim::time::SimDuration;
use inrpp_sim::units::ByteSize;

/// Tunables shared by the packet-level simulator, the phase machine and the
/// endpoint models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InrppConfig {
    /// Accounting interval `T_i` for the anticipated-rate estimator.
    ///
    /// The paper (§3.3, footnote 4): "a reasonable setting for `T_i` would
    /// be the average RTT of data chunks". This is the *initial* value; the
    /// estimator can track the measured RTT at runtime.
    pub interval: SimDuration,

    /// Anticipation window `A_c`: how many chunks beyond the next one a
    /// receiver requests (§3.2, "a constant parameter set globally").
    pub anticipation: u64,

    /// Ratio `r_a / r` at which an interface leaves push-data for detour.
    /// The paper says "when `r_a ≈ r` or `r_a > r`"; 0.95 with hysteresis
    /// operationalises the ≈.
    pub detour_enter: f64,

    /// Ratio below which the interface returns to push-data (hysteresis to
    /// "avoid extensive link swapping", §4).
    pub detour_exit: f64,

    /// Custody-cache budget per router.
    pub cache_budget: ByteSize,

    /// Cache fill fraction at which back-pressure engages even while
    /// detours exist ("avoid extensive caching at the congested node").
    pub cache_pressure_threshold: f64,

    /// Maximum detour depth: 1 = one-hop detours only, 2 = the Fig. 4 setup
    /// ("nodes on the detour path can further detour, but for one extra
    /// hop only").
    pub max_detour_depth: u8,

    /// Whether routers exchange one-hop neighbour interface loads
    /// (§3.3 option i) or detour blindly (option ii).
    pub load_aware_detour: bool,

    /// Validity horizon of a back-pressure slow-down before it expires.
    pub backpressure_ttl: SimDuration,

    /// Fraction of link capacity data forwarding may use; the paper's
    /// footnote 3 suggests staying slightly below full rate "to be able
    /// to accommodate bursts".
    pub forwarding_headroom: f64,
}

impl Default for InrppConfig {
    fn default() -> Self {
        InrppConfig {
            interval: SimDuration::from_millis(100),
            anticipation: 16,
            detour_enter: 0.95,
            detour_exit: 0.85,
            cache_budget: ByteSize::mb(64),
            cache_pressure_threshold: 0.8,
            max_detour_depth: 2,
            load_aware_detour: true,
            backpressure_ttl: SimDuration::from_millis(200),
            forwarding_headroom: 1.0,
        }
    }
}

/// Validation error for [`InrppConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid INRPP config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl InrppConfig {
    /// Check internal consistency (threshold ordering, positive interval…).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval.is_zero() {
            return Err(ConfigError("interval T_i must be positive".into()));
        }
        if !(0.0 < self.detour_exit && self.detour_exit <= self.detour_enter) {
            return Err(ConfigError(format!(
                "need 0 < detour_exit <= detour_enter, got {} / {}",
                self.detour_exit, self.detour_enter
            )));
        }
        if !(0.0..=1.0).contains(&self.cache_pressure_threshold) {
            return Err(ConfigError(format!(
                "cache_pressure_threshold must be in [0,1], got {}",
                self.cache_pressure_threshold
            )));
        }
        if self.max_detour_depth == 0 {
            return Err(ConfigError(
                "max_detour_depth 0 disables INRPP entirely; use the SP baseline instead".into(),
            ));
        }
        if !(0.0 < self.forwarding_headroom && self.forwarding_headroom <= 1.0) {
            return Err(ConfigError(format!(
                "forwarding_headroom must be in (0,1], got {}",
                self.forwarding_headroom
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
// The tests below deliberately start from a valid default and break one
// field at a time, which is exactly the pattern this lint dislikes.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(InrppConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_thresholds_rejected() {
        let mut c = InrppConfig::default();
        c.detour_exit = 0.99;
        c.detour_enter = 0.5;
        assert!(c.validate().is_err());
        let mut c = InrppConfig::default();
        c.detour_exit = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_interval_rejected() {
        let mut c = InrppConfig::default();
        c.interval = SimDuration::ZERO;
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("T_i"));
    }

    #[test]
    fn cache_pressure_bounds() {
        let mut c = InrppConfig::default();
        c.cache_pressure_threshold = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_detour_depth_rejected() {
        let mut c = InrppConfig::default();
        c.max_detour_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn headroom_bounds() {
        let mut c = InrppConfig::default();
        c.forwarding_headroom = 0.0;
        assert!(c.validate().is_err());
        c.forwarding_headroom = 1.1;
        assert!(c.validate().is_err());
        c.forwarding_headroom = 0.9;
        assert!(c.validate().is_ok());
    }
}
