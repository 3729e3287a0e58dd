//! Configuration for the INRPP mechanisms.
//!
//! Only the settings some caller varies are fields: the accounting
//! interval, the anticipation window, the custody budget, the
//! cache-pressure trigger and the detour mode. The operating points the
//! paper fixes in its prose are constants next to the code that reads
//! them: the hysteresis thresholds in [`crate::phase`], the detour depth
//! in [`crate::detour`] and the slow-down lifetime in
//! [`crate::backpressure`].

use inrpp_sim::time::SimDuration;
use inrpp_sim::units::ByteSize;

/// The INRPP settings callers vary, shared by the packet-level simulator,
/// the phase machine and the endpoint models.
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

    /// Custody-cache budget per router.
    pub cache_budget: ByteSize,

    /// Cache fill fraction at which back-pressure engages even while
    /// detours exist ("avoid extensive caching at the congested node").
    pub cache_pressure_threshold: f64,

    /// Whether routers exchange one-hop neighbour interface loads
    /// (§3.3 option i) or detour blindly (option ii).
    pub load_aware_detour: bool,
}

impl Default for InrppConfig {
    fn default() -> Self {
        InrppConfig {
            interval: SimDuration::from_millis(100),
            anticipation: 16,
            cache_budget: ByteSize::mb(64),
            cache_pressure_threshold: 0.8,
            load_aware_detour: true,
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
    /// Check that the interval is positive and the cache-pressure
    /// threshold a fraction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval.is_zero() {
            return Err(ConfigError("interval T_i must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.cache_pressure_threshold) {
            return Err(ConfigError(format!(
                "cache_pressure_threshold must be in [0,1], got {}",
                self.cache_pressure_threshold
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
}
