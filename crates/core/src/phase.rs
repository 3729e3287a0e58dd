//! The three-phase interface state machine (§3.3).
//!
//! Every outgoing interface of a router is, at any instant, in one of the
//! paper's three phases:
//!
//! * **push-data** — anticipated demand fits (`r_a < r`): forward at link
//!   speed, keep the pipe full;
//! * **detour** — demand is about to exceed supply (`r_a ≈ r` or
//!   `r_a > r`): split the excess into flowlets and send them around;
//! * **back-pressure** — no usable detour (or the custody cache is
//!   filling): cache incoming data and tell the upstream neighbour to slow
//!   down.
//!
//! Transitions use hysteresis ([`DETOUR_ENTER`] and [`DETOUR_EXIT`])
//! because the paper lists "extensive link swapping" as a failure mode to
//! avoid (§4). The controller also counts transitions so the
//! `T_i`-sensitivity ablation (A5) can quantify flapping.

use inrpp_sim::units::Rate;

use crate::config::InrppConfig;

/// Ratio `r_a / r` at which an interface leaves push-data for detour.
/// The paper says "when `r_a ≈ r` or `r_a > r`" (§3.3); 0.95 with
/// hysteresis operationalises the ≈.
pub const DETOUR_ENTER: f64 = 0.95;

/// Ratio below which the interface returns to push-data: hysteresis to
/// "avoid extensive link swapping" (§4).
pub const DETOUR_EXIT: f64 = 0.85;

const _: () = assert!(0.0 < DETOUR_EXIT && DETOUR_EXIT <= DETOUR_ENTER);

/// The paper's three interface phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Demand below capacity: open-loop forwarding.
    #[default]
    PushData,
    /// Demand at/above capacity and detours available: shift excess.
    Detour,
    /// No detour capacity (or cache pressure): closed-loop slow-down.
    BackPressure,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::PushData => write!(f, "push-data"),
            Phase::Detour => write!(f, "detour"),
            Phase::BackPressure => write!(f, "back-pressure"),
        }
    }
}

/// Inputs to a phase decision, gathered by the router each interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseInputs {
    /// Anticipated rate `r_a(i)` from the estimator.
    pub anticipated: Rate,
    /// Interface capacity `r(i)`.
    pub capacity: Rate,
    /// Whether any detour path with spare capacity exists right now.
    pub detour_available: bool,
    /// Custody-cache fill fraction in `[0, 1]`.
    pub cache_fill: f64,
}

/// Hysteretic phase controller for one interface.
///
/// ```
/// use inrpp::config::InrppConfig;
/// use inrpp::phase::{Phase, PhaseController, PhaseInputs};
/// use inrpp_sim::units::Rate;
///
/// let mut ctl = PhaseController::new(InrppConfig::default());
/// let congested = PhaseInputs {
///     anticipated: Rate::mbps(12.0), // r_a from the estimator
///     capacity: Rate::mbps(10.0),    // r: the interface speed
///     detour_available: true,
///     cache_fill: 0.0,
/// };
/// assert_eq!(ctl.update(congested), Phase::Detour);
/// // no detour and a filling cache force the closed loop
/// let desperate = PhaseInputs { detour_available: false, cache_fill: 0.9, ..congested };
/// assert_eq!(ctl.update(desperate), Phase::BackPressure);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseController {
    config: InrppConfig,
    phase: Phase,
    transitions: u64,
}

impl PhaseController {
    /// A controller starting in push-data.
    pub fn new(config: InrppConfig) -> Self {
        config.validate().expect("invalid INRPP config");
        PhaseController {
            config,
            phase: Phase::PushData,
            transitions: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Number of phase changes so far (flap metric for ablation A5).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Demand pressure `r_a / r`; infinite for a zero-capacity interface
    /// with demand.
    pub fn pressure(inputs: &PhaseInputs) -> f64 {
        if inputs.capacity.is_zero() {
            if inputs.anticipated.is_zero() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            inputs.anticipated.fraction_of(inputs.capacity)
        }
    }

    /// Evaluate the FSM for this interval and return the (possibly new)
    /// phase.
    pub fn update(&mut self, inputs: PhaseInputs) -> Phase {
        let pressure = Self::pressure(&inputs);
        let congested = match self.phase {
            // entering congestion needs the higher threshold...
            Phase::PushData => pressure >= DETOUR_ENTER,
            // ...leaving it needs to drop below the lower one
            Phase::Detour | Phase::BackPressure => pressure > DETOUR_EXIT,
        };
        let cache_forces_bp = inputs.cache_fill >= self.config.cache_pressure_threshold;
        let next = if !congested && !cache_forces_bp {
            Phase::PushData
        } else if inputs.detour_available && !cache_forces_bp {
            Phase::Detour
        } else {
            Phase::BackPressure
        };
        if next != self.phase {
            self.transitions += 1;
            self.phase = next;
        }
        self.phase
    }

    /// The excess rate that must leave via detours (or be cached) this
    /// interval: `max(0, r_a - r)`.
    pub fn excess(inputs: &PhaseInputs) -> Rate {
        inputs.anticipated.saturating_sub(inputs.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(anticipated_mbps: f64, capacity_mbps: f64) -> PhaseInputs {
        PhaseInputs {
            anticipated: Rate::mbps(anticipated_mbps),
            capacity: Rate::mbps(capacity_mbps),
            detour_available: true,
            cache_fill: 0.0,
        }
    }

    fn ctl() -> PhaseController {
        PhaseController::new(InrppConfig::default())
    }

    #[test]
    fn starts_in_push_data() {
        assert_eq!(ctl().phase(), Phase::PushData);
    }

    #[test]
    fn stays_in_push_data_when_demand_fits() {
        let mut c = ctl();
        assert_eq!(c.update(inputs(5.0, 10.0)), Phase::PushData);
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn enters_detour_when_demand_reaches_capacity() {
        let mut c = ctl();
        // r_a ≈ r (paper: "when r_a ≈ r, or r_a > r")
        assert_eq!(c.update(inputs(9.6, 10.0)), Phase::Detour);
        assert_eq!(c.update(inputs(12.0, 10.0)), Phase::Detour);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn falls_to_backpressure_without_detours() {
        let mut c = ctl();
        let mut i = inputs(12.0, 10.0);
        i.detour_available = false;
        assert_eq!(c.update(i), Phase::BackPressure);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut c = ctl();
        c.update(inputs(10.0, 10.0)); // -> Detour
        assert_eq!(c.phase(), Phase::Detour);
        // pressure drops to 0.9: still above DETOUR_EXIT (0.85) => stay
        assert_eq!(c.update(inputs(9.0, 10.0)), Phase::Detour);
        // pressure 0.84 < exit: back to push-data
        assert_eq!(c.update(inputs(8.4, 10.0)), Phase::PushData);
        assert_eq!(c.transitions(), 2);
        // oscillating between 0.9 and 0.93 from push-data never triggers
        for _ in 0..10 {
            assert_eq!(c.update(inputs(9.0, 10.0)), Phase::PushData);
            assert_eq!(c.update(inputs(9.3, 10.0)), Phase::PushData);
        }
        assert_eq!(c.transitions(), 2);
    }

    #[test]
    fn cache_pressure_forces_backpressure_even_with_detours() {
        let mut c = ctl();
        let mut i = inputs(12.0, 10.0);
        i.cache_fill = 0.9; // above the 0.8 threshold
        assert_eq!(c.update(i), Phase::BackPressure);
        // detour is available but the cache must drain first
        assert!(i.detour_available);
    }

    #[test]
    fn recovers_from_backpressure() {
        let mut c = ctl();
        let mut i = inputs(12.0, 10.0);
        i.detour_available = false;
        c.update(i); // BP
                     // demand drops and cache drains: back to push-data
        let calm = inputs(3.0, 10.0);
        assert_eq!(c.update(calm), Phase::PushData);
    }

    #[test]
    fn backpressure_to_detour_when_alternatives_appear() {
        let mut c = ctl();
        let mut i = inputs(12.0, 10.0);
        i.detour_available = false;
        assert_eq!(c.update(i), Phase::BackPressure);
        i.detour_available = true;
        assert_eq!(c.update(i), Phase::Detour);
    }

    #[test]
    fn pressure_and_excess_helpers() {
        let i = inputs(15.0, 10.0);
        assert!((PhaseController::pressure(&i) - 1.5).abs() < 1e-12);
        assert!((PhaseController::excess(&i).as_mbps() - 5.0).abs() < 1e-9);
        let calm = inputs(5.0, 10.0);
        assert_eq!(PhaseController::excess(&calm), Rate::ZERO);
        let dead = PhaseInputs {
            anticipated: Rate::mbps(1.0),
            capacity: Rate::ZERO,
            detour_available: false,
            cache_fill: 0.0,
        };
        assert_eq!(PhaseController::pressure(&dead), f64::INFINITY);
        let idle = PhaseInputs {
            anticipated: Rate::ZERO,
            capacity: Rate::ZERO,
            detour_available: false,
            cache_fill: 0.0,
        };
        assert_eq!(PhaseController::pressure(&idle), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Phase::PushData.to_string(), "push-data");
        assert_eq!(Phase::Detour.to_string(), "detour");
        assert_eq!(Phase::BackPressure.to_string(), "back-pressure");
    }
}
