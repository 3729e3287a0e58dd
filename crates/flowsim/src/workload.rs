//! Workload generation: Poisson flow arrivals between sampled node pairs.
//!
//! Fig. 4's setup is "flows arrive Poisson distributed"; sizes and endpoint
//! selection are not pinned down in the paper, so the generator exposes
//! them as knobs with defaults documented in `EXPERIMENTS.md`: exponential
//! flow sizes (mean 25 Mbit) between uniformly random distinct node pairs.
//!
//! The scenario catalog adds two orthogonal axes on top:
//!
//! * [`ArrivalProfile`] — time-varying arrival intensity (flash-crowd step,
//!   diurnal sinusoid), realised by thinning a homogeneous Poisson process
//!   at the peak rate so determinism and exactness are preserved;
//! * [`SizeProfile`] — flow-size law (exponential, heavy-tailed bounded
//!   Pareto, or a bimodal elastic + constant-rate mix).

use std::fmt;

use inrpp_sim::dist::{BoundedPareto, Discrete, Distribution, Exponential, PoissonProcess};
use inrpp_sim::rng::SimRng;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::graph::{NodeId, Tier, Topology};

/// One flow to be injected into the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Dense flow index (also used as the ECMP hash key).
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Flow size in bits.
    pub size_bits: f64,
    /// Arrival instant.
    pub arrival: SimTime,
}

/// How to sample `(src, dst)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PairSelector {
    /// Uniformly random distinct node pair.
    #[default]
    Uniform,
    /// Uniformly random pair of *edge-tier* nodes (falls back to uniform
    /// when the topology has fewer than two edge nodes).
    EdgeToEdge,
    /// All flows converge on one hotspot destination (stress pattern).
    Hotspot(NodeId),
    /// Gravity model: endpoint probability proportional to
    /// `degree^exponent` — hubs attract traffic, the classic ISP traffic
    /// matrix shape. `exponent = 0` degenerates to uniform.
    Gravity {
        /// Degree exponent (1.0 = plain gravity).
        exponent: f64,
    },
}

/// Time profile of the arrival intensity over the generation window.
///
/// The instantaneous arrival rate is `arrival_rate * factor_at(t / T)`
/// where `T` is the window length; `Steady` keeps the classic homogeneous
/// Poisson process. Non-homogeneous profiles are realised by *thinning*: a
/// homogeneous process runs at the profile's peak rate and each arrival is
/// kept with probability `factor_at / peak`, which samples the exact
/// non-homogeneous law deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProfile {
    /// Homogeneous Poisson at `arrival_rate` (the Fig. 4 setup).
    #[default]
    Steady,
    /// Flash crowd: base rate until `onset` (fraction of the window in
    /// `[0, 1)`), then a step to `magnitude >= 1` times the base rate.
    FlashCrowd {
        /// Step instant as a fraction of the window.
        onset: f64,
        /// Rate multiplier after the step.
        magnitude: f64,
    },
    /// Diurnal modulation: `rate(t) = base * (1 + amplitude * sin(2π *
    /// cycles * t / T))`, with `amplitude` in `[0, 1)` so the rate stays
    /// positive.
    Diurnal {
        /// Whole modulation periods across the window.
        cycles: f64,
        /// Relative swing around the base rate.
        amplitude: f64,
    },
}

impl ArrivalProfile {
    /// Intensity multiplier at `frac` (elapsed fraction of the window).
    pub fn factor_at(&self, frac: f64) -> f64 {
        match *self {
            ArrivalProfile::Steady => 1.0,
            ArrivalProfile::FlashCrowd { onset, magnitude } => {
                if frac >= onset {
                    magnitude
                } else {
                    1.0
                }
            }
            ArrivalProfile::Diurnal { cycles, amplitude } => {
                1.0 + amplitude * (std::f64::consts::TAU * cycles * frac).sin()
            }
        }
    }

    /// The largest multiplier the profile can reach (thinning envelope).
    pub fn peak_factor(&self) -> f64 {
        match *self {
            ArrivalProfile::Steady => 1.0,
            ArrivalProfile::FlashCrowd { magnitude, .. } => magnitude.max(1.0),
            ArrivalProfile::Diurnal { amplitude, .. } => 1.0 + amplitude,
        }
    }

    /// The window-averaged multiplier — what to divide a target offered
    /// load by when calibrating the base rate.
    pub fn mean_factor(&self) -> f64 {
        match *self {
            ArrivalProfile::Steady => 1.0,
            ArrivalProfile::FlashCrowd { onset, magnitude } => {
                let onset = onset.clamp(0.0, 1.0);
                onset + (1.0 - onset) * magnitude.max(1.0)
            }
            // exact sine integral: whole cycles reduce to 1, fractional
            // cycles keep the residual half-wave's mass
            ArrivalProfile::Diurnal { cycles, amplitude } => {
                let w = std::f64::consts::TAU * cycles;
                1.0 + amplitude * (1.0 - w.cos()) / w
            }
        }
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            ArrivalProfile::Steady => Ok(()),
            ArrivalProfile::FlashCrowd { onset, magnitude } => {
                if !(0.0..1.0).contains(&onset) || !magnitude.is_finite() || magnitude < 1.0 {
                    Err(WorkloadError::InvalidProfile(format!(
                        "flash crowd needs onset in [0, 1) and magnitude >= 1, \
                         got onset {onset}, magnitude {magnitude}"
                    )))
                } else {
                    Ok(())
                }
            }
            ArrivalProfile::Diurnal { cycles, amplitude } => {
                if !(0.0..1.0).contains(&amplitude) || !cycles.is_finite() || cycles <= 0.0 {
                    Err(WorkloadError::InvalidProfile(format!(
                        "diurnal needs cycles > 0 and amplitude in [0, 1), \
                         got cycles {cycles}, amplitude {amplitude}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Flow-size law. Every variant is calibrated so the *mean* size equals
/// `WorkloadConfig::mean_size_bits` — profiles reshape the distribution,
/// not the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SizeProfile {
    /// Exponential sizes (the default, memoryless).
    #[default]
    Exponential,
    /// Heavy-tailed sizes: bounded Pareto with the given shape, truncated
    /// at 1000× its scale (mice-and-elephants, the CDN regime).
    HeavyTail {
        /// Pareto shape `α > 1` keeps the mean finite before truncation;
        /// the bound makes any positive shape usable.
        shape: f64,
    },
    /// Mixed elastic + constant-rate traffic: with probability
    /// `bulk_frac` a flow is a fixed-size "CBR-like" stream of
    /// `bulk_factor × mean` bits (a constant-rate source of rate ρ held
    /// for H seconds is ρ·H bits at the fluid level); the remaining flows
    /// are elastic with exponential sizes whose mean is adjusted so the
    /// mixture mean stays at `mean_size_bits`.
    Mixed {
        /// Fraction of constant-rate flows, in `(0, 1)`.
        bulk_frac: f64,
        /// Constant-rate flow size as a multiple of the mixture mean;
        /// must satisfy `bulk_frac * bulk_factor < 1`.
        bulk_factor: f64,
    },
}

impl SizeProfile {
    fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            SizeProfile::Exponential => Ok(()),
            SizeProfile::HeavyTail { shape } => {
                if !shape.is_finite() || shape <= 0.0 {
                    Err(WorkloadError::InvalidProfile(format!(
                        "heavy-tail shape must be positive, got {shape}"
                    )))
                } else {
                    Ok(())
                }
            }
            SizeProfile::Mixed {
                bulk_frac,
                bulk_factor,
            } => {
                if !(0.0..1.0).contains(&bulk_frac)
                    || bulk_frac <= 0.0
                    || !bulk_factor.is_finite()
                    || bulk_factor <= 0.0
                    || bulk_frac * bulk_factor >= 1.0
                {
                    Err(WorkloadError::InvalidProfile(format!(
                        "mixed profile needs bulk_frac in (0, 1) and \
                         bulk_frac * bulk_factor < 1, got {bulk_frac} x {bulk_factor}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Per-flow size sampler compiled from a [`SizeProfile`].
enum SizeSampler {
    Exponential(Exponential),
    HeavyTail(BoundedPareto),
    Mixed {
        bulk_frac: f64,
        bulk_bits: f64,
        elastic: Exponential,
    },
}

impl SizeSampler {
    /// Pareto truncation point as a multiple of the scale.
    const HEAVY_TAIL_CAP: f64 = 1000.0;

    fn build(profile: SizeProfile, mean_bits: f64) -> Result<SizeSampler, WorkloadError> {
        profile.validate()?;
        Ok(match profile {
            SizeProfile::Exponential => SizeSampler::Exponential(
                Exponential::with_mean(mean_bits).expect("mean validated by caller"),
            ),
            SizeProfile::HeavyTail { shape } => {
                // unit-scale mean of the truncated law → solve for the scale
                let unit = BoundedPareto::new(1.0, shape, Self::HEAVY_TAIL_CAP)
                    .expect("validated shape")
                    .mean()
                    .expect("bounded Pareto always has a mean");
                let scale = mean_bits / unit;
                SizeSampler::HeavyTail(
                    BoundedPareto::new(scale, shape, scale * Self::HEAVY_TAIL_CAP)
                        .expect("positive scale"),
                )
            }
            SizeProfile::Mixed {
                bulk_frac,
                bulk_factor,
            } => {
                let bulk_bits = bulk_factor * mean_bits;
                // preserve the mixture mean: f·c + (1-f)·m_e = mean
                let elastic_mean = mean_bits * (1.0 - bulk_frac * bulk_factor) / (1.0 - bulk_frac);
                SizeSampler::Mixed {
                    bulk_frac,
                    bulk_bits,
                    elastic: Exponential::with_mean(elastic_mean)
                        .expect("validate() keeps the elastic mean positive"),
                }
            }
        })
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            SizeSampler::Exponential(e) => e.sample(rng),
            SizeSampler::HeavyTail(p) => p.sample(rng),
            SizeSampler::Mixed {
                bulk_frac,
                bulk_bits,
                elastic,
            } => {
                if rng.chance(*bulk_frac) {
                    *bulk_bits
                } else {
                    elastic.sample(rng)
                }
            }
        }
    }
}

/// Why a workload could not be generated.
///
/// The dangerous failure mode is the *silent* one: a zero offered load or
/// a one-node topology used to yield an empty workload, which downstream
/// sweeps would report as a vacuous run. [`Workload::try_generate`]
/// rejects those inputs with a typed error instead.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Fewer than two nodes — no (src, dst) pair exists.
    TooFewNodes(usize),
    /// `arrival_rate` was zero, negative, or non-finite.
    NonPositiveArrivalRate(f64),
    /// `mean_size_bits` was zero, negative, or non-finite.
    NonPositiveMeanSize(f64),
    /// A profile parameter was out of range (details in the message).
    InvalidProfile(String),
    /// The window produced no flows at all (zero offered load) — e.g. a
    /// zero-length duration.
    EmptyWorkload,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::TooFewNodes(n) => {
                write!(
                    f,
                    "workload needs at least two nodes to pick pairs, got {n}"
                )
            }
            WorkloadError::NonPositiveArrivalRate(r) => {
                write!(f, "arrival rate must be positive, got {r}")
            }
            WorkloadError::NonPositiveMeanSize(s) => {
                write!(f, "mean flow size must be positive, got {s}")
            }
            WorkloadError::InvalidProfile(msg) => write!(f, "invalid traffic profile: {msg}"),
            WorkloadError::EmptyWorkload => {
                write!(
                    f,
                    "generation window produced zero flows (zero offered load)"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Mean flow arrivals per second (the *base* rate an
    /// [`ArrivalProfile`] modulates).
    pub arrival_rate: f64,
    /// Mean flow size in bits (every [`SizeProfile`] is calibrated to
    /// this mean).
    pub mean_size_bits: f64,
    /// Endpoint sampling policy.
    pub pairs: PairSelector,
    /// Arrival-intensity time profile.
    pub arrivals: ArrivalProfile,
    /// Flow-size law.
    pub sizes: SizeProfile,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            arrival_rate: 100.0,
            mean_size_bits: 25e6,
            pairs: PairSelector::Uniform,
            arrivals: ArrivalProfile::Steady,
            sizes: SizeProfile::Exponential,
        }
    }
}

/// A generated, arrival-ordered list of flows.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Flows sorted by arrival time.
    pub flows: Vec<FlowSpec>,
    /// Total offered bits.
    pub offered_bits: f64,
}

impl Workload {
    /// Generate flows over `[0, duration)`.
    ///
    /// Convenience wrapper over [`Workload::try_generate`] for callers
    /// whose inputs are known-good (calibrated experiment configs).
    ///
    /// # Panics
    /// Panics on any [`WorkloadError`] — fewer than two nodes,
    /// non-positive rates, invalid profiles, or a window that produces
    /// zero flows.
    pub fn generate(
        topo: &Topology,
        cfg: &WorkloadConfig,
        duration: SimDuration,
        seed: u64,
    ) -> Workload {
        Workload::try_generate(topo, cfg, duration, seed)
            .unwrap_or_else(|e| panic!("workload generation failed: {e}"))
    }

    /// Generate flows over `[0, duration)`, rejecting degenerate inputs
    /// with a typed error instead of an empty workload.
    ///
    /// ```
    /// use inrpp_flowsim::workload::{Workload, WorkloadConfig, WorkloadError};
    /// use inrpp_sim::time::SimDuration;
    /// use inrpp_sim::units::Rate;
    /// use inrpp_topology::Topology;
    ///
    /// let topo = Topology::line(3, Rate::mbps(10.0), SimDuration::from_millis(1));
    /// let w = Workload::try_generate(
    ///     &topo, &WorkloadConfig::default(), SimDuration::from_secs(1), 7,
    /// ).unwrap();
    /// assert!(!w.is_empty());
    ///
    /// let mut one = Topology::new("one");
    /// one.add_node();
    /// let err = Workload::try_generate(
    ///     &one, &WorkloadConfig::default(), SimDuration::from_secs(1), 7,
    /// ).unwrap_err();
    /// assert_eq!(err, WorkloadError::TooFewNodes(1));
    /// ```
    pub fn try_generate(
        topo: &Topology,
        cfg: &WorkloadConfig,
        duration: SimDuration,
        seed: u64,
    ) -> Result<Workload, WorkloadError> {
        if topo.node_count() < 2 {
            return Err(WorkloadError::TooFewNodes(topo.node_count()));
        }
        if !cfg.arrival_rate.is_finite() || cfg.arrival_rate <= 0.0 {
            return Err(WorkloadError::NonPositiveArrivalRate(cfg.arrival_rate));
        }
        if !cfg.mean_size_bits.is_finite() || cfg.mean_size_bits <= 0.0 {
            return Err(WorkloadError::NonPositiveMeanSize(cfg.mean_size_bits));
        }
        cfg.arrivals.validate()?;
        let sizes = SizeSampler::build(cfg.sizes, cfg.mean_size_bits)?;
        // thinning envelope: run the homogeneous process at the peak rate
        let peak = cfg.arrivals.peak_factor();
        let arrivals = PoissonProcess::new(cfg.arrival_rate * peak)
            .expect("rate and peak factor validated above");
        let window_secs = duration.as_secs_f64();
        let mut rng = SimRng::from_seed_u64(seed).derive(0xF10F);

        // Candidate endpoints, fixed up front for determinism.
        let edge_nodes: Vec<NodeId> = topo
            .node_ids()
            .filter(|&n| topo.node(n).tier == Tier::Edge)
            .collect();
        let all_nodes: Vec<NodeId> = topo.node_ids().collect();
        let pool: &[NodeId] = match cfg.pairs {
            PairSelector::EdgeToEdge if edge_nodes.len() >= 2 => &edge_nodes,
            _ => &all_nodes,
        };
        // gravity sampling: degree^exponent weights over the pool
        let gravity = match cfg.pairs {
            PairSelector::Gravity { exponent } => {
                let weights: Vec<f64> = pool
                    .iter()
                    .map(|&n| (topo.degree(n).max(1) as f64).powf(exponent))
                    .collect();
                Some(Discrete::new(&weights).expect("degrees are positive"))
            }
            _ => None,
        };

        let mut flows = Vec::new();
        let mut offered_bits = 0.0;
        let mut t = SimTime::ZERO;
        let mut id = 0u64;
        loop {
            t += arrivals.next_gap(&mut rng);
            if t.duration_since(SimTime::ZERO) >= duration {
                break;
            }
            // thinning: accept with probability factor(t)/peak. For the
            // steady profile the ratio is exactly 1, which `chance` short-
            // circuits without consuming randomness — pre-profile streams
            // stay byte-identical.
            let frac = t.duration_since(SimTime::ZERO).as_secs_f64() / window_secs;
            if !rng.chance(cfg.arrivals.factor_at(frac) / peak) {
                continue;
            }
            let (src, dst) = match cfg.pairs {
                PairSelector::Hotspot(h) => {
                    let mut s = *rng.pick(pool);
                    while s == h {
                        s = *rng.pick(pool);
                    }
                    (s, h)
                }
                PairSelector::Gravity { .. } => {
                    let g = gravity.as_ref().expect("built above");
                    let s = pool[g.sample_index(&mut rng)];
                    let d = loop {
                        let d = pool[g.sample_index(&mut rng)];
                        if d != s {
                            break d;
                        }
                    };
                    (s, d)
                }
                _ => {
                    let s = *rng.pick(pool);
                    let d = loop {
                        let d = *rng.pick(pool);
                        if d != s {
                            break d;
                        }
                    };
                    (s, d)
                }
            };
            let size_bits = sizes.sample(&mut rng).max(1.0);
            offered_bits += size_bits;
            flows.push(FlowSpec {
                id,
                src,
                dst,
                size_bits,
                arrival: t,
            });
            id += 1;
        }
        if flows.is_empty() {
            return Err(WorkloadError::EmptyWorkload);
        }
        Ok(Workload {
            flows,
            offered_bits,
        })
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows were generated.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Offered load in bits/s over the generation window.
    pub fn offered_rate(&self, duration: SimDuration) -> f64 {
        if duration.is_zero() {
            0.0
        } else {
            self.offered_bits / duration.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_topology::rocketfuel::{generate_isp, Isp};

    fn topo() -> Topology {
        generate_isp(Isp::Vsnl, 1)
    }

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            arrival_rate: 200.0,
            mean_size_bits: 1e6,
            pairs: PairSelector::Uniform,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn arrivals_are_ordered_and_within_window() {
        let w = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(10), 7);
        assert!(!w.is_empty());
        let mut prev = SimTime::ZERO;
        for f in &w.flows {
            assert!(f.arrival >= prev);
            assert!(f.arrival < SimTime::from_secs(10));
            prev = f.arrival;
        }
    }

    #[test]
    fn arrival_count_tracks_rate() {
        let w = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(50), 3);
        let expect = 200.0 * 50.0;
        let got = w.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.1,
            "got {got} arrivals, expected ~{expect}"
        );
    }

    #[test]
    fn sizes_have_requested_mean() {
        let w = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(100), 11);
        let mean = w.offered_bits / w.len() as f64;
        assert!(
            (mean - 1e6).abs() < 1e5,
            "mean flow size {mean} vs requested 1e6"
        );
        assert!((w.offered_rate(SimDuration::from_secs(100)) - w.offered_bits / 100.0).abs() < 1.0);
    }

    #[test]
    fn endpoints_are_distinct() {
        let w = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(20), 5);
        assert!(w.flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let w = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(5), 5);
        for (i, f) in w.flows.iter().enumerate() {
            assert_eq!(f.id, i as u64);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(5), 9);
        let b = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(5), 9);
        assert_eq!(a, b);
        let c = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(5), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn edge_to_edge_uses_edge_nodes() {
        let t = topo();
        let mut cfg = cfg();
        cfg.pairs = PairSelector::EdgeToEdge;
        let w = Workload::generate(&t, &cfg, SimDuration::from_secs(5), 1);
        assert!(!w.is_empty());
        for f in &w.flows {
            assert_eq!(t.node(f.src).tier, Tier::Edge, "src {:?}", f.src);
            assert_eq!(t.node(f.dst).tier, Tier::Edge);
        }
    }

    #[test]
    fn hotspot_targets_one_destination() {
        let t = topo();
        let h = t.node_ids().next().unwrap();
        let mut cfg = cfg();
        cfg.pairs = PairSelector::Hotspot(h);
        let w = Workload::generate(&t, &cfg, SimDuration::from_secs(5), 1);
        assert!(w.flows.iter().all(|f| f.dst == h && f.src != h));
    }

    #[test]
    fn gravity_prefers_hubs() {
        // a star: the hub must appear as endpoint far more often than any
        // single leaf under gravity, and roughly uniformly without it
        let t = Topology::star(
            10,
            inrpp_sim::units::Rate::mbps(10.0),
            SimDuration::from_millis(1),
        );
        let hub = t.node_ids().next().unwrap();
        let mut cfg = cfg();
        cfg.pairs = PairSelector::Gravity { exponent: 1.0 };
        let w = Workload::generate(&t, &cfg, SimDuration::from_secs(20), 5);
        let hub_fraction = w
            .flows
            .iter()
            .filter(|f| f.src == hub || f.dst == hub)
            .count() as f64
            / w.len() as f64;
        // hub weight 9 vs 9 leaves of weight 1: hub should touch most flows
        assert!(
            hub_fraction > 0.75,
            "gravity hub fraction {hub_fraction} too low"
        );
        cfg.pairs = PairSelector::Uniform;
        let wu = Workload::generate(&t, &cfg, SimDuration::from_secs(20), 5);
        let uniform_fraction = wu
            .flows
            .iter()
            .filter(|f| f.src == hub || f.dst == hub)
            .count() as f64
            / wu.len() as f64;
        assert!(hub_fraction > uniform_fraction + 0.2);
    }

    #[test]
    fn gravity_zero_exponent_is_uniformish() {
        let t = topo();
        let mut cfg = cfg();
        cfg.pairs = PairSelector::Gravity { exponent: 0.0 };
        let w = Workload::generate(&t, &cfg, SimDuration::from_secs(10), 5);
        assert!(!w.is_empty());
        assert!(w.flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn sizes_are_positive() {
        let w = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(5), 13);
        assert!(w.flows.iter().all(|f| f.size_bits >= 1.0));
    }

    // ---- typed-error regression (the silent-empty-workload fix) --------

    #[test]
    fn degenerate_inputs_yield_typed_errors() {
        let t = topo();
        let mut one = Topology::new("one");
        one.add_node();
        assert_eq!(
            Workload::try_generate(&one, &cfg(), SimDuration::from_secs(1), 1).unwrap_err(),
            WorkloadError::TooFewNodes(1)
        );
        let mut c = cfg();
        c.arrival_rate = 0.0;
        assert_eq!(
            Workload::try_generate(&t, &c, SimDuration::from_secs(1), 1).unwrap_err(),
            WorkloadError::NonPositiveArrivalRate(0.0)
        );
        let mut c = cfg();
        c.mean_size_bits = -1.0;
        assert_eq!(
            Workload::try_generate(&t, &c, SimDuration::from_secs(1), 1).unwrap_err(),
            WorkloadError::NonPositiveMeanSize(-1.0)
        );
        // zero offered load: an empty window must not come back as a
        // vacuous empty workload
        assert_eq!(
            Workload::try_generate(&t, &cfg(), SimDuration::ZERO, 1).unwrap_err(),
            WorkloadError::EmptyWorkload
        );
        assert!(WorkloadError::EmptyWorkload
            .to_string()
            .contains("zero flows"));
    }

    #[test]
    #[should_panic(expected = "workload generation failed")]
    fn generate_panics_on_degenerate_input() {
        let mut c = cfg();
        c.arrival_rate = -5.0;
        let _ = Workload::generate(&topo(), &c, SimDuration::from_secs(1), 1);
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let t = topo();
        let mut c = cfg();
        c.arrivals = ArrivalProfile::FlashCrowd {
            onset: 1.5,
            magnitude: 4.0,
        };
        assert!(matches!(
            Workload::try_generate(&t, &c, SimDuration::from_secs(1), 1),
            Err(WorkloadError::InvalidProfile(_))
        ));
        let mut c = cfg();
        c.arrivals = ArrivalProfile::Diurnal {
            cycles: 2.0,
            amplitude: 1.0,
        };
        assert!(matches!(
            Workload::try_generate(&t, &c, SimDuration::from_secs(1), 1),
            Err(WorkloadError::InvalidProfile(_))
        ));
        let mut c = cfg();
        c.sizes = SizeProfile::Mixed {
            bulk_frac: 0.5,
            bulk_factor: 2.0, // 0.5 * 2.0 >= 1: elastic mean would be zero
        };
        assert!(matches!(
            Workload::try_generate(&t, &c, SimDuration::from_secs(1), 1),
            Err(WorkloadError::InvalidProfile(_))
        ));
        let mut c = cfg();
        c.sizes = SizeProfile::HeavyTail { shape: 0.0 };
        assert!(matches!(
            Workload::try_generate(&t, &c, SimDuration::from_secs(1), 1),
            Err(WorkloadError::InvalidProfile(_))
        ));
    }

    // ---- traffic families ---------------------------------------------

    #[test]
    fn steady_profile_matches_legacy_stream() {
        // the thinning hook must not consume randomness on the steady
        // profile: pre-catalog experiment bytes depend on it
        let legacy = Workload::generate(&topo(), &cfg(), SimDuration::from_secs(5), 9);
        let mut c = cfg();
        c.arrivals = ArrivalProfile::Steady;
        c.sizes = SizeProfile::Exponential;
        assert_eq!(
            legacy,
            Workload::generate(&topo(), &c, SimDuration::from_secs(5), 9)
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_after_onset() {
        let mut c = cfg();
        c.arrivals = ArrivalProfile::FlashCrowd {
            onset: 0.5,
            magnitude: 4.0,
        };
        let w = Workload::generate(&topo(), &c, SimDuration::from_secs(40), 3);
        let window = SimDuration::from_secs(40);
        let late = w
            .flows
            .iter()
            .filter(|f| f.arrival.duration_since(SimTime::ZERO) >= window / 2)
            .count() as f64;
        let early = w.len() as f64 - late;
        // expected ratio 4:1; allow sampling noise
        assert!(
            late > early * 2.5,
            "flash crowd did not step: {early} early vs {late} late"
        );
        // base-rate calibration helper: mean factor is 0.5 + 0.5*4
        assert!((c.arrivals.mean_factor() - 2.5).abs() < 1e-12);
        assert_eq!(c.arrivals.peak_factor(), 4.0);
    }

    #[test]
    fn diurnal_profile_modulates_but_preserves_mean() {
        let mut c = cfg();
        c.arrivals = ArrivalProfile::Diurnal {
            cycles: 2.0,
            amplitude: 0.8,
        };
        let w = Workload::generate(&topo(), &c, SimDuration::from_secs(50), 3);
        let expect = 200.0 * 50.0;
        let got = w.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.1,
            "diurnal mean rate drifted: {got} vs ~{expect}"
        );
        // arrivals in the first quarter (rising sine) must clearly outnumber
        // the second quarter (falling below base) of each cycle
        let bucket = |f: &FlowSpec| {
            (f.arrival.duration_since(SimTime::ZERO).as_secs_f64() / 50.0 * 8.0) as usize % 4
        };
        let counts = w.flows.iter().fold([0usize; 4], |mut acc, f| {
            acc[bucket(f)] += 1;
            acc
        });
        assert!(
            counts[0] > counts[2] * 2,
            "sinusoid not visible in quarter counts: {counts:?}"
        );
        // whole cycles average out exactly...
        assert!((c.arrivals.mean_factor() - 1.0).abs() < 1e-12);
        // ...while a fractional window keeps the residual half-wave mass
        let half = ArrivalProfile::Diurnal {
            cycles: 0.5,
            amplitude: 0.8,
        };
        let want = 1.0 + 0.8 * 2.0 / std::f64::consts::PI;
        assert!(
            (half.mean_factor() - want).abs() < 1e-12,
            "fractional-cycle mean factor {} vs exact {want}",
            half.mean_factor()
        );
    }

    #[test]
    fn heavy_tail_sizes_match_mean_and_are_skewed() {
        let mut c = cfg();
        c.sizes = SizeProfile::HeavyTail { shape: 1.5 };
        let w = Workload::generate(&topo(), &c, SimDuration::from_secs(200), 11);
        let mean = w.offered_bits / w.len() as f64;
        assert!(
            (mean - 1e6).abs() < 0.15e6,
            "heavy-tail mean {mean} drifted from 1e6"
        );
        // heavy tail: the median sits well below the mean
        let mut sizes: Vec<f64> = w.flows.iter().map(|f| f.size_bits).collect();
        sizes.sort_by(f64::total_cmp);
        let median = sizes[sizes.len() / 2];
        assert!(
            median < 0.6 * mean,
            "median {median} vs mean {mean}: not heavy-tailed"
        );
    }

    #[test]
    fn mixed_profile_is_bimodal_with_preserved_mean() {
        let mut c = cfg();
        c.sizes = SizeProfile::Mixed {
            bulk_frac: 0.25,
            bulk_factor: 3.0,
        };
        let w = Workload::generate(&topo(), &c, SimDuration::from_secs(200), 13);
        let mean = w.offered_bits / w.len() as f64;
        assert!((mean - 1e6).abs() < 0.1e6, "mixture mean {mean} drifted");
        let bulk = w
            .flows
            .iter()
            .filter(|f| (f.size_bits - 3e6).abs() < 1e-6)
            .count() as f64;
        let frac = bulk / w.len() as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "constant-rate fraction {frac} vs requested 0.25"
        );
    }
}
