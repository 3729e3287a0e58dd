//! Fault injection, smoltcp-style.
//!
//! The smoltcp examples expose `--drop-chance` and `--corrupt-chance` so
//! adverse conditions can be reproduced on demand; we provide the same
//! knobs for the packet-level simulator and the examples.
//! [`FaultInjector`] draws are keyed: each unit's fate is a pure function
//! of `(seed, key)`, so enabling faults never perturbs unrelated
//! randomness and the order units are evaluated in never matters.

use crate::rng::{splitmix64, SimRng};
use crate::time::SimTime;

/// Typed error for invalid fault knobs: out-of-range probabilities,
/// malformed plans, unparseable plan strings.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability was NaN or outside `[0, 1]`.
    ChanceOutOfRange {
        /// Which knob was invalid (e.g. `"drop_chance"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Plan events must be sorted by non-decreasing time.
    UnsortedPlan {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// A capacity fraction was NaN or outside `(0, 1]`.
    BadFraction {
        /// Index of the offending event.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A loss-burst window ended at or before it started.
    EmptyBurstWindow {
        /// Index of the offending event.
        index: usize,
    },
    /// An event referenced a link outside the topology.
    LinkOutOfRange {
        /// Index of the offending event.
        index: usize,
        /// The referenced link.
        link: u32,
    },
    /// An event referenced a node outside the topology.
    NodeOutOfRange {
        /// Index of the offending event.
        index: usize,
        /// The referenced node.
        node: u32,
    },
    /// A plan string could not be parsed.
    Parse(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::ChanceOutOfRange { what, value } => {
                write!(f, "{what} must be in [0, 1], got {value}")
            }
            FaultError::UnsortedPlan { index } => {
                write!(
                    f,
                    "fault plan events must be sorted by time (event {index})"
                )
            }
            FaultError::BadFraction { index, value } => {
                write!(
                    f,
                    "capacity fraction must be in (0, 1], got {value} (event {index})"
                )
            }
            FaultError::EmptyBurstWindow { index } => {
                write!(
                    f,
                    "loss burst must end strictly after it starts (event {index})"
                )
            }
            FaultError::LinkOutOfRange { index, link } => {
                write!(
                    f,
                    "fault event {index} references link {link} outside the topology"
                )
            }
            FaultError::NodeOutOfRange { index, node } => {
                write!(
                    f,
                    "fault event {index} references node {node} outside the topology"
                )
            }
            FaultError::Parse(what) => write!(f, "cannot parse fault plan: {what}"),
        }
    }
}

impl std::error::Error for FaultError {}

fn check_chance(what: &'static str, value: f64) -> Result<(), FaultError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(FaultError::ChanceOutOfRange { what, value });
    }
    Ok(())
}

/// Configuration for a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that a unit (packet/chunk) is dropped.
    pub drop_chance: f64,
    /// Probability in `[0, 1]` that a unit is corrupted (delivered damaged).
    pub corrupt_chance: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
        }
    }
}

impl FaultConfig {
    /// Build a validated config: both chances must be in `[0, 1]` and not NaN.
    pub fn try_new(drop_chance: f64, corrupt_chance: f64) -> Result<Self, FaultError> {
        let cfg = FaultConfig {
            drop_chance,
            corrupt_chance,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check that both chances are in `[0, 1]` and not NaN. The fields stay
    /// public for struct-literal construction; engines call this before use.
    pub fn validate(&self) -> Result<(), FaultError> {
        check_chance("drop_chance", self.drop_chance)?;
        check_chance("corrupt_chance", self.corrupt_chance)
    }
}

/// Outcome of passing one unit through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver unchanged.
    Pass,
    /// Silently discard.
    Drop,
    /// Deliver, but flag as corrupted (receiver should treat as loss).
    Corrupt,
}

/// Keyed injector applying drop/corrupt chances in a fixed order (drop
/// first, then corrupt — matching smoltcp's fault pipeline). Every draw
/// is a pure function of `(seed, key)` instead of a position in a
/// sequential stream, so two engines (or shards of one engine) that
/// evaluate the same units in different orders still agree on every
/// unit's fate.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    key_base: u64,
}

impl FaultInjector {
    /// Build an injector whose draws are keyed by `seed`.
    pub fn keyed(config: FaultConfig, seed: u64) -> Self {
        let mut s = seed ^ 0xFA17_0000_C0FF_EE00;
        FaultInjector {
            config,
            key_base: splitmix64(&mut s),
        }
    }

    /// Decide the fate of the unit identified by `key`. The same
    /// `(seed, key)` always yields the same outcome; drop is decided
    /// before corrupt.
    pub fn apply_keyed(&self, key: u64) -> FaultOutcome {
        if self.config.drop_chance <= 0.0 && self.config.corrupt_chance <= 0.0 {
            return FaultOutcome::Pass;
        }
        let mut s = self.key_base ^ key;
        let mut rng = SimRng::from_seed_u64(splitmix64(&mut s));
        if self.config.drop_chance > 0.0 && rng.chance(self.config.drop_chance) {
            return FaultOutcome::Drop;
        }
        if self.config.corrupt_chance > 0.0 && rng.chance(self.config.corrupt_chance) {
            return FaultOutcome::Corrupt;
        }
        FaultOutcome::Pass
    }

    /// Keyed draw with an *explicit* drop chance, overriding the configured
    /// one — used by [`FaultPlan`] loss-burst windows, where the chance in
    /// force depends on simulated time rather than the injector config. The
    /// key is mixed with a distinct salt so burst draws are decorrelated
    /// from the base [`FaultInjector::apply_keyed`] stream for the same
    /// unit. Never corrupts; order-independent like `apply_keyed`.
    pub fn apply_keyed_chance(&self, key: u64, drop_chance: f64) -> FaultOutcome {
        if drop_chance <= 0.0 {
            return FaultOutcome::Pass;
        }
        let mut s = self.key_base ^ key ^ 0xB425_7000_0FA5_7001;
        let mut rng = SimRng::from_seed_u64(splitmix64(&mut s));
        if rng.chance(drop_chance) {
            FaultOutcome::Drop
        } else {
            FaultOutcome::Pass
        }
    }
}

/// Order-independent fault-draw key for one packet send attempt: the
/// `occurrence`-th time chunk `chunk` of flow `flow` is pushed onto
/// directed channel `dir`. Shared by the packet engine, every shard of a
/// partitioned run and the reference oracle, so all of them agree on each
/// attempt's fate regardless of global event interleaving.
#[inline]
pub fn fault_key(flow: u64, chunk: u64, dir: u32, occurrence: u32) -> u64 {
    let mut s = flow ^ 0x0BAD_5EED_F417_0001;
    let mut k = splitmix64(&mut s);
    s = k ^ chunk;
    k = splitmix64(&mut s);
    s = k ^ (((dir as u64) << 32) | occurrence as u64);
    splitmix64(&mut s)
}

/// One kind of timed fault. Links and nodes are referenced by raw index;
/// the session facade validates them against the actual topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Take both directions of a link down. Cumulative: a link is up only
    /// when every `LinkDown`/`NodeCrash` affecting it has been reverted.
    LinkDown {
        /// Link index.
        link: u32,
    },
    /// Revert one earlier [`FaultKind::LinkDown`] on this link.
    LinkUp {
        /// Link index.
        link: u32,
    },
    /// Degrade both directions of a link to `fraction` of base capacity.
    /// Replaces any earlier scale on the same link (not cumulative).
    CapacityScale {
        /// Link index.
        link: u32,
        /// New capacity as a fraction of base, in `(0, 1]`.
        fraction: f64,
    },
    /// Crash a node: all adjacent links go down and the node stops
    /// sending, receiving, and draining custody until it recovers.
    NodeCrash {
        /// Node index.
        node: u32,
    },
    /// Revert one earlier [`FaultKind::NodeCrash`] on this node.
    NodeRecover {
        /// Node index.
        node: u32,
    },
    /// Elevated random loss on both directions of a link from the event
    /// time until `until`. During the window the packet engine drops each
    /// chunk/request independently with `drop_chance` (keyed, so shard
    /// order never matters); the fluid engine models the window as a
    /// goodput derate to `1 - drop_chance` of capacity.
    LossBurst {
        /// Link index.
        link: u32,
        /// Per-unit drop probability in `[0, 1]` while the window is open.
        drop_chance: f64,
        /// Window end (exclusive); must be strictly after the event time.
        until: SimTime,
    },
}

/// A timed fault: `kind` takes effect at instant `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Instant the transition happens.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative, deterministic schedule of timed faults.
///
/// Events are validated at construction ([`FaultPlan::try_new`]) and kept
/// sorted by time; ties preserve the order given (engines fire same-instant
/// events in plan order). An empty plan is free: engines skip all fault
/// machinery when `is_empty()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Validate and build a plan. Events must be sorted by non-decreasing
    /// time; probabilities in `[0, 1]`, capacity fractions in `(0, 1]`,
    /// and loss-burst windows non-empty.
    pub fn try_new(events: Vec<FaultEvent>) -> Result<Self, FaultError> {
        for (i, ev) in events.iter().enumerate() {
            if i > 0 && ev.at < events[i - 1].at {
                return Err(FaultError::UnsortedPlan { index: i });
            }
            match ev.kind {
                FaultKind::LinkDown { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::NodeCrash { .. }
                | FaultKind::NodeRecover { .. } => {}
                FaultKind::CapacityScale { fraction, .. } => {
                    if fraction.is_nan() || !(fraction > 0.0 && fraction <= 1.0) {
                        return Err(FaultError::BadFraction {
                            index: i,
                            value: fraction,
                        });
                    }
                }
                FaultKind::LossBurst {
                    drop_chance, until, ..
                } => {
                    check_chance("drop_chance", drop_chance).map_err(|_| {
                        FaultError::ChanceOutOfRange {
                            what: "drop_chance",
                            value: drop_chance,
                        }
                    })?;
                    if until <= ev.at {
                        return Err(FaultError::EmptyBurstWindow { index: i });
                    }
                }
            }
        }
        Ok(FaultPlan { events })
    }

    /// Convenience: one link goes down at `down` and back up at `up`.
    pub fn link_outage(link: u32, down: SimTime, up: SimTime) -> Result<Self, FaultError> {
        FaultPlan::try_new(vec![
            FaultEvent {
                at: down,
                kind: FaultKind::LinkDown { link },
            },
            FaultEvent {
                at: up,
                kind: FaultKind::LinkUp { link },
            },
        ])
    }

    /// Parse the compact one-line plan syntax used by `inrpp serve` and the
    /// CLI: semicolon-separated events, each `kind@secs:args`.
    ///
    /// ```text
    /// linkdown@1.5:3            link 3 down at t=1.5s
    /// linkup@2.5:3              link 3 back up at t=2.5s
    /// scale@1.0:2:0.25          link 2 degraded to 25% at t=1s
    /// crash@0.75:4              node 4 crashes at t=0.75s
    /// recover@1.25:4            node 4 recovers at t=1.25s
    /// burst@1.0:0:0.3:2.0       30% loss on link 0 from t=1s until t=2s
    /// ```
    pub fn parse(text: &str) -> Result<Self, FaultError> {
        fn secs(part: &str) -> Result<SimTime, FaultError> {
            let v: f64 = part
                .parse()
                .map_err(|_| FaultError::Parse(format!("bad seconds value '{part}'")))?;
            SimTime::try_from_secs_f64(v)
                .map_err(|e| FaultError::Parse(format!("bad seconds value '{part}': {e}")))
        }
        fn idx(part: &str, what: &str) -> Result<u32, FaultError> {
            part.parse()
                .map_err(|_| FaultError::Parse(format!("bad {what} index '{part}'")))
        }
        fn float(part: &str, what: &str) -> Result<f64, FaultError> {
            part.parse()
                .map_err(|_| FaultError::Parse(format!("bad {what} value '{part}'")))
        }
        let mut events = Vec::new();
        for item in text.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (head, rest) = item
                .split_once(':')
                .ok_or_else(|| FaultError::Parse(format!("event '{item}' has no arguments")))?;
            let (kind, at) = head
                .split_once('@')
                .ok_or_else(|| FaultError::Parse(format!("event '{item}' has no '@time'")))?;
            let at = secs(at)?;
            let args: Vec<&str> = rest.split(':').collect();
            let need = |n: usize| -> Result<(), FaultError> {
                if args.len() == n {
                    Ok(())
                } else {
                    Err(FaultError::Parse(format!(
                        "event '{item}' expects {n} argument(s), got {}",
                        args.len()
                    )))
                }
            };
            let kind = match kind {
                "linkdown" => {
                    need(1)?;
                    FaultKind::LinkDown {
                        link: idx(args[0], "link")?,
                    }
                }
                "linkup" => {
                    need(1)?;
                    FaultKind::LinkUp {
                        link: idx(args[0], "link")?,
                    }
                }
                "scale" => {
                    need(2)?;
                    FaultKind::CapacityScale {
                        link: idx(args[0], "link")?,
                        fraction: float(args[1], "fraction")?,
                    }
                }
                "crash" => {
                    need(1)?;
                    FaultKind::NodeCrash {
                        node: idx(args[0], "node")?,
                    }
                }
                "recover" => {
                    need(1)?;
                    FaultKind::NodeRecover {
                        node: idx(args[0], "node")?,
                    }
                }
                "burst" => {
                    need(3)?;
                    FaultKind::LossBurst {
                        link: idx(args[0], "link")?,
                        drop_chance: float(args[1], "drop chance")?,
                        until: secs(args[2])?,
                    }
                }
                other => {
                    return Err(FaultError::Parse(format!("unknown fault kind '{other}'")));
                }
            };
            events.push(FaultEvent { at, kind });
        }
        events.sort_by_key(|e| e.at);
        FaultPlan::try_new(events)
    }

    /// The validated events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Check every referenced index against a topology of `nodes` nodes and
    /// `links` links.
    pub fn check_indices(&self, nodes: usize, links: usize) -> Result<(), FaultError> {
        for (i, ev) in self.events.iter().enumerate() {
            match ev.kind {
                FaultKind::LinkDown { link }
                | FaultKind::LinkUp { link }
                | FaultKind::CapacityScale { link, .. }
                | FaultKind::LossBurst { link, .. } => {
                    if link as usize >= links {
                        return Err(FaultError::LinkOutOfRange { index: i, link });
                    }
                }
                FaultKind::NodeCrash { node } | FaultKind::NodeRecover { node } => {
                    if node as usize >= nodes {
                        return Err(FaultError::NodeOutOfRange { index: i, node });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_chance_is_respected() {
        let cfg = FaultConfig {
            drop_chance: 0.15,
            corrupt_chance: 0.0,
        };
        let inj = FaultInjector::keyed(cfg, 1);
        let n = 100_000;
        let drops = (0..n)
            .filter(|&k| inj.apply_keyed(k) == FaultOutcome::Drop)
            .count();
        let freq = drops as f64 / n as f64;
        assert!((freq - 0.15).abs() < 0.01, "drop freq {freq}");
    }

    #[test]
    fn corrupt_applies_after_drop() {
        let cfg = FaultConfig {
            drop_chance: 0.5,
            corrupt_chance: 1.0,
        };
        let inj = FaultInjector::keyed(cfg, 2);
        let mut seen_drop = false;
        let mut seen_corrupt = false;
        for k in 0..1000 {
            match inj.apply_keyed(k) {
                FaultOutcome::Drop => seen_drop = true,
                FaultOutcome::Corrupt => seen_corrupt = true,
                FaultOutcome::Pass => panic!("corrupt_chance=1 must never pass"),
            }
        }
        assert!(seen_drop && seen_corrupt);
    }

    #[test]
    fn injector_is_deterministic() {
        let cfg = FaultConfig {
            drop_chance: 0.3,
            corrupt_chance: 0.1,
        };
        let run = |seed| {
            let inj = FaultInjector::keyed(cfg, seed);
            (0..64).map(|k| inj.apply_keyed(k)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn keyed_draws_are_order_independent() {
        let cfg = FaultConfig {
            drop_chance: 0.3,
            corrupt_chance: 0.1,
        };
        let keys: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let fwd = FaultInjector::keyed(cfg, 42);
        let rev = FaultInjector::keyed(cfg, 42);
        let a: Vec<_> = keys.iter().map(|&k| fwd.apply_keyed(k)).collect();
        let mut b: Vec<_> = keys.iter().rev().map(|&k| rev.apply_keyed(k)).collect();
        b.reverse();
        assert_eq!(a, b);
        // different seeds decorrelate
        let other = FaultInjector::keyed(cfg, 43);
        let c: Vec<_> = keys.iter().map(|&k| other.apply_keyed(k)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn keyed_with_zero_chances_never_draws() {
        let inj = FaultInjector::keyed(FaultConfig::default(), 9);
        for k in 0..100 {
            assert_eq!(inj.apply_keyed(k), FaultOutcome::Pass);
        }
    }

    #[test]
    fn fault_config_validation_rejects_bad_chances() {
        assert!(FaultConfig::try_new(0.0, 0.0).is_ok());
        assert!(FaultConfig::try_new(1.0, 1.0).is_ok());
        for (d, c) in [
            (-0.1, 0.0),
            (1.1, 0.0),
            (0.0, -1e-9),
            (0.0, 2.0),
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
        ] {
            let err = FaultConfig::try_new(d, c).unwrap_err();
            assert!(
                matches!(err, FaultError::ChanceOutOfRange { .. }),
                "{d} {c}"
            );
        }
        // struct-literal construction stays possible; validate() catches it
        let cfg = FaultConfig {
            drop_chance: 3.0,
            corrupt_chance: 0.0,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn keyed_chance_is_order_independent_and_decorrelated() {
        let cfg = FaultConfig {
            drop_chance: 0.3,
            corrupt_chance: 0.0,
        };
        let keys: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let fwd = FaultInjector::keyed(cfg, 42);
        let rev = FaultInjector::keyed(cfg, 42);
        let a: Vec<_> = keys
            .iter()
            .map(|&k| fwd.apply_keyed_chance(k, 0.5))
            .collect();
        let mut b: Vec<_> = keys
            .iter()
            .rev()
            .map(|&k| rev.apply_keyed_chance(k, 0.5))
            .collect();
        b.reverse();
        assert_eq!(a, b);
        // burst draws use a different stream than base keyed draws
        let base = FaultInjector::keyed(cfg, 42);
        let c: Vec<_> = keys
            .iter()
            .map(|&k| base.apply_keyed(k) == FaultOutcome::Drop)
            .collect();
        let a_drops: Vec<_> = a.iter().map(|&o| o == FaultOutcome::Drop).collect();
        assert_ne!(a_drops, c);
        // zero chance never draws
        assert_eq!(fwd.apply_keyed_chance(7, 0.0), FaultOutcome::Pass);
    }

    #[test]
    fn fault_plan_validation() {
        use FaultKind::*;
        let t = SimTime::from_millis;
        // sorted plan accepted
        let plan = FaultPlan::try_new(vec![
            FaultEvent {
                at: t(100),
                kind: LinkDown { link: 1 },
            },
            FaultEvent {
                at: t(200),
                kind: LinkUp { link: 1 },
            },
        ])
        .unwrap();
        assert_eq!(plan.len(), 2);
        // unsorted rejected
        let err = FaultPlan::try_new(vec![
            FaultEvent {
                at: t(200),
                kind: LinkDown { link: 1 },
            },
            FaultEvent {
                at: t(100),
                kind: LinkUp { link: 1 },
            },
        ])
        .unwrap_err();
        assert!(matches!(err, FaultError::UnsortedPlan { index: 1 }));
        // bad fraction
        for f in [0.0, -0.5, 1.5, f64::NAN] {
            let err = FaultPlan::try_new(vec![FaultEvent {
                at: t(1),
                kind: CapacityScale {
                    link: 0,
                    fraction: f,
                },
            }])
            .unwrap_err();
            assert!(matches!(err, FaultError::BadFraction { .. }), "{f}");
        }
        // empty burst window
        let err = FaultPlan::try_new(vec![FaultEvent {
            at: t(100),
            kind: LossBurst {
                link: 0,
                drop_chance: 0.5,
                until: t(100),
            },
        }])
        .unwrap_err();
        assert!(matches!(err, FaultError::EmptyBurstWindow { index: 0 }));
        // bad burst chance
        let err = FaultPlan::try_new(vec![FaultEvent {
            at: t(100),
            kind: LossBurst {
                link: 0,
                drop_chance: f64::NAN,
                until: t(200),
            },
        }])
        .unwrap_err();
        assert!(matches!(err, FaultError::ChanceOutOfRange { .. }));
        // index checks
        let plan = FaultPlan::link_outage(3, t(10), t(20)).unwrap();
        assert!(plan.check_indices(10, 4).is_ok());
        assert!(matches!(
            plan.check_indices(10, 3),
            Err(FaultError::LinkOutOfRange { link: 3, .. })
        ));
        let plan = FaultPlan::try_new(vec![FaultEvent {
            at: t(1),
            kind: NodeCrash { node: 5 },
        }])
        .unwrap();
        assert!(matches!(
            plan.check_indices(5, 8),
            Err(FaultError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn fault_plan_parse_round_trips_the_readme_syntax() {
        let plan = FaultPlan::parse(
            "linkdown@1.5:3; linkup@2.5:3; scale@1.0:2:0.25; crash@0.75:4; \
             recover@1.25:4; burst@1.0:0:0.3:2.0",
        )
        .unwrap();
        assert_eq!(plan.len(), 6);
        // parse sorts by time
        let times: Vec<_> = plan.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: SimTime::from_millis(750),
                kind: FaultKind::NodeCrash { node: 4 },
            }
        );
        // errors are typed
        assert!(matches!(
            FaultPlan::parse("linkdown@x:3"),
            Err(FaultError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::parse("frob@1:2"),
            Err(FaultError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::parse("linkdown@1"),
            Err(FaultError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::parse("scale@1:2:1.5"),
            Err(FaultError::BadFraction { .. })
        ));
        // empty plan parses to empty
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ;  ").unwrap().is_empty());
    }
}
