//! Fault injection: keyed loss draws and timed fault plans.
//!
//! [`FaultInjector`] decides which data chunks a lossy channel loses.
//! Each draw is keyed by the channel and the chunk's place in the
//! channel's send order, so loss never perturbs unrelated randomness and
//! the order in which draws are made never matters. [`FaultPlan`]
//! schedules timed faults: link outages, capacity changes, node crashes
//! and loss bursts.

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

/// Check that a probability is in `[0, 1]` and not NaN; `what` names the
/// knob in the error.
pub fn check_chance(what: &'static str, value: f64) -> Result<(), FaultError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(FaultError::ChanceOutOfRange { what, value });
    }
    Ok(())
}

/// Keyed loss draws for the packet engines. A draw is a pure function of
/// `(seed, dir, n)`: the directed channel `dir` and the number `n` of data
/// chunks that channel accepted before this one. Every send on a channel
/// happens at the channel's source node, in that node's event order, so
/// the sequential engine, the reference oracle, every shard region and
/// every resumed run number each send alike and agree on its fate.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    key_base: u64,
}

impl FaultInjector {
    /// Draws keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut s = seed ^ 0xFA17_0000_C0FF_EE00;
        FaultInjector {
            key_base: splitmix64(&mut s),
        }
    }

    /// Whether the data chunk that directed channel `dir` accepts after
    /// `n` others is lost, at drop chance `chance` in `[0, 1]`. A zero
    /// chance takes no draw. The same `(seed, dir, n)` always draws the
    /// same uniform, so a higher chance drops a superset.
    #[inline]
    pub fn drops(&self, dir: usize, n: u64, chance: f64) -> bool {
        if chance <= 0.0 {
            return false;
        }
        let mut s = self.key_base ^ dir as u64;
        let mut s = splitmix64(&mut s) ^ n;
        SimRng::from_seed_u64(splitmix64(&mut s)).chance(chance)
    }
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
    /// data chunk the link accepts with `drop_chance` in place of the
    /// static chance (keyed, so shard order never matters; requests never
    /// draw); the fluid engine models the window as a goodput derate to
    /// `1 - drop_chance` of capacity.
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
                    check_chance("drop_chance", drop_chance)?;
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
        let inj = FaultInjector::new(1);
        let n = 100_000;
        let drops = (0..n).filter(|&k| inj.drops(3, k, 0.15)).count();
        let freq = drops as f64 / n as f64;
        assert!((freq - 0.15).abs() < 0.01, "drop freq {freq}");
    }

    #[test]
    fn injector_is_deterministic() {
        let run = |seed| {
            let inj = FaultInjector::new(seed);
            (0..64).map(|n| inj.drops(0, n, 0.3)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn keyed_draws_are_order_independent() {
        let keys: Vec<(usize, u64)> = (0..256u64).map(|i| ((i % 5) as usize, i / 5)).collect();
        let fwd = FaultInjector::new(42);
        let rev = FaultInjector::new(42);
        let a: Vec<_> = keys.iter().map(|&(d, n)| fwd.drops(d, n, 0.3)).collect();
        let mut b: Vec<_> = keys
            .iter()
            .rev()
            .map(|&(d, n)| rev.drops(d, n, 0.3))
            .collect();
        b.reverse();
        assert_eq!(a, b);
        // different seeds decorrelate
        let other = FaultInjector::new(43);
        let c: Vec<_> = keys.iter().map(|&(d, n)| other.drops(d, n, 0.3)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn keyed_with_zero_chances_never_draws() {
        let inj = FaultInjector::new(9);
        for n in 0..100 {
            assert!(!inj.drops(n as usize % 4, n, 0.0));
            assert!(inj.drops(n as usize % 4, n, 1.0));
        }
    }

    #[test]
    fn keyed_chance_is_order_independent_and_decorrelated() {
        let inj = FaultInjector::new(42);
        // one uniform per key, whatever the chance: a higher chance drops
        // a superset, as a loss burst over a static chance must
        for n in 0..512 {
            if inj.drops(2, n, 0.2) {
                assert!(inj.drops(2, n, 0.6), "n {n}");
            }
        }
        // each channel numbers its own sends, with its own draws
        let on = |d| (0..512).map(|n| inj.drops(d, n, 0.5)).collect::<Vec<_>>();
        assert_ne!(on(0), on(1));
        // interleaving the channels' draws changes none of them
        let mixed: Vec<_> = (0..512)
            .flat_map(|n| [(1, n), (0, n)])
            .map(|(d, n)| (d, inj.drops(d, n, 0.5)))
            .collect();
        for d in 0..2 {
            let got: Vec<_> = mixed.iter().filter(|m| m.0 == d).map(|m| m.1).collect();
            assert_eq!(got, on(d));
        }
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
