//! Back-pressure signalling (§3.3, back-pressure phase).
//!
//! When an interface has no usable detour, the congested node caches the
//! overflow and "explicitly informs its one-hop upstream neighbour to
//! forward data at a slower requested rate". The informed neighbour then
//! faces the choice the paper spells out: find a longer detour of its own,
//! or propagate the notification one hop further — all the way to the
//! sender, which enters a closed loop for that flow.
//!
//! This module provides the message type and the per-node table of active
//! slow-downs (rate caps with expiry).

use std::collections::HashMap;

use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;
use inrpp_topology::graph::{LinkId, NodeId};

/// How long a back-pressure slow-down stays in force without being
/// re-advertised, at every hop and at the sender's closed loop.
pub const BACKPRESSURE_TTL: SimDuration = SimDuration::from_millis(200);

/// A hop-by-hop slow-down notification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownMsg {
    /// The node that detected the congestion (owner of the bottleneck
    /// interface).
    pub origin: NodeId,
    /// The congested link.
    pub congested_link: LinkId,
    /// The rate the congested interface can actually serve; upstream must
    /// not exceed it for traffic heading into this link.
    pub allowed: Rate,
    /// Hops this notification has travelled upstream (0 at the origin's
    /// immediate neighbour).
    pub hops_travelled: u8,
}

impl SlowdownMsg {
    /// Copy of this message propagated one hop further upstream.
    pub fn propagated(self) -> SlowdownMsg {
        SlowdownMsg {
            hops_travelled: self.hops_travelled.saturating_add(1),
            ..self
        }
    }
}

/// Active slow-downs at one node: per congested link, the allowed rate and
/// its expiry. Re-advertisement refreshes the entry; silence lets it lapse
/// (the closed loop is temporary, §3.3: "to avoid excessive caching").
#[derive(Debug, Clone, Default)]
pub struct BackpressureState {
    limits: HashMap<LinkId, (Rate, SimTime)>,
    received: u64,
    expired: u64,
}

impl BackpressureState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `msg` with time-to-live `ttl`. Refreshing an entry keeps the
    /// *lower* of old and new rate until expiry (conservative merge).
    pub fn apply(&mut self, now: SimTime, msg: &SlowdownMsg, ttl: SimDuration) {
        self.received += 1;
        let expiry = now.saturating_add(ttl);
        self.limits
            .entry(msg.congested_link)
            .and_modify(|(r, e)| {
                *r = r.min(msg.allowed);
                *e = expiry;
            })
            .or_insert((msg.allowed, expiry));
    }

    /// The live rate cap for traffic heading into `link`, if any.
    pub fn allowed_rate(&self, now: SimTime, link: LinkId) -> Option<Rate> {
        self.limits
            .get(&link)
            .and_then(|&(r, e)| (e > now).then_some(r))
    }

    /// Drop expired entries; call periodically.
    pub fn cleanup(&mut self, now: SimTime) {
        let before = self.limits.len();
        self.limits.retain(|_, &mut (_, e)| e > now);
        self.expired += (before - self.limits.len()) as u64;
    }

    /// `(messages received, entries expired)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.received, self.expired)
    }

    /// Number of entries (live or awaiting cleanup).
    pub fn len(&self) -> usize {
        self.limits.len()
    }

    /// True when no entries exist at all.
    pub fn is_empty(&self) -> bool {
        self.limits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(allowed_mbps: f64) -> SlowdownMsg {
        SlowdownMsg {
            origin: NodeId(2),
            congested_link: LinkId(1),
            allowed: Rate::mbps(allowed_mbps),
            hops_travelled: 0,
        }
    }

    #[test]
    fn apply_and_query() {
        let mut bp = BackpressureState::new();
        assert!(bp.is_empty());
        bp.apply(SimTime::ZERO, &msg(2.0), SimDuration::from_millis(200));
        assert_eq!(
            bp.allowed_rate(SimTime::from_millis(100), LinkId(1)),
            Some(Rate::mbps(2.0))
        );
        assert_eq!(bp.allowed_rate(SimTime::ZERO, LinkId(9)), None);
        assert_eq!(bp.len(), 1);
    }

    #[test]
    fn limits_expire() {
        let mut bp = BackpressureState::new();
        bp.apply(SimTime::ZERO, &msg(2.0), SimDuration::from_millis(200));
        assert_eq!(bp.allowed_rate(SimTime::from_millis(250), LinkId(1)), None);
        bp.cleanup(SimTime::from_millis(250));
        assert!(bp.is_empty());
        assert_eq!(bp.stats(), (1, 1));
    }

    #[test]
    fn refresh_keeps_conservative_rate() {
        let mut bp = BackpressureState::new();
        bp.apply(SimTime::ZERO, &msg(2.0), SimDuration::from_millis(100));
        // later refresh with a *higher* rate: keep the lower cap but extend
        bp.apply(
            SimTime::from_millis(50),
            &msg(5.0),
            SimDuration::from_millis(100),
        );
        assert_eq!(
            bp.allowed_rate(SimTime::from_millis(120), LinkId(1)),
            Some(Rate::mbps(2.0))
        );
        // lower refresh tightens immediately
        bp.apply(
            SimTime::from_millis(60),
            &msg(1.0),
            SimDuration::from_millis(100),
        );
        assert_eq!(
            bp.allowed_rate(SimTime::from_millis(100), LinkId(1)),
            Some(Rate::mbps(1.0))
        );
    }

    #[test]
    fn propagation_counts_hops() {
        let m = msg(2.0);
        let p = m.propagated();
        assert_eq!(p.hops_travelled, 1);
        assert_eq!(p.propagated().hops_travelled, 2);
        assert_eq!(p.congested_link, m.congested_link);
        assert_eq!(p.allowed, m.allowed);
        // saturates rather than wraps
        let mut far = m;
        far.hops_travelled = u8::MAX;
        assert_eq!(far.propagated().hops_travelled, u8::MAX);
    }

    #[test]
    fn independent_links_tracked_separately() {
        let mut bp = BackpressureState::new();
        bp.apply(SimTime::ZERO, &msg(2.0), SimDuration::from_secs(1));
        let other = SlowdownMsg {
            congested_link: LinkId(7),
            ..msg(4.0)
        };
        bp.apply(SimTime::ZERO, &other, SimDuration::from_secs(1));
        assert_eq!(
            bp.allowed_rate(SimTime::from_millis(1), LinkId(1)),
            Some(Rate::mbps(2.0))
        );
        assert_eq!(
            bp.allowed_rate(SimTime::from_millis(1), LinkId(7)),
            Some(Rate::mbps(4.0))
        );
    }
}
