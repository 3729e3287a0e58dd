//! The seed engine's directed channel: serialisation + propagation + a
//! bounded queue, one `Channel` per link direction.
//!
//! The shipped engine keeps the same model as a structure of arrays,
//! `inrpp_packetsim::channel::ChannelBank`; driven with the same calls,
//! the two produce bit-identical floats (checked below).

use inrpp_packetsim::channel::Overflow;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;

/// One direction of a link.
#[derive(Debug, Clone)]
pub struct Channel {
    rate: Rate,
    delay: SimDuration,
    max_queue: SimDuration,
    busy_until: SimTime,
    /// accumulated transmitter busy time (for utilisation reporting)
    busy_accum: SimDuration,
    /// bits accepted (for utilisation/goodput accounting)
    bits_sent: f64,
}

impl Channel {
    /// A channel of `rate`/`delay` refusing waits beyond `max_queue`.
    ///
    /// # Panics
    /// Panics on a zero rate — a dead link should not exist in a topology.
    pub fn new(rate: Rate, delay: SimDuration, max_queue: SimDuration) -> Self {
        assert!(!rate.is_zero(), "channel rate must be positive");
        Channel {
            rate,
            delay,
            max_queue,
            busy_until: SimTime::ZERO,
            busy_accum: SimDuration::ZERO,
            bits_sent: 0.0,
        }
    }

    /// Channel capacity.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Current queueing delay a new packet would see.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_duration_since(now)
    }

    /// Queue backlog in bits at `now`.
    pub fn backlog_bits(&self, now: SimTime) -> f64 {
        self.rate.bits_in(self.queue_delay(now))
    }

    /// Residual rate estimate over the next `window`: the share of the
    /// window not already committed to queued traffic.
    pub fn residual_rate(&self, now: SimTime, window: SimDuration) -> Rate {
        if window.is_zero() {
            return Rate::ZERO;
        }
        let busy = self.queue_delay(now).min(window);
        let free = 1.0 - busy.ratio(window);
        self.rate * free
    }

    /// Try to enqueue `bits`; on success returns the instant the packet
    /// fully arrives at the far end.
    pub fn try_send(&mut self, now: SimTime, bits: f64) -> Result<SimTime, Overflow> {
        assert!(bits > 0.0, "cannot send an empty packet");
        let wait = self.queue_delay(now);
        if wait > self.max_queue {
            return Err(Overflow { would_wait: wait });
        }
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let tx = self.rate.time_to_send(bits);
        self.busy_until = start + tx;
        self.busy_accum += tx;
        self.bits_sent += bits;
        Ok(self.busy_until + self.delay)
    }

    /// Earliest instant the implied queue delay falls to `target`.
    pub fn drain_time(&self, target: SimDuration) -> SimTime {
        SimTime::from_nanos(self.busy_until.as_nanos().saturating_sub(target.as_nanos()))
    }

    /// Transmitter utilisation over `[0, horizon]`.
    pub fn utilisation(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            (self.busy_accum.ratio(horizon)).min(1.0)
        }
    }

    /// Total bits accepted.
    pub fn bits_sent(&self) -> f64 {
        self.bits_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_packetsim::channel::ChannelBank;
    use inrpp_topology::Topology;

    fn ch() -> Channel {
        // 1 Mbps, 10 ms delay, 100 ms max queue
        Channel::new(
            Rate::mbps(1.0),
            SimDuration::from_millis(10),
            SimDuration::from_millis(100),
        )
    }

    #[test]
    fn idle_channel_delivers_after_tx_plus_delay() {
        let mut c = ch();
        // 10_000 bits at 1 Mbps = 10 ms tx; + 10 ms delay = 20 ms
        let arrival = c.try_send(SimTime::ZERO, 10_000.0).unwrap();
        assert_eq!(arrival, SimTime::from_millis(20));
        assert_eq!(c.queue_delay(SimTime::ZERO), SimDuration::from_millis(10));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut c = ch();
        let a1 = c.try_send(SimTime::ZERO, 10_000.0).unwrap();
        let a2 = c.try_send(SimTime::ZERO, 10_000.0).unwrap();
        assert_eq!(a2.duration_since(a1), SimDuration::from_millis(10));
        assert!((c.backlog_bits(SimTime::ZERO) - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn queue_bound_refuses() {
        let mut c = ch();
        // fill 100 ms worth of queue = 100_000 bits
        for _ in 0..10 {
            c.try_send(SimTime::ZERO, 10_000.0).unwrap();
        }
        // wait would now be 100 ms... still == max, accepted
        c.try_send(SimTime::ZERO, 1_000.0).unwrap();
        let err = c.try_send(SimTime::ZERO, 10_000.0).unwrap_err();
        assert!(err.would_wait > SimDuration::from_millis(100));
    }

    #[test]
    fn queue_drains_over_time() {
        let mut c = ch();
        c.try_send(SimTime::ZERO, 50_000.0).unwrap(); // 50 ms of queue
        assert_eq!(
            c.queue_delay(SimTime::from_millis(20)),
            SimDuration::from_millis(30)
        );
        assert_eq!(c.queue_delay(SimTime::from_millis(60)), SimDuration::ZERO);
        // after draining, a new send starts immediately
        let arrival = c.try_send(SimTime::from_millis(60), 1_000.0).unwrap();
        assert_eq!(arrival, SimTime::from_millis(71));
    }

    #[test]
    fn residual_rate_reflects_backlog() {
        let mut c = ch();
        assert_eq!(
            c.residual_rate(SimTime::ZERO, SimDuration::from_millis(100)),
            Rate::mbps(1.0)
        );
        c.try_send(SimTime::ZERO, 50_000.0).unwrap(); // 50 ms busy
        let r = c.residual_rate(SimTime::ZERO, SimDuration::from_millis(100));
        assert!((r.as_mbps() - 0.5).abs() < 1e-9, "residual {r}");
        c.try_send(SimTime::ZERO, 50_000.0).unwrap();
        let r = c.residual_rate(SimTime::ZERO, SimDuration::from_millis(100));
        assert_eq!(r, Rate::ZERO);
    }

    #[test]
    fn utilisation_accumulates() {
        let mut c = ch();
        c.try_send(SimTime::ZERO, 100_000.0).unwrap(); // 100 ms busy
        assert!((c.utilisation(SimDuration::from_secs(1)) - 0.1).abs() < 1e-9);
        assert_eq!(c.bits_sent(), 100_000.0);
        assert_eq!(c.utilisation(SimDuration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Channel::new(
            Rate::ZERO,
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
    }

    #[test]
    #[should_panic(expected = "empty packet")]
    fn empty_packet_rejected() {
        let mut c = ch();
        let _ = c.try_send(SimTime::ZERO, 0.0);
    }

    #[test]
    fn bank_matches_individual_channels_bit_for_bit() {
        let topo = Topology::fig3();
        let max_queue = SimDuration::from_millis(50);
        let mut bank = ChannelBank::from_topology(&topo, max_queue);
        let mut channels: Vec<Channel> = topo
            .link_ids()
            .flat_map(|l| {
                let link = topo.link(l);
                (0..2).map(move |_| Channel::new(link.capacity, link.delay, max_queue))
            })
            .collect();
        assert_eq!(bank.len(), channels.len());
        let mut rng = inrpp_sim::rng::SimRng::from_seed_u64(0xBA2C);
        let mut now = SimTime::ZERO;
        for _ in 0..2_000 {
            let d = rng.index(channels.len());
            let bits = (rng.index(12_000) + 1) as f64;
            now += SimDuration::from_micros(rng.index(500) as u64);
            assert_eq!(
                bank.try_send(d, now, bits),
                channels[d].try_send(now, bits),
                "divergence on channel {d}"
            );
            assert_eq!(bank.queue_delay(d, now), channels[d].queue_delay(now));
            assert_eq!(bank.backlog_bits(d, now), channels[d].backlog_bits(now));
            let w = SimDuration::from_millis(100);
            assert_eq!(
                bank.residual_rate(d, now, w),
                channels[d].residual_rate(now, w)
            );
            assert_eq!(
                bank.drain_time(d, SimDuration::from_millis(1)),
                channels[d].drain_time(SimDuration::from_millis(1))
            );
        }
        for (d, c) in channels.iter().enumerate() {
            let h = SimDuration::from_secs(30);
            assert_eq!(bank.utilisation(d, h), c.utilisation(h));
            assert_eq!(bank.bits_sent(d), c.bits_sent());
        }
    }
}
