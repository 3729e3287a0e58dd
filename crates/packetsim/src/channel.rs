//! The directed channel model: serialisation + propagation + bounded queue.
//!
//! A channel is one direction of a topology link. Instead of simulating a
//! FIFO of packets, the channel tracks the instant its transmitter frees
//! up (`busy_until`): the implied queue backlog at time `t` is
//! `(busy_until - t) × rate`, so queue occupancy, drop decisions and drain
//! times all fall out of one scalar — an exact equivalence for FIFO
//! service with deterministic rates.
//!
//! The queue bound is expressed as *time* (`max_queue`): a packet whose
//! wait would exceed it is refused — drop-tail for the AIMD baseline,
//! custody hand-off for INRPP.

use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;
use inrpp_topology::Topology;

/// Refusal: accepting the packet would exceed the queue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow {
    /// How long the packet would have waited.
    pub would_wait: SimDuration,
}

/// Structure-of-arrays channel state for every directed channel of a
/// topology, indexed by `link.idx() * 2 + direction` (direction `0` is
/// the link's `a → b` orientation — the `DenseChannels` convention).
///
/// The per-channel constants are split from the mutable scalars: the
/// engine's hot path touches `busy_until` for queue probes far more
/// often than anything else, and packing those into one dense array
/// keeps the probe loop in cache. Every method body mirrors the seed
/// engine's one-struct-per-channel model (kept in the
/// `inrpp-packet-oracle` test crate) operation for operation, so the
/// two produce bit-identical floats when driven with the same calls.
///
/// A run sends only two packet sizes, its chunk and its request. The
/// engine's bank computes their serialisation time on every channel at
/// build, and [`ChannelBank::set_rate`] again, so a send of either size
/// reads a table instead of dividing and rounding. The table holds the
/// same function of the same inputs, so it cannot move a bit.
#[derive(Debug, Clone)]
pub struct ChannelBank {
    max_queue: SimDuration,
    rate: Vec<Rate>,
    delay: Vec<SimDuration>,
    /// the packet sizes, in bits, that `send_time` covers; zero (which
    /// no packet is) until `with_send_sizes`
    sizes: [f64; 2],
    /// per channel: `rate.time_to_send(sizes[i])`
    send_time: Vec<[SimDuration; 2]>,
    busy_until: Vec<SimTime>,
    busy_accum: Vec<SimDuration>,
    bits_sent: Vec<f64>,
}

impl ChannelBank {
    /// Both directions of every link in `topo`, all sharing `max_queue`.
    ///
    /// # Panics
    /// Panics on a zero-capacity link — validate the topology first when
    /// a typed error is wanted.
    pub fn from_topology(topo: &Topology, max_queue: SimDuration) -> Self {
        let ndir = topo.link_ids().count() * 2;
        let mut bank = ChannelBank {
            max_queue,
            rate: Vec::with_capacity(ndir),
            delay: Vec::with_capacity(ndir),
            sizes: [0.0; 2],
            send_time: vec![[SimDuration::ZERO; 2]; ndir],
            busy_until: vec![SimTime::ZERO; ndir],
            busy_accum: vec![SimDuration::ZERO; ndir],
            bits_sent: vec![0.0; ndir],
        };
        for l in topo.link_ids() {
            let link = topo.link(l);
            assert!(!link.capacity.is_zero(), "channel rate must be positive");
            for _ in 0..2 {
                bank.rate.push(link.capacity);
                bank.delay.push(link.delay);
            }
        }
        bank
    }

    /// Keep every channel's serialisation time for packets of `bits`
    /// (the run's two sizes), so [`ChannelBank::try_send`] of either size
    /// skips the division and the rounding.
    ///
    /// # Panics
    /// Panics when a size takes longer than the clock can hold on some
    /// channel — `PacketSim::try_new` refuses such configurations first.
    pub(crate) fn with_send_sizes(mut self, bits: [f64; 2]) -> Self {
        self.sizes = bits;
        for d in 0..self.len() {
            self.refresh_send_time(d);
        }
        self
    }

    fn refresh_send_time(&mut self, d: usize) {
        let rate = self.rate[d];
        self.send_time[d] = self.sizes.map(|bits| rate.time_to_send(bits));
    }

    /// Number of directed channels.
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// True when the topology had no links.
    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }

    /// Capacity of directed channel `d`.
    #[inline]
    pub fn rate(&self, d: usize) -> Rate {
        self.rate[d]
    }

    /// Replace the capacity of directed channel `d` mid-run (fault-plan
    /// capacity degradation). Only *future* sends see the new rate: bits
    /// already accepted keep the `busy_until` horizon they were admitted
    /// under, exactly as a real transmitter finishes the frame it is
    /// clocking out.
    ///
    /// # Panics
    /// Panics on a zero rate — outages are modelled by the engine's
    /// down-channel state, not by a dead transmitter.
    pub fn set_rate(&mut self, d: usize, rate: Rate) {
        assert!(!rate.is_zero(), "channel rate must be positive");
        self.rate[d] = rate;
        self.refresh_send_time(d);
    }

    /// Propagation delay of directed channel `d`.
    #[inline]
    pub fn delay(&self, d: usize) -> SimDuration {
        self.delay[d]
    }

    /// Current queueing delay a new packet on `d` would see.
    #[inline]
    pub fn queue_delay(&self, d: usize, now: SimTime) -> SimDuration {
        self.busy_until[d].saturating_duration_since(now)
    }

    /// Queue backlog of `d` in bits at `now`.
    #[inline]
    pub fn backlog_bits(&self, d: usize, now: SimTime) -> f64 {
        self.rate[d].bits_in(self.queue_delay(d, now))
    }

    /// Residual rate of `d` over the next `window`.
    pub fn residual_rate(&self, d: usize, now: SimTime, window: SimDuration) -> Rate {
        if window.is_zero() {
            return Rate::ZERO;
        }
        let busy = self.queue_delay(d, now).min(window);
        let free = 1.0 - busy.ratio(window);
        self.rate[d] * free
    }

    /// Try to enqueue `bits` on `d`; on success returns the arrival
    /// instant at the far end.
    pub fn try_send(&mut self, d: usize, now: SimTime, bits: f64) -> Result<SimTime, Overflow> {
        assert!(bits > 0.0, "cannot send an empty packet");
        let wait = self.queue_delay(d, now);
        if wait > self.max_queue {
            return Err(Overflow { would_wait: wait });
        }
        let start = if self.busy_until[d] > now {
            self.busy_until[d]
        } else {
            now
        };
        let tx = if bits == self.sizes[0] {
            self.send_time[d][0]
        } else if bits == self.sizes[1] {
            self.send_time[d][1]
        } else {
            self.rate[d].time_to_send(bits)
        };
        self.busy_until[d] = start + tx;
        self.busy_accum[d] += tx;
        self.bits_sent[d] += bits;
        Ok(self.busy_until[d] + self.delay[d])
    }

    /// Earliest instant `d`'s implied queue delay falls to `target`.
    #[inline]
    pub fn drain_time(&self, d: usize, target: SimDuration) -> SimTime {
        SimTime::from_nanos(
            self.busy_until[d]
                .as_nanos()
                .saturating_sub(target.as_nanos()),
        )
    }

    /// Transmitter utilisation of `d` over `[0, horizon]`.
    pub fn utilisation(&self, d: usize, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            (self.busy_accum[d].ratio(horizon)).min(1.0)
        }
    }

    /// Total bits accepted on `d`.
    pub fn bits_sent(&self, d: usize) -> f64 {
        self.bits_sent[d]
    }

    /// Overwrite channel `d`'s entry with `other`'s: a sharded run's
    /// report takes each channel from the region that drove it.
    pub(crate) fn copy_channel(&mut self, d: usize, other: &ChannelBank) {
        self.rate[d] = other.rate[d];
        self.delay[d] = other.delay[d];
        self.send_time[d] = other.send_time[d];
        self.busy_until[d] = other.busy_until[d];
        self.busy_accum[d] = other.busy_accum[d];
        self.bits_sent[d] = other.bits_sent[d];
    }

    /// Mean transmitter utilisation across channels with non-zero
    /// capacity; `0.0` when no channel qualifies (linkless topology).
    ///
    /// Zero-capacity channels are excluded rather than averaged in as
    /// `0/0` — the same guard `Allocation::mean_utilisation` grew in the
    /// fluid engine, so a degenerate topology reports `0.0` instead of
    /// poisoning downstream aggregates with NaN.
    pub fn mean_utilisation(&self, horizon: SimDuration) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for d in 0..self.len() {
            if self.rate[d].is_zero() {
                continue;
            }
            sum += self.utilisation(d, horizon);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn bank_rejects_zero_capacity_links() {
        let mut topo = Topology::new("dead-link");
        let a = topo.add_node();
        let b = topo.add_node();
        topo.add_link(a, b, Rate::ZERO, SimDuration::from_millis(1))
            .unwrap();
        let _ = ChannelBank::from_topology(&topo, SimDuration::from_millis(50));
    }
}
