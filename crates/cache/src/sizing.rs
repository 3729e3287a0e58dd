//! Custody-cache feasibility arithmetic (experiment C1).
//!
//! §3.3 of the paper argues custody caching is feasible at line rate by
//! pointing at router-cache studies: *"a 10GB cache after a 40Gbps link can
//! hold incoming traffic for 2 seconds — much more than the average RTT
//! (and timeout) in the Internet today."* These helpers make that claim a
//! typed calculation so the benchmark can sweep link rates × cache sizes
//! and print the feasibility table.

use inrpp_sim::time::SimDuration;
use inrpp_sim::units::{ByteSize, Rate};

/// How long a cache of `size` can absorb a net ingress of `ingress`
/// (arrival rate minus drain rate). [`SimDuration::MAX`] when the drain
/// keeps up (net ingress is zero).
///
/// ```
/// use inrpp_cache::sizing::holding_time;
/// use inrpp_sim::{time::SimDuration, units::{ByteSize, Rate}};
///
/// // the paper's §3.3 sentence, as an assertion:
/// assert_eq!(
///     holding_time(ByteSize::gb(10), Rate::gbps(40.0)),
///     SimDuration::from_secs(2),
/// );
/// ```
pub fn holding_time(size: ByteSize, ingress: Rate) -> SimDuration {
    size.transfer_time(ingress)
}

/// Cache size needed to absorb `ingress` for `hold`.
pub fn required_cache(ingress: Rate, hold: SimDuration) -> ByteSize {
    let bits = ingress.bits_in(hold);
    ByteSize::bytes((bits / 8.0).ceil() as u64)
}

/// Bandwidth–delay product: the natural custody budget unit for ablation
/// A3 (cache sweep in multiples of BDP).
pub fn bandwidth_delay_product(rate: Rate, rtt: SimDuration) -> ByteSize {
    required_cache(rate, rtt)
}

/// One row of the feasibility table: can `cache` hold `target` worth of
/// line-rate traffic on a link of `rate`?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibilityRow {
    /// Link rate under consideration.
    pub link: Rate,
    /// Cache size under consideration.
    pub cache: ByteSize,
    /// How long the cache absorbs full line rate.
    pub holding: SimDuration,
    /// Whether `holding` meets the target (e.g. a few RTTs).
    pub feasible: bool,
}

/// Build the feasibility table for the cartesian product of rates × sizes
/// against a target holding time.
pub fn feasibility_table(
    rates: &[Rate],
    sizes: &[ByteSize],
    target: SimDuration,
) -> Vec<FeasibilityRow> {
    let mut rows = Vec::with_capacity(rates.len() * sizes.len());
    for &link in rates {
        for &cache in sizes {
            let holding = holding_time(cache, link);
            rows.push(FeasibilityRow {
                link,
                cache,
                holding,
                feasible: holding >= target,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claim_10gb_40gbps_2s() {
        // The exact sentence from §3.3.
        let t = holding_time(ByteSize::gb(10), Rate::gbps(40.0));
        assert_eq!(t, SimDuration::from_secs(2));
    }

    #[test]
    fn required_cache_inverts_holding_time() {
        let c = required_cache(Rate::gbps(40.0), SimDuration::from_secs(2));
        assert_eq!(c, ByteSize::gb(10));
        let c = required_cache(Rate::mbps(100.0), SimDuration::from_millis(200));
        assert_eq!(c, ByteSize::bytes(2_500_000));
    }

    #[test]
    fn bdp_examples() {
        // 1 Gbps × 100 ms RTT = 12.5 MB
        let bdp = bandwidth_delay_product(Rate::gbps(1.0), SimDuration::from_millis(100));
        assert_eq!(bdp, ByteSize::bytes(12_500_000));
    }

    #[test]
    fn zero_ingress_holds_forever() {
        assert_eq!(holding_time(ByteSize::gb(1), Rate::ZERO), SimDuration::MAX);
    }

    #[test]
    fn feasibility_table_shape_and_verdicts() {
        let rows = feasibility_table(
            &[Rate::gbps(10.0), Rate::gbps(40.0), Rate::gbps(100.0)],
            &[ByteSize::gb(1), ByteSize::gb(10)],
            SimDuration::from_millis(500),
        );
        assert_eq!(rows.len(), 6);
        // 10GB @ 40Gbps = 2s >= 0.5s: feasible
        let r = rows
            .iter()
            .find(|r| r.link == Rate::gbps(40.0) && r.cache == ByteSize::gb(10))
            .unwrap();
        assert!(r.feasible);
        assert_eq!(r.holding, SimDuration::from_secs(2));
        // 1GB @ 100Gbps = 80ms < 0.5s: not feasible
        let r = rows
            .iter()
            .find(|r| r.link == Rate::gbps(100.0) && r.cache == ByteSize::gb(1))
            .unwrap();
        assert!(!r.feasible);
    }
}
