//! Flowlet splitting (§1: detoured data "is split in flowlets").
//!
//! Spreading a flow's chunks packet-by-packet over paths with different
//! latencies reorders them massively. Flowlet switching (Sinha, Kandula &
//! Katabi, HotNets-III) exploits the burst structure of transport traffic:
//! whenever the gap since a flow's previous chunk exceeds the path latency
//! difference, the next burst can be steered to a *different* path without
//! risking reordering. The splitter below implements exactly that: a
//! per-flow timer; bursts inherit their flowlet's path, gaps open a new
//! flowlet whose path is re-chosen by deterministic hash.

use std::collections::HashMap;

use inrpp_sim::rng::splitmix64;
use inrpp_sim::time::{SimDuration, SimTime};

/// Opaque flow identity.
pub type FlowId = u64;

#[derive(Debug, Clone, Copy)]
struct FlowletState {
    last_chunk: SimTime,
    flowlet_serial: u64,
    choice: usize,
}

/// Burst-gap flowlet splitter.
#[derive(Debug, Clone)]
pub struct FlowletSplitter {
    gap: SimDuration,
    flows: HashMap<FlowId, FlowletState>,
    flowlets_opened: u64,
}

impl FlowletSplitter {
    /// A splitter that opens a new flowlet after `gap` of flow silence.
    /// The gap should exceed the latency spread of the candidate paths.
    pub fn new(gap: SimDuration) -> Self {
        FlowletSplitter {
            gap,
            flows: HashMap::new(),
            flowlets_opened: 0,
        }
    }

    /// The configured gap threshold.
    pub fn gap(&self) -> SimDuration {
        self.gap
    }

    /// Total flowlets opened so far (path-switch opportunity count).
    pub fn flowlets_opened(&self) -> u64 {
        self.flowlets_opened
    }

    /// Route the chunk of `flow` arriving at `now` over one of `n_choices`
    /// paths; returns the path index.
    ///
    /// Chunks within a burst stick to their flowlet's path; a gap larger
    /// than the threshold re-hashes onto a possibly different path.
    ///
    /// # Panics
    /// Panics if `n_choices == 0`.
    pub fn assign(&mut self, now: SimTime, flow: FlowId, n_choices: usize) -> usize {
        assert!(n_choices > 0, "flowlet assignment needs at least one path");
        let hash = |flow: FlowId, serial: u64| -> usize {
            let mut s = flow ^ serial.rotate_left(17) ^ 0xF10E_7153_77A9_D201;
            (splitmix64(&mut s) % n_choices as u64) as usize
        };
        match self.flows.get_mut(&flow) {
            None => {
                let choice = hash(flow, 0);
                self.flows.insert(
                    flow,
                    FlowletState {
                        last_chunk: now,
                        flowlet_serial: 0,
                        choice,
                    },
                );
                self.flowlets_opened += 1;
                choice
            }
            Some(state) => {
                let idle = now.saturating_duration_since(state.last_chunk);
                state.last_chunk = now;
                if idle > self.gap {
                    state.flowlet_serial += 1;
                    state.choice = hash(flow, state.flowlet_serial);
                    self.flowlets_opened += 1;
                }
                // A shrunken choice set (paths withdrawn) must stay in range.
                state.choice %= n_choices;
                state.choice
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn burst_sticks_to_one_path() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(10));
        let first = fs.assign(ms(0), 42, 4);
        for i in 1..100 {
            // chunks 1 ms apart: same burst
            assert_eq!(fs.assign(ms(i), 42, 4), first);
        }
        assert_eq!(fs.flowlets_opened(), 1);
    }

    #[test]
    fn gap_opens_new_flowlet() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(10));
        let _ = fs.assign(ms(0), 42, 4);
        let _ = fs.assign(ms(50), 42, 4); // 50 ms gap > 10 ms
        assert_eq!(fs.flowlets_opened(), 2);
    }

    #[test]
    fn flowlets_eventually_use_multiple_paths() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(1));
        let mut used = std::collections::HashSet::new();
        for i in 0..64 {
            used.insert(fs.assign(ms(i * 100), 7, 4));
        }
        assert!(used.len() >= 2, "hash never switched paths: {used:?}");
    }

    #[test]
    fn different_flows_are_independent() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(10));
        let choices: Vec<usize> = (0..32).map(|f| fs.assign(ms(0), f, 8)).collect();
        let distinct: std::collections::HashSet<_> = choices.iter().collect();
        assert!(distinct.len() >= 3, "flow hash collapsed: {choices:?}");
    }

    #[test]
    fn assignment_is_deterministic() {
        let run = || {
            let mut fs = FlowletSplitter::new(SimDuration::from_millis(5));
            (0..50u64)
                .map(|i| fs.assign(ms(i * 7), i % 3, 5))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shrinking_choice_set_stays_in_range() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(10));
        let _ = fs.assign(ms(0), 1, 8);
        let c = fs.assign(ms(1), 1, 2);
        assert!(c < 2);
    }

    #[test]
    fn exact_gap_does_not_split() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(10));
        let a = fs.assign(ms(0), 9, 4);
        // exactly the gap: strict inequality keeps the flowlet
        let b = fs.assign(ms(10), 9, 4);
        assert_eq!(a, b);
        assert_eq!(fs.flowlets_opened(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_choices_panics() {
        let mut fs = FlowletSplitter::new(SimDuration::from_millis(10));
        let _ = fs.assign(ms(0), 1, 0);
    }
}
