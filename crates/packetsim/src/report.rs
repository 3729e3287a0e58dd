//! Per-run metrics for the packet-level simulator.

use inrpp_sim::metrics::JainIndex;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;

use crate::packet::FlowId;

/// Outcome of one transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStats {
    /// Flow identity.
    pub flow: FlowId,
    /// Object length in chunks.
    pub chunks_total: u64,
    /// Distinct chunks delivered to the receiver.
    pub chunks_delivered: u64,
    /// When the receiver started.
    pub started_at: SimTime,
    /// Completion instant, `None` if unfinished at the horizon.
    pub completed_at: Option<SimTime>,
    /// Requests re-issued after timeout.
    pub retransmits: u64,
    /// Largest out-of-order distance observed at the receiver: how far
    /// ahead of the in-order watermark a chunk arrived. Detour-split
    /// traffic reorders (paper §4 lists this as an open issue); this
    /// quantifies by how much.
    pub max_reorder_distance: u64,
    /// Fault-driven detours: chunk forwardings of this flow that left
    /// their planned path because the next channel was down. Congestion
    /// detours are excluded (see the run-level `chunks_detoured` for
    /// those), so a fault-free run reports 0 regardless of load.
    pub detours: u64,
    /// Chunks of this flow re-homed from a crashed node's custody store
    /// to the nearest surviving custody point (fault-plan recovery
    /// metric).
    pub custody_rescues: u64,
    /// Simulated time this flow's chunks spent stalled by fault-plan
    /// outages: custody wait that overlapped a down channel plus the
    /// crash-to-rescue latency of re-homed chunks.
    pub outage_delay: SimDuration,
}

impl FlowStats {
    /// Flow completion time, when finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.completed_at.map(|t| t.duration_since(self.started_at))
    }

    /// Delivered fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.chunks_total == 0 {
            1.0
        } else {
            self.chunks_delivered as f64 / self.chunks_total as f64
        }
    }

    /// Goodput in bits/s over the flow's active lifetime (until completion
    /// or `horizon`).
    pub fn goodput_bps(&self, chunk_bytes: ByteSize, horizon: SimTime) -> f64 {
        let end = self.completed_at.unwrap_or(horizon);
        let secs = end.saturating_duration_since(self.started_at).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.chunks_delivered as f64 * chunk_bytes.as_bits() as f64 / secs
        }
    }
}

/// Aggregate result of a packet-level run.
///
/// Derives `PartialEq` so the reference-equivalence suite can assert
/// whole-report identity between the arena engine and the reference
/// engine (floats included: byte-identical behaviour means the exact
/// same doubles, not approximately equal ones).
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSimReport {
    /// Transport display name ("INRPP" / "AIMD").
    pub transport: String,
    /// Topology display name.
    pub topology: String,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Per-flow outcomes, ascending by flow id.
    pub flows: Vec<FlowStats>,
    /// Data chunks delivered end-to-end (incl. duplicates).
    pub chunks_delivered: u64,
    /// Data chunks dropped (queue overflow with no custody, or custody
    /// overflow, or fault injection).
    pub chunks_dropped: u64,
    /// Data chunks that left their primary path at least once.
    pub chunks_detoured: u64,
    /// Chunks that spent time in custody stores.
    pub chunks_custodied: u64,
    /// Chunks re-homed from crashed nodes' custody stores to surviving
    /// custody points (fault-plan recovery).
    pub chunks_rescued: u64,
    /// Back-pressure notifications emitted.
    pub backpressure_msgs: u64,
    /// Highest custody occupancy seen across routers.
    pub custody_peak: ByteSize,
    /// Mean transmitter utilisation across channels.
    pub mean_utilisation: f64,
    /// Transmitter utilisation per directed channel
    /// (index = `link.idx() * 2 + direction`; same layout as the fluid
    /// report's channel vector).
    pub channel_utilisation: Vec<f64>,
    /// Bits accepted per directed channel (same index layout as
    /// [`PacketSimReport::channel_utilisation`]) — the per-channel byte
    /// totals the equivalence suite diffs between engines.
    pub channel_bits_sent: Vec<f64>,
    /// Chunk payload size (for goodput maths).
    pub chunk_bytes: ByteSize,
    /// Total interface phase transitions across all routers (the paper's
    /// "link swapping" / flap metric, ablation A5).
    pub phase_transitions: u64,
}

impl PacketSimReport {
    /// Completed flows.
    pub fn completed(&self) -> usize {
        self.flows
            .iter()
            .filter(|f| f.completed_at.is_some())
            .count()
    }

    /// Stats for one flow, `None` if the run never knew that id.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowStats> {
        // `flows` is sorted ascending by id (the engines guarantee it)
        self.flows
            .binary_search_by_key(&flow, |f| f.flow)
            .ok()
            .map(|i| &self.flows[i])
    }

    /// Mean FCT over completed flows, seconds.
    pub fn mean_fct_secs(&self) -> f64 {
        let fcts: Vec<f64> = self
            .flows
            .iter()
            .filter_map(|f| f.fct().map(|d| d.as_secs_f64()))
            .collect();
        if fcts.is_empty() {
            0.0
        } else {
            fcts.iter().sum::<f64>() / fcts.len() as f64
        }
    }

    /// Jain index over per-flow goodputs.
    pub fn jain_goodput(&self) -> Option<f64> {
        let horizon = SimTime::ZERO + self.horizon;
        let rates: Vec<f64> = self
            .flows
            .iter()
            .map(|f| f.goodput_bps(self.chunk_bytes, horizon))
            .collect();
        JainIndex::compute(&rates)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<5} on {:<10} done={}/{} fct={:.3}s drops={} detours={} custody={} bp={} util={:.3}",
            self.transport,
            self.topology,
            self.completed(),
            self.flows.len(),
            self.mean_fct_secs(),
            self.chunks_dropped,
            self.chunks_detoured,
            self.chunks_custodied,
            self.backpressure_msgs,
            self.mean_utilisation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(done: bool) -> FlowStats {
        FlowStats {
            flow: 1,
            chunks_total: 100,
            chunks_delivered: if done { 100 } else { 40 },
            started_at: SimTime::from_secs(1),
            completed_at: done.then(|| SimTime::from_secs(3)),
            retransmits: 2,
            max_reorder_distance: 3,
            detours: 0,
            custody_rescues: 0,
            outage_delay: SimDuration::ZERO,
        }
    }

    #[test]
    fn fct_and_progress() {
        let f = flow(true);
        assert_eq!(f.fct(), Some(SimDuration::from_secs(2)));
        assert!((f.progress() - 1.0).abs() < 1e-12);
        let g = flow(false);
        assert_eq!(g.fct(), None);
        assert!((g.progress() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn goodput_uses_lifetime() {
        let f = flow(true);
        // 100 chunks × 1000 bytes × 8 bits over 2 s = 400_000 bps
        let g = f.goodput_bps(ByteSize::bytes(1000), SimTime::from_secs(10));
        assert!((g - 400_000.0).abs() < 1e-6);
        // unfinished flow measured to the horizon
        // 40 chunks × 8000 bits over (5 - 1) s = 80_000 bps
        let u = flow(false).goodput_bps(ByteSize::bytes(1000), SimTime::from_secs(5));
        assert!((u - 80_000.0).abs() < 1.0, "got {u}");
    }

    #[test]
    fn report_aggregates() {
        let mut unfinished = flow(false);
        unfinished.flow = 2;
        let r = PacketSimReport {
            transport: "INRPP".into(),
            topology: "fig3".into(),
            horizon: SimDuration::from_secs(10),
            flows: vec![flow(true), unfinished],
            chunks_delivered: 140,
            chunks_dropped: 10,
            chunks_detoured: 30,
            chunks_custodied: 5,
            chunks_rescued: 0,
            backpressure_msgs: 2,
            custody_peak: ByteSize::kb(10),
            mean_utilisation: 0.5,
            channel_utilisation: vec![0.5, 0.5],
            channel_bits_sent: vec![1_000.0, 0.0],
            chunk_bytes: ByteSize::bytes(1000),
            phase_transitions: 0,
        };
        assert_eq!(r.completed(), 1);
        assert!((r.mean_fct_secs() - 2.0).abs() < 1e-12);
        assert!(r.jain_goodput().unwrap() > 0.0);
        assert!(r.summary().contains("INRPP"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = PacketSimReport {
            transport: "AIMD".into(),
            topology: "t".into(),
            horizon: SimDuration::from_secs(1),
            flows: vec![],
            chunks_delivered: 0,
            chunks_dropped: 0,
            chunks_detoured: 0,
            chunks_custodied: 0,
            chunks_rescued: 0,
            backpressure_msgs: 0,
            custody_peak: ByteSize::ZERO,
            mean_utilisation: 0.0,
            channel_utilisation: Vec::new(),
            channel_bits_sent: Vec::new(),
            chunk_bytes: ByteSize::bytes(1000),
            phase_transitions: 0,
        };
        assert_eq!(r.completed(), 0);
        assert_eq!(r.mean_fct_secs(), 0.0);
        assert_eq!(r.jain_goodput(), None);
    }

    #[test]
    fn zero_chunk_flow_is_complete() {
        let f = FlowStats {
            flow: 0,
            chunks_total: 0,
            chunks_delivered: 0,
            started_at: SimTime::ZERO,
            completed_at: None,
            retransmits: 0,
            max_reorder_distance: 0,
            detours: 0,
            custody_rescues: 0,
            outage_delay: SimDuration::ZERO,
        };
        assert_eq!(f.progress(), 1.0);
        assert_eq!(f.goodput_bps(ByteSize::bytes(1), SimTime::ZERO), 0.0);
    }
}
