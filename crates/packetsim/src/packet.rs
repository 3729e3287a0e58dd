//! Wire types and configuration for the chunk-level simulator.

use inrpp::config::InrppConfig;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::graph::{LinkId, NodeId};

/// Flow identity.
pub type FlowId = u64;
/// Chunk sequence number.
pub type ChunkNo = u64;

/// One content transfer: `chunks × chunk_bytes` served by `src`, consumed
/// by `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferSpec {
    /// Flow identity (unique per simulation).
    pub flow: FlowId,
    /// Content source (sender host).
    pub src: NodeId,
    /// Content consumer (receiver host).
    pub dst: NodeId,
    /// Number of chunks in the object.
    pub chunks: u64,
    /// When the receiver starts requesting.
    pub start: SimTime,
}

impl TransferSpec {
    /// A transfer carrying (at least) `bits` of payload: the chunk count
    /// is `ceil(bits / chunk_bytes)`, minimum one chunk — the
    /// quantisation a fluid-model flow needs when replayed through the
    /// chunk-level engine (the flowsim↔packetsim differential harness).
    ///
    /// ```
    /// use inrpp_packetsim::TransferSpec;
    /// use inrpp_sim::time::SimTime;
    /// use inrpp_sim::units::ByteSize;
    /// use inrpp_topology::graph::NodeId;
    ///
    /// let t = TransferSpec::for_object_bits(
    ///     1, NodeId(0), NodeId(1), 25_000.0, ByteSize::bytes(1250), SimTime::ZERO,
    /// );
    /// assert_eq!(t.chunks, 3); // 25 kbit over 10 kbit chunks, rounded up
    /// ```
    pub fn for_object_bits(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        bits: f64,
        chunk_bytes: ByteSize,
        start: SimTime,
    ) -> TransferSpec {
        // one quantisation rule for the whole suite: delegate to the
        // session facade's engine-neutral Transfer, so the two engines
        // can never drift apart on offered bits
        let t = inrpp::session::Transfer::for_object_bits(flow, src, dst, bits, chunk_bytes, start);
        TransferSpec {
            flow,
            src,
            dst,
            chunks: t.chunks,
            start,
        }
    }
}

/// Initial congestion window of an AIMD receiver (chunks).
pub const INITIAL_WINDOW: f64 = 2.0;

/// Initial slow-start threshold of an AIMD receiver (chunks).
pub const INITIAL_SSTHRESH: f64 = 64.0;

const _: () = assert!(1.0 <= INITIAL_WINDOW && INITIAL_WINDOW < INITIAL_SSTHRESH);

/// The AIMD baseline (receiver-driven window, ICP/TCP-style). The
/// window starts at [`INITIAL_WINDOW`] in slow start up to
/// [`INITIAL_SSTHRESH`], and an outstanding chunk is re-requested after
/// [`AIMD_RTO`]; nothing is left to set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AimdConfig;

/// Which transport drives endpoints and routers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportKind {
    /// The paper's protocol: push-data / detour / back-pressure + custody.
    Inrpp(InrppConfig),
    /// Baseline: AIMD window at the receiver, drop-tail routers.
    Aimd(AimdConfig),
    /// Coexistence (paper §4 future work: "co-existence with TCP/IP will
    /// have to be investigated"): both transports share the network.
    /// Routers apply INRPP custody/detour machinery to INRPP flows only;
    /// AIMD flows see plain drop-tail. Per-flow selection via
    /// [`crate::PacketSim::add_transfer_as`].
    Mixed {
        /// Configuration for the INRPP flows.
        inrpp: InrppConfig,
        /// Configuration for the AIMD flows.
        aimd: AimdConfig,
    },
}

/// Per-flow transport selection (meaningful under [`TransportKind::Mixed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTransport {
    /// The flow runs the paper's INRPP machinery.
    Inrpp,
    /// The flow runs the AIMD baseline.
    Aimd,
}

/// Size of a request/control packet.
pub const REQUEST_BYTES: ByteSize = ByteSize::bytes(50);

/// Per-channel queue bound, expressed as queueing delay.
pub const MAX_QUEUE: SimDuration = SimDuration::from_millis(50);

/// Queue delay past which an INRPP router prefers a detour for new chunks
/// (the operational trigger inside the detour phase).
pub const DETOUR_QUEUE_THRESHOLD: SimDuration = SimDuration::from_millis(10);

const _: () = assert!(DETOUR_QUEUE_THRESHOLD.as_nanos() < MAX_QUEUE.as_nanos());

/// How long an INRPP receiver waits for a requested chunk before it
/// requests it again. §3.2 replaces end-to-end loss inference with
/// explicit timers at the receiver; the timer must outlast a chunk's
/// round trip, or every check re-requests chunks still in flight.
pub const RECEIVER_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// How long an AIMD receiver waits for an outstanding chunk before it
/// requests the chunk again and falls back to slow start: the baseline's
/// counterpart of [`RECEIVER_TIMEOUT`].
pub const AIMD_RTO: SimDuration = SimDuration::from_millis(500);

// the receiver's check re-arms itself half a timeout ahead: under 2 ns
// that would be the same instant forever
const _: () = assert!(RECEIVER_TIMEOUT.as_nanos() >= 2 && AIMD_RTO.as_nanos() >= 2);

/// Full configuration of a packet-level run. Requests are
/// [`REQUEST_BYTES`] long, every channel queues at most [`MAX_QUEUE`] of
/// traffic, and receivers re-request a missing chunk after
/// [`RECEIVER_TIMEOUT`] (INRPP) or [`AIMD_RTO`] (AIMD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSimConfig {
    /// Payload size of a data chunk.
    pub chunk_bytes: ByteSize,
    /// Transport selection.
    pub transport: TransportKind,
    /// Hard stop.
    pub horizon: SimDuration,
    /// Probability in `[0, 1]` that a channel loses a data chunk it
    /// accepted; a loss burst's chance replaces it inside the burst's
    /// window. Requests are never lost this way.
    pub drop_chance: f64,
    /// Seed of the keyed loss draws; a lossless run never reads it.
    pub seed: u64,
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        PacketSimConfig {
            chunk_bytes: ByteSize::bytes(1250),
            transport: TransportKind::Inrpp(InrppConfig::default()),
            horizon: SimDuration::from_secs(30),
            drop_chance: 0.0,
            seed: 1,
        }
    }
}

/// Identifies one direction of a link: the canonical directed-channel
/// index used across the engine (`link.idx() * 2 + dir`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirIndex(pub usize);

impl DirIndex {
    /// Build from a link and the traversal direction.
    pub fn new(link: LinkId, a_to_b: bool) -> Self {
        DirIndex(link.idx() * 2 + usize::from(!a_to_b))
    }

    /// The underlying undirected link.
    pub fn link(self) -> LinkId {
        LinkId((self.0 / 2) as u32)
    }

    /// True when this is the `a -> b` direction.
    pub fn is_forward(self) -> bool {
        self.0 % 2 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_index_roundtrip() {
        let d = DirIndex::new(LinkId(3), true);
        assert_eq!(d.0, 6);
        assert!(d.is_forward());
        assert_eq!(d.link(), LinkId(3));
        let r = DirIndex::new(LinkId(3), false);
        assert_eq!(r.0, 7);
        assert!(!r.is_forward());
        assert_eq!(r.link(), LinkId(3));
    }

    #[test]
    fn defaults_are_consistent() {
        let c = PacketSimConfig::default();
        assert!(c.chunk_bytes > REQUEST_BYTES);
        match c.transport {
            TransportKind::Inrpp(ic) => ic.validate().unwrap(),
            _ => panic!("default transport should be INRPP"),
        }
    }
}
