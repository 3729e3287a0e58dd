//! The seed engine's packet: one owned value per packet in flight, each
//! data or request packet carrying its own source route.

use inrpp::endpoint::Request;
use inrpp_packetsim::packet::{ChunkNo, FlowId};
use inrpp_sim::time::SimTime;
use inrpp_topology::graph::NodeId;

/// A packet in flight. Data and request packets carry an explicit source
/// route (`route[hop]` is the node currently holding the packet); INRPP
/// routers may rewrite the tail of a data packet's route to splice in a
/// detour — the paper's "spoof the destination router's identifier ...
/// effectively tunnelling through the detour node".
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// A `⟨Nc, ACKc, Ac⟩` request travelling receiver → sender.
    Request {
        /// Owning flow.
        flow: FlowId,
        /// The request body.
        req: Request,
        /// Route from receiver to sender.
        route: Vec<NodeId>,
        /// Index of the node currently holding the packet.
        hop: usize,
    },
    /// A content chunk travelling sender → receiver.
    Data {
        /// Owning flow.
        flow: FlowId,
        /// Chunk number.
        chunk: ChunkNo,
        /// Remaining route (possibly detour-spliced).
        route: Vec<NodeId>,
        /// Index of the node currently holding the packet.
        hop: usize,
        /// Links traversed so far (stretch accounting).
        hops_travelled: u32,
        /// True once the chunk left its original shortest path.
        detoured: bool,
        /// Emission time at the sender (RTT samples).
        sent_at: SimTime,
    },
    /// A hop-by-hop back-pressure notification (travels one hop upstream,
    /// may be re-emitted).
    Slowdown {
        /// Body as defined in `inrpp::backpressure`.
        msg: inrpp::backpressure::SlowdownMsg,
        /// The flow whose arrival triggered it (lets the sender pick which
        /// flow enters the closed loop).
        flow: FlowId,
    },
}

impl Packet {
    /// Owning flow (all packet kinds are flow-scoped).
    pub fn flow(&self) -> FlowId {
        match self {
            Packet::Request { flow, .. }
            | Packet::Data { flow, .. }
            | Packet::Slowdown { flow, .. } => *flow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_flow_accessor() {
        let p = Packet::Data {
            flow: 9,
            chunk: 3,
            route: vec![NodeId(0), NodeId(1)],
            hop: 0,
            hops_travelled: 0,
            detoured: false,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(p.flow(), 9);
        let r = Packet::Request {
            flow: 7,
            req: Request {
                next: 0,
                ack: None,
                anticipated: 4,
            },
            route: vec![NodeId(1), NodeId(0)],
            hop: 0,
        };
        assert_eq!(r.flow(), 7);
    }
}
