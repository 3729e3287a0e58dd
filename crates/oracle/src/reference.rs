//! The **reference** packet engine: the original (seed) implementation,
//! kept verbatim as the behavioural oracle for the arena/calendar
//! engine in `inrpp_packetsim::engine`.
//!
//! Every structure here is the straightforward one — `BTreeMap` flow
//! tables, per-packet `Vec<NodeId>` route clones, one global binary
//! heap of events. That makes it slow and easy to audit, which is
//! exactly what an oracle should be: the optimised engine must produce
//! **bit-identical** reports and probe streams for every input (enforced
//! by the in-crate equivalence tests and the
//! `packet_engine_matches_reference_runner` property test).
//!
//! Reach it through [`crate::run`]; nothing else should depend on it.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use inrpp::backpressure::{BackpressureState, SlowdownMsg, BACKPRESSURE_TTL};
use inrpp::config::InrppConfig;
use inrpp::detour::DetourSelector;
use inrpp::endpoint::{Receiver, Request, Sender, SenderMode};
use inrpp::flowlet::FlowletSplitter;
use inrpp::phase::{Phase, PhaseController, PhaseInputs};
use inrpp::rate::RateEstimator;
use inrpp::session::{FlowEnd, FlowStart, ProbeSet, Sample};
use inrpp_cache::custody::CustodyStore;
use inrpp_sim::event::Engine;
use inrpp_sim::fault::FaultInjector;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::graph::{NodeId, Topology};
use inrpp_topology::spath::{cost, shortest_path};

use inrpp_packetsim::packet::{
    AimdConfig, ChunkNo, DirIndex, FlowId, FlowTransport, PacketSimConfig, TransferSpec,
    TransportKind, AIMD_RTO, DETOUR_QUEUE_THRESHOLD, INITIAL_SSTHRESH, INITIAL_WINDOW, MAX_QUEUE,
    RECEIVER_TIMEOUT, REQUEST_BYTES,
};
use inrpp_packetsim::report::{FlowStats, PacketSimReport};

use crate::channel::Channel;
use crate::detour::NeighborLoads;
use crate::packet::Packet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Start(FlowId),
    SenderKick(NodeId),
    Tick(NodeId),
    RxCheck(FlowId),
    CustodyDrain { node: NodeId, dir: usize },
    BpExpire { node: NodeId, flow: FlowId },
    Deliver(u64), // index into the in-flight packet arena
}

struct AimdReceiver {
    cwnd: f64,
    ssthresh: f64,
    total: u64,
    next_unrequested: u64,
    received: BTreeSet<ChunkNo>,
}

enum ReceiverKind {
    Inrpp(Receiver),
    Aimd(AimdReceiver),
}

struct ReceiverRt {
    kind: ReceiverKind,
    outstanding: BTreeMap<ChunkNo, SimTime>,
    stats: FlowStats,
}

struct FlowRt {
    spec: TransferSpec,
    /// primary route src -> dst
    route: Vec<NodeId>,
    /// which transport machinery governs this flow
    kind: FlowTransport,
}

#[derive(Default)]
struct Counters {
    chunks_delivered: u64,
    chunks_dropped: u64,
    chunks_detoured: u64,
    chunks_custodied: u64,
    backpressure_msgs: u64,
}

pub(crate) struct Runner<'a> {
    topo: &'a Topology,
    cfg: PacketSimConfig,
    channels: Vec<Channel>,
    /// node -> (neighbor -> local interface index)
    local_idx: Vec<HashMap<NodeId, usize>>,
    estimators: Vec<RateEstimator>,
    phases: Vec<Vec<PhaseController>>,
    custody: Vec<CustodyStore>,
    bp: Vec<BackpressureState>,
    splitters: Vec<FlowletSplitter>,
    loads: NeighborLoads,
    selector: Option<DetourSelector>,
    flows: BTreeMap<FlowId, FlowRt>,
    senders: HashMap<NodeId, Sender>,
    receivers: BTreeMap<FlowId, ReceiverRt>,
    retransmit: HashMap<NodeId, VecDeque<(FlowId, ChunkNo)>>,
    /// per directed channel, flows with custody waiting at its source node
    drain_reg: HashMap<usize, BTreeSet<FlowId>>,
    drain_scheduled: BTreeSet<usize>,
    /// (node, flow) -> remaining route to resume after custody
    resume_routes: HashMap<(NodeId, FlowId), Vec<NodeId>>,
    kick_scheduled: BTreeSet<NodeId>,
    fault: FaultInjector,
    /// per directed channel: data chunks it has accepted, numbering its
    /// keyed loss draws as the optimised engine numbers them
    data_sent: Vec<u64>,
    counters: Counters,
    custody_peak: ByteSize,
    /// arena of packets in flight (events reference by index)
    in_flight: Vec<Option<Packet>>,
    inrpp_cfg: Option<InrppConfig>,
    aimd_cfg: Option<AimdConfig>,
}

impl<'a> Runner<'a> {
    pub(crate) fn build(
        topo: &'a Topology,
        cfg: PacketSimConfig,
        transfers: Vec<(TransferSpec, FlowTransport)>,
    ) -> Self {
        let ndir = topo.link_count() * 2;
        let mut channels = Vec::with_capacity(ndir);
        for l in topo.link_ids() {
            let link = topo.link(l);
            for _ in 0..2 {
                channels.push(Channel::new(link.capacity, link.delay, MAX_QUEUE));
            }
        }
        let (inrpp_cfg, aimd_cfg) = match cfg.transport {
            TransportKind::Inrpp(ic) => (Some(ic), None),
            TransportKind::Aimd(ac) => (None, Some(ac)),
            TransportKind::Mixed { inrpp, aimd } => (Some(inrpp), Some(aimd)),
        };
        let local_idx: Vec<HashMap<NodeId, usize>> = topo
            .node_ids()
            .map(|n| {
                topo.neighbors(n)
                    .iter()
                    .enumerate()
                    .map(|(i, &(nb, _))| (nb, i))
                    .collect()
            })
            .collect();
        let interval = inrpp_cfg
            .map(|c| c.interval)
            .unwrap_or(SimDuration::from_millis(100));
        let estimators = topo
            .node_ids()
            .map(|n| RateEstimator::new(topo.degree(n).max(1), interval, SimTime::ZERO))
            .collect();
        let phases = topo
            .node_ids()
            .map(|n| {
                (0..topo.degree(n))
                    .map(|_| PhaseController::new(inrpp_cfg.unwrap_or_default()))
                    .collect()
            })
            .collect();
        let custody = topo
            .node_ids()
            .map(|_| CustodyStore::new(inrpp_cfg.map(|c| c.cache_budget).unwrap_or(ByteSize::ZERO)))
            .collect();
        let selector = inrpp_cfg.map(|_| DetourSelector::new(topo));
        let mut flows = BTreeMap::new();
        let mut senders: HashMap<NodeId, Sender> = HashMap::new();
        let push_ahead = inrpp_cfg.map(|c| c.anticipation).unwrap_or(0);
        for (spec, kind) in transfers {
            let route = shortest_path(topo, spec.src, spec.dst, &cost::hops)
                .expect("validated at add_transfer")
                .nodes()
                .to_vec();
            senders
                .entry(spec.src)
                .or_insert_with(|| Sender::new(push_ahead))
                .register(spec.flow, spec.chunks);
            if kind == FlowTransport::Aimd {
                // AIMD sender: strict request/response, no push-ahead
                senders
                    .get_mut(&spec.src)
                    .expect("just inserted")
                    .set_mode(spec.flow, SenderMode::ClosedLoop);
            }
            flows.insert(spec.flow, FlowRt { spec, route, kind });
        }
        Runner {
            topo,
            cfg,
            channels,
            local_idx,
            estimators,
            phases,
            custody,
            bp: topo.node_ids().map(|_| BackpressureState::new()).collect(),
            splitters: topo
                .node_ids()
                .map(|_| FlowletSplitter::new(SimDuration::from_millis(5)))
                .collect(),
            loads: NeighborLoads::new(),
            selector,
            flows,
            senders,
            receivers: BTreeMap::new(),
            retransmit: HashMap::new(),
            drain_reg: HashMap::new(),
            drain_scheduled: BTreeSet::new(),
            resume_routes: HashMap::new(),
            kick_scheduled: BTreeSet::new(),
            fault: FaultInjector::new(cfg.seed),
            data_sent: vec![0; ndir],
            counters: Counters::default(),
            custody_peak: ByteSize::ZERO,
            in_flight: Vec::new(),
            inrpp_cfg,
            aimd_cfg,
        }
    }

    /// Does this flow run the INRPP machinery (custody, detours, Eq. 1
    /// accounting, back-pressure)? AIMD flows see plain drop-tail.
    fn is_inrpp(&self, flow: FlowId) -> bool {
        self.flows
            .get(&flow)
            .is_some_and(|f| f.kind == FlowTransport::Inrpp)
    }

    fn dir_between(&self, from: NodeId, to: NodeId) -> usize {
        let l = self
            .topo
            .link_between(from, to)
            .unwrap_or_else(|| panic!("no channel {from}->{to}"));
        DirIndex::new(l, self.topo.link(l).a == from).0
    }

    fn chunk_bits(&self) -> f64 {
        self.cfg.chunk_bytes.as_bits() as f64
    }

    fn stash(&mut self, pkt: Packet) -> u64 {
        self.in_flight.push(Some(pkt));
        (self.in_flight.len() - 1) as u64
    }

    fn schedule_kick(&mut self, eng: &mut Engine<Ev>, node: NodeId, delay: SimDuration) {
        if self.kick_scheduled.insert(node) {
            eng.schedule(delay, Ev::SenderKick(node));
        }
    }

    // ---- request path --------------------------------------------------

    fn send_request(
        &mut self,
        eng: &mut Engine<Ev>,
        now: SimTime,
        flow: FlowId,
        req: Request,
        covers: u64,
    ) {
        let route: Vec<NodeId> = self.flows[&flow].route.iter().rev().copied().collect();
        let pkt = Packet::Request {
            flow,
            req,
            route,
            hop: 0,
        };
        let _ = covers; // carried implicitly: each request covers `anticipated` newness
        self.forward_request(eng, now, pkt, covers);
    }

    fn forward_request(&mut self, eng: &mut Engine<Ev>, now: SimTime, pkt: Packet, covers: u64) {
        let Packet::Request {
            flow,
            req,
            route,
            hop,
        } = pkt
        else {
            unreachable!("forward_request got a non-request")
        };
        let here = route[hop];
        let next = route[hop + 1];
        // Eq. 1 accounting at intermediate routers (INRPP flows only): the
        // data pulled by this request will arrive from `next` (upstream)
        // and leave toward `route[hop - 1]` (downstream).
        if self.is_inrpp(flow) && hop > 0 {
            let up = self.local_idx[here.idx()][&next];
            let down = self.local_idx[here.idx()][&route[hop - 1]];
            let bits = self.chunk_bits() * covers as f64;
            self.estimators[here.idx()].record_request(now, up, down, bits);
        }
        let d = self.dir_between(here, next);
        let bits = REQUEST_BYTES.as_bits() as f64;
        match self.channels[d].try_send(now, bits) {
            Ok(arrival) => {
                let idx = self.stash(Packet::Request {
                    flow,
                    req,
                    route,
                    hop: hop + 1,
                });
                eng.schedule_at(arrival, Ev::Deliver(idx))
                    .expect("arrival is in the future");
            }
            Err(_) => {
                // Requests are tiny; loss here is recovered by the
                // receiver's timeout machinery.
            }
        }
    }

    // ---- data path -------------------------------------------------------

    /// Emit a chunk from its sender onto the first hop.
    fn emit_chunk(
        &mut self,
        eng: &mut Engine<Ev>,
        now: SimTime,
        flow: FlowId,
        chunk: ChunkNo,
    ) -> bool {
        let route = self.flows[&flow].route.clone();
        let pkt = Packet::Data {
            flow,
            chunk,
            route,
            hop: 0,
            hops_travelled: 0,
            detoured: false,
            sent_at: now,
        };
        self.forward_data(eng, now, pkt)
    }

    /// Forward a data packet from `route[hop]` toward `route[hop+1]`,
    /// possibly splicing a detour. Returns false if the chunk was dropped
    /// or went into custody (i.e. it is no longer in flight).
    fn forward_data(&mut self, eng: &mut Engine<Ev>, now: SimTime, pkt: Packet) -> bool {
        let Packet::Data {
            flow,
            chunk,
            mut route,
            hop,
            hops_travelled,
            mut detoured,
            sent_at,
        } = pkt
        else {
            unreachable!("forward_data got a non-data packet")
        };
        let here = route[hop];
        let next = route[hop + 1];
        let mut d = self.dir_between(here, next);

        if self.is_inrpp(flow) {
            // Detour decision: phase machine says the interface is
            // congested, or the instantaneous queue crossed the threshold,
            // or an upstream slow-down caps this link.
            let li = self.local_idx[here.idx()][&next];
            let phase = self.phases[here.idx()][li].phase();
            let queue_long = self.channels[d].queue_delay(now) > DETOUR_QUEUE_THRESHOLD;
            let bp_capped = {
                let link = DirIndex(d).link();
                self.bp[here.idx()].allowed_rate(now, link).is_some()
            };
            if (phase != Phase::PushData || queue_long || bp_capped) && hop + 2 <= route.len() {
                if let Some((alt_route, alt_dir)) =
                    self.pick_detour(now, here, next, flow, &route, hop)
                {
                    route = alt_route;
                    d = alt_dir;
                    if !detoured {
                        detoured = true;
                        self.counters.chunks_detoured += 1;
                    }
                }
            }
        }

        let bits = self.chunk_bits();
        match self.channels[d].try_send(now, bits) {
            Ok(arrival) => {
                let n = self.data_sent[d];
                self.data_sent[d] += 1;
                if self.fault.drops(d, n, self.cfg.drop_chance) {
                    self.counters.chunks_dropped += 1;
                    return false;
                }
                let idx = self.stash(Packet::Data {
                    flow,
                    chunk,
                    route,
                    hop: hop + 1,
                    hops_travelled: hops_travelled + 1,
                    detoured,
                    sent_at,
                });
                eng.schedule_at(arrival, Ev::Deliver(idx))
                    .expect("arrival is in the future");
                true
            }
            Err(_) if self.is_inrpp(flow) => {
                // custody (store-and-forward) instead of dropping
                self.custody_store(eng, now, here, flow, chunk, route, hop, d)
            }
            Err(_) => {
                // AIMD flow: drop-tail
                self.counters.chunks_dropped += 1;
                false
            }
        }
    }

    /// Pick a detour around the congested hop `here -> next`, preferring
    /// alternatives whose first channel has headroom. Returns the spliced
    /// route and the new first-hop channel.
    fn pick_detour(
        &mut self,
        now: SimTime,
        here: NodeId,
        next: NodeId,
        flow: FlowId,
        route: &[NodeId],
        hop: usize,
    ) -> Option<(Vec<NodeId>, usize)> {
        let selector = self.selector.as_ref()?;
        let link = self.topo.link_between(here, next)?;
        let cands = selector.candidates(self.topo, link, here, next);
        // A candidate is viable when it does not revisit nodes on the
        // remaining route and its channels have headroom. Load-aware mode
        // (§3.3 option i: neighbours advertise interface loads) checks
        // every hop of the detour; blind mode (option ii) sees only the
        // local first hop.
        let load_aware = self.inrpp_cfg.is_some_and(|c| c.load_aware_detour);
        let threshold = DETOUR_QUEUE_THRESHOLD;
        let viable: Vec<&inrpp_topology::spath::Path> = cands
            .iter()
            .filter(|p| {
                let hops_ok = if load_aware {
                    p.nodes().windows(2).all(|w| {
                        let d = self.dir_between(w[0], w[1]);
                        self.channels[d].queue_delay(now) <= threshold
                    })
                } else {
                    let first = self.dir_between(here, p.nodes()[1]);
                    self.channels[first].queue_delay(now) <= threshold
                };
                hops_ok
                    && p.nodes()[1..p.nodes().len() - 1]
                        .iter()
                        .all(|n| !route.contains(n))
            })
            .collect();
        if viable.is_empty() {
            return None;
        }
        let pick = self.splitters[here.idx()].assign(now, flow, viable.len());
        let detour = viable[pick];
        let mut new_route = route[..=hop].to_vec();
        new_route.extend_from_slice(&detour.nodes()[1..]);
        new_route.extend_from_slice(&route[hop + 2..]);
        let first = self.dir_between(here, detour.nodes()[1]);
        Some((new_route, first))
    }

    #[allow(clippy::too_many_arguments)]
    fn custody_store(
        &mut self,
        eng: &mut Engine<Ev>,
        now: SimTime,
        here: NodeId,
        flow: FlowId,
        chunk: ChunkNo,
        route: Vec<NodeId>,
        hop: usize,
        d: usize,
    ) -> bool {
        let stored = self.custody[here.idx()]
            .store(now, flow, chunk, self.cfg.chunk_bytes)
            .is_ok();
        if stored {
            self.counters.chunks_custodied += 1;
            self.custody_peak = self.custody_peak.max(self.custody[here.idx()].used());
            self.resume_routes
                .entry((here, flow))
                .or_insert_with(|| route[hop..].to_vec());
            self.drain_reg.entry(d).or_default().insert(flow);
            if self.drain_scheduled.insert(d) {
                let t = self.channels[d].drain_time(DETOUR_QUEUE_THRESHOLD).max(now);
                eng.schedule_at(t, Ev::CustodyDrain { node: here, dir: d })
                    .expect("drain time is not in the past");
            }
        } else {
            self.counters.chunks_dropped += 1;
        }
        // Either way the congested region pushes back if pressure is high.
        let fill = self.custody[here.idx()].fill_fraction();
        let threshold = self
            .inrpp_cfg
            .map(|c| c.cache_pressure_threshold)
            .unwrap_or(1.0);
        if (!stored || fill >= threshold) && hop > 0 {
            self.emit_slowdown(eng, now, here, flow, &route, hop, d);
        }
        false
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_slowdown(
        &mut self,
        eng: &mut Engine<Ev>,
        now: SimTime,
        here: NodeId,
        flow: FlowId,
        route: &[NodeId],
        hop: usize,
        congested_dir: usize,
    ) {
        let upstream = route[hop - 1];
        let link = DirIndex(congested_dir).link();
        let msg = SlowdownMsg {
            origin: here,
            congested_link: link,
            allowed: self.channels[congested_dir].rate(),
            hops_travelled: 0,
        };
        self.counters.backpressure_msgs += 1;
        // control packet: link delay only (priority queueing)
        let d = self.dir_between(here, upstream);
        let arrival = now + self.channels[d].delay();
        let idx = self.stash(Packet::Slowdown { msg, flow });
        eng.schedule_at(arrival, Ev::Deliver(idx))
            .expect("arrival in the future");
    }

    // ---- receivers -------------------------------------------------------

    fn start_flow(&mut self, eng: &mut Engine<Ev>, now: SimTime, flow: FlowId) {
        let spec = self.flows[&flow].spec;
        let kind = self.flows[&flow].kind;
        let stats = FlowStats {
            flow,
            chunks_total: spec.chunks,
            chunks_delivered: 0,
            started_at: now,
            completed_at: None,
            retransmits: 0,
            max_reorder_distance: 0,
            detours: 0,
            custody_rescues: 0,
            outage_delay: SimDuration::ZERO,
        };
        match (kind, self.inrpp_cfg, self.aimd_cfg) {
            (FlowTransport::Inrpp, Some(ic), _) => {
                let mut rec = Receiver::new(spec.chunks, ic.anticipation);
                let req = rec.initial_request();
                let covers = req.anticipated + 1;
                let deadline = now + RECEIVER_TIMEOUT;
                let mut rt = ReceiverRt {
                    kind: ReceiverKind::Inrpp(rec),
                    outstanding: BTreeMap::new(),
                    stats,
                };
                for c in 0..=req.anticipated {
                    rt.outstanding.insert(c, deadline);
                }
                self.receivers.insert(flow, rt);
                self.send_request(eng, now, flow, req, covers);
            }
            (FlowTransport::Aimd, _, Some(_)) => {
                let mut rt = ReceiverRt {
                    kind: ReceiverKind::Aimd(AimdReceiver {
                        cwnd: INITIAL_WINDOW,
                        ssthresh: INITIAL_SSTHRESH,
                        total: spec.chunks,
                        next_unrequested: 0,
                        received: BTreeSet::new(),
                    }),
                    outstanding: BTreeMap::new(),
                    stats,
                };
                let win = (INITIAL_WINDOW as u64).clamp(1, spec.chunks);
                let deadline = now + AIMD_RTO;
                let mut to_req = Vec::new();
                if let ReceiverKind::Aimd(r) = &mut rt.kind {
                    for _ in 0..win {
                        to_req.push(r.next_unrequested);
                        rt.outstanding.insert(r.next_unrequested, deadline);
                        r.next_unrequested += 1;
                    }
                }
                self.receivers.insert(flow, rt);
                for c in to_req {
                    let req = Request {
                        next: c,
                        ack: None,
                        anticipated: c,
                    };
                    self.send_request(eng, now, flow, req, 1);
                }
            }
            _ => unreachable!("add_transfer_as validated the flow transport"),
        }
        eng.schedule(RECEIVER_TIMEOUT, Ev::RxCheck(flow));
    }

    fn deliver_to_receiver(
        &mut self,
        eng: &mut Engine<Ev>,
        now: SimTime,
        flow: FlowId,
        chunk: ChunkNo,
        probes: &mut ProbeSet<'_, '_>,
    ) {
        let delivered_before = self.counters.chunks_delivered;
        let was_complete = self
            .receivers
            .get(&flow)
            .is_some_and(|rt| rt.stats.completed_at.is_some());
        let Some(rt) = self.receivers.get_mut(&flow) else {
            return;
        };
        rt.outstanding.remove(&chunk);
        let timeout = RECEIVER_TIMEOUT;
        match &mut rt.kind {
            ReceiverKind::Inrpp(rec) => {
                // reorder distance: how far past the in-order watermark
                // this chunk landed (paper §4 open issue, quantified)
                let expected = rec.highest_contiguous().map_or(0, |h| h + 1);
                if chunk > expected {
                    rt.stats.max_reorder_distance =
                        rt.stats.max_reorder_distance.max(chunk - expected);
                }
                let out = rec.on_chunk(chunk);
                if !out.duplicate {
                    rt.stats.chunks_delivered += 1;
                    self.counters.chunks_delivered += 1;
                }
                if out.completed && rt.stats.completed_at.is_none() {
                    rt.stats.completed_at = Some(now);
                }
                if let Some(req) = out.request {
                    rt.outstanding.insert(req.anticipated, now + timeout);
                    self.send_request(eng, now, flow, req, 1);
                }
            }
            ReceiverKind::Aimd(r) => {
                let mut expected = 0;
                while r.received.contains(&expected) {
                    expected += 1;
                }
                if chunk > expected {
                    rt.stats.max_reorder_distance =
                        rt.stats.max_reorder_distance.max(chunk - expected);
                }
                if r.received.insert(chunk) {
                    rt.stats.chunks_delivered += 1;
                    self.counters.chunks_delivered += 1;
                    // AIMD growth: slow start then congestion avoidance
                    if r.cwnd < r.ssthresh {
                        r.cwnd += 1.0;
                    } else {
                        r.cwnd += 1.0 / r.cwnd;
                    }
                }
                if r.received.len() as u64 == r.total && rt.stats.completed_at.is_none() {
                    rt.stats.completed_at = Some(now);
                }
                // clock out new requests within the window
                let mut to_req = Vec::new();
                while (rt.outstanding.len() as f64) < r.cwnd.floor() && r.next_unrequested < r.total
                {
                    let c = r.next_unrequested;
                    r.next_unrequested += 1;
                    rt.outstanding.insert(c, now + AIMD_RTO);
                    to_req.push(c);
                }
                for c in to_req {
                    let req = Request {
                        next: c,
                        ack: Some(chunk),
                        anticipated: c,
                    };
                    self.send_request(eng, now, flow, req, 1);
                }
            }
        }
        // probe emission: after the receiver state settled, before the
        // next event — purely observational
        if !probes.is_empty() {
            let chunk_bits = self.cfg.chunk_bytes.as_bits() as f64;
            if self.counters.chunks_delivered > delivered_before {
                probes.sample(&Sample {
                    time: now,
                    delivered_bits: self.counters.chunks_delivered as f64 * chunk_bits,
                });
            }
            if let Some(rt) = self.receivers.get(&flow) {
                if !was_complete {
                    if let Some(done) = rt.stats.completed_at {
                        probes.flow_end(&FlowEnd {
                            time: now,
                            flow,
                            delivered_bits: rt.stats.chunks_delivered as f64 * chunk_bits,
                            fct_secs: done.duration_since(rt.stats.started_at).as_secs_f64(),
                        });
                    }
                }
            }
        }
    }

    fn rx_check(&mut self, eng: &mut Engine<Ev>, now: SimTime, flow: FlowId) {
        // AIMD flows time out on their own RTO; INRPP on the receiver timer
        let timeout = match self.flows.get(&flow).map(|f| f.kind) {
            Some(FlowTransport::Aimd) => AIMD_RTO,
            _ => RECEIVER_TIMEOUT,
        };
        let Some(rt) = self.receivers.get_mut(&flow) else {
            return;
        };
        if rt.stats.completed_at.is_some() {
            return; // done: stop checking
        }
        let expired: Vec<ChunkNo> = rt
            .outstanding
            .iter()
            .filter(|&(_, &dl)| dl <= now)
            .map(|(&c, _)| c)
            .collect();
        let mut reqs = Vec::new();
        if !expired.is_empty() {
            if let ReceiverKind::Aimd(r) = &mut rt.kind {
                // one loss event per check: multiplicative decrease
                r.ssthresh = (r.cwnd / 2.0).max(2.0);
                r.cwnd = 1.0;
            }
            for c in expired {
                rt.stats.retransmits += 1;
                rt.outstanding.insert(c, now + timeout);
                reqs.push(Request {
                    next: c,
                    ack: None,
                    anticipated: c,
                });
            }
        }
        for req in reqs {
            // retransmission: sender must resend even though its window
            // already advanced past this chunk
            self.queue_retransmit(eng, now, flow, req.anticipated);
        }
        eng.schedule(timeout / 2, Ev::RxCheck(flow));
    }

    fn queue_retransmit(
        &mut self,
        eng: &mut Engine<Ev>,
        _now: SimTime,
        flow: FlowId,
        chunk: ChunkNo,
    ) {
        let src = self.flows[&flow].spec.src;
        self.retransmit
            .entry(src)
            .or_default()
            .push_back((flow, chunk));
        self.schedule_kick(eng, src, SimDuration::ZERO);
    }

    // ---- sender ----------------------------------------------------------

    fn sender_kick(&mut self, eng: &mut Engine<Ev>, now: SimTime, node: NodeId) {
        self.kick_scheduled.remove(&node);
        // pacing: keep each access channel's backlog under a few chunks
        let pace = self.cfg.chunk_bytes.as_bits() as f64 * 4.0;
        let mut blocked_drain: Option<SimTime> = None;
        // retransmissions first
        while let Some(&(flow, chunk)) = self.retransmit.get(&node).and_then(|q| q.front()) {
            let first_hop = self.flows[&flow].route[1];
            let d = self.dir_between(node, first_hop);
            if self.channels[d].backlog_bits(now) > pace {
                blocked_drain = Some(self.channels[d].drain_time(SimDuration::ZERO));
                break;
            }
            self.retransmit.get_mut(&node).expect("checked").pop_front();
            self.emit_chunk(eng, now, flow, chunk);
        }
        // fresh chunks, processor sharing across flows
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 10_000 {
                break; // paranoid bound; pacing normally stops the loop
            }
            let topo = self.topo;
            let channels = &self.channels;
            let local = &self.local_idx;
            let flows = &self.flows;
            let Some(sender) = self.senders.get_mut(&node) else {
                break;
            };
            let next = sender.next_chunk_where(|f| {
                let first_hop = flows[&f].route[1];
                let l = topo
                    .link_between(node, first_hop)
                    .expect("route hops are links");
                let d = DirIndex::new(l, topo.link(l).a == node).0;
                let _ = local;
                channels[d].backlog_bits(SimTime::ZERO + (now - SimTime::ZERO)) <= pace
            });
            match next {
                Some((flow, chunk)) => {
                    self.emit_chunk(eng, now, flow, chunk);
                }
                None => {
                    // nothing admissible; if flows still have data, retry
                    // when the busiest access channel drains
                    if self.senders.get(&node).is_some_and(|s| s.has_eligible()) {
                        let t = self
                            .flows
                            .values()
                            .filter(|f| f.spec.src == node)
                            .map(|f| {
                                let d = self.dir_between(node, f.route[1]);
                                self.channels[d].drain_time(SimDuration::ZERO)
                            })
                            .min()
                            .unwrap_or(now);
                        blocked_drain = Some(blocked_drain.map_or(t, |b| b.min(t)));
                    }
                    break;
                }
            }
        }
        if let Some(t) = blocked_drain {
            let t = t.max(now + SimDuration::from_micros(10));
            if self.kick_scheduled.insert(node) {
                eng.schedule_at(t, Ev::SenderKick(node)).expect("future");
            }
        }
    }

    // ---- custody drain -----------------------------------------------------

    fn custody_drain(&mut self, eng: &mut Engine<Ev>, now: SimTime, node: NodeId, d: usize) {
        self.drain_scheduled.remove(&d);
        let threshold = DETOUR_QUEUE_THRESHOLD;
        loop {
            if self.channels[d].queue_delay(now) > threshold {
                break;
            }
            let Some(flows) = self.drain_reg.get_mut(&d) else {
                return;
            };
            // lowest flow id first: deterministic round across flows as
            // each pop re-checks the set
            let Some(&flow) = flows.iter().next() else {
                self.drain_reg.remove(&d);
                return;
            };
            match self.custody[node.idx()].pop_next(flow) {
                Some((chunk, _)) => {
                    let route = self
                        .resume_routes
                        .get(&(node, flow))
                        .expect("custodied flows have resume routes")
                        .clone();
                    let pkt = Packet::Data {
                        flow,
                        chunk,
                        route,
                        hop: 0,
                        hops_travelled: 0, // custody resets the local count
                        detoured: true,
                        sent_at: now,
                    };
                    self.forward_data(eng, now, pkt);
                }
                None => {
                    flows.remove(&flow);
                    self.resume_routes.remove(&(node, flow));
                    continue;
                }
            }
        }
        // still work left: reschedule at the drain instant
        let has_work = self.drain_reg.get(&d).is_some_and(|f| !f.is_empty());
        if has_work && self.drain_scheduled.insert(d) {
            let t = self.channels[d]
                .drain_time(threshold)
                .max(now + SimDuration::from_micros(100));
            eng.schedule_at(t, Ev::CustodyDrain { node, dir: d })
                .expect("future");
        }
    }

    // ---- maintenance tick -------------------------------------------------

    fn tick(&mut self, eng: &mut Engine<Ev>, now: SimTime, node: NodeId) {
        let Some(ic) = self.inrpp_cfg else { return };
        self.estimators[node.idx()].maybe_roll(now);
        self.bp[node.idx()].cleanup(now);
        let neighbors: Vec<(NodeId, usize)> = self
            .topo
            .neighbors(node)
            .iter()
            .map(|&(nb, l)| (nb, DirIndex::new(l, self.topo.link(l).a == node).0))
            .collect();
        for (li, &(nb, d)) in neighbors.iter().enumerate() {
            // gossip our residuals onto the shared board (simplified
            // zero-cost advertisement, see module docs)
            let residual = self.channels[d].residual_rate(now, ic.interval);
            self.loads.advertise(now, node, nb, residual);
            let link = DirIndex(d).link();
            let detour_available = self
                .selector
                .as_ref()
                .is_some_and(|s| !s.candidates(self.topo, link, node, nb).is_empty());
            let inputs = PhaseInputs {
                anticipated: self.estimators[node.idx()].anticipated_rate(li),
                capacity: self.channels[d].rate(),
                detour_available,
                cache_fill: self.custody[node.idx()].fill_fraction(),
            };
            self.phases[node.idx()][li].update(inputs);
        }
        eng.schedule(ic.interval, Ev::Tick(node));
    }

    // ---- slowdown handling --------------------------------------------------

    fn on_slowdown(
        &mut self,
        eng: &mut Engine<Ev>,
        now: SimTime,
        msg: SlowdownMsg,
        flow: FlowId,
        at: NodeId,
    ) {
        let ttl = BACKPRESSURE_TTL;
        self.bp[at.idx()].apply(now, &msg, ttl);
        let spec = self.flows[&flow].spec;
        if at == spec.src {
            // the sender: enter the closed loop for this flow (§3.2)
            if let Some(s) = self.senders.get_mut(&at) {
                s.set_mode(flow, SenderMode::ClosedLoop);
            }
            eng.schedule(ttl, Ev::BpExpire { node: at, flow });
            return;
        }
        // otherwise: propagate one hop further upstream along the flow route
        let route = &self.flows[&flow].route;
        if let Some(pos) = route.iter().position(|&n| n == at) {
            if pos > 0 {
                let upstream = route[pos - 1];
                let d = self.dir_between(at, upstream);
                let arrival = now + self.channels[d].delay();
                self.counters.backpressure_msgs += 1;
                let idx = self.stash(Packet::Slowdown {
                    msg: msg.propagated(),
                    flow,
                });
                eng.schedule_at(arrival, Ev::Deliver(idx)).expect("future");
            }
        }
    }

    fn bp_expire(&mut self, eng: &mut Engine<Ev>, _now: SimTime, node: NodeId, flow: FlowId) {
        let is_inrpp = self.is_inrpp(flow);
        if let Some(s) = self.senders.get_mut(&node) {
            // only INRPP flows leave the closed loop again; AIMD flows are
            // permanently request-clocked
            if is_inrpp {
                s.set_mode(flow, SenderMode::PushData);
            }
        }
        self.schedule_kick(eng, node, SimDuration::ZERO);
    }

    // ---- main loop ----------------------------------------------------------

    pub(crate) fn run(mut self, probes: &mut ProbeSet<'_, '_>) -> PacketSimReport {
        let horizon = SimTime::ZERO + self.cfg.horizon;
        let mut eng: Engine<Ev> = Engine::new().with_horizon(horizon);
        let flow_ids: Vec<FlowId> = self.flows.keys().copied().collect();
        for f in &flow_ids {
            let start = self.flows[f].spec.start;
            eng.schedule_at(start, Ev::Start(*f))
                .expect("start in window");
        }
        if self.inrpp_cfg.is_some() {
            for n in self.topo.node_ids() {
                eng.schedule(SimDuration::ZERO, Ev::Tick(n));
            }
        }
        // cannot borrow self in closure and call methods: drive manually
        while let Some((now, ev)) = eng.next() {
            match ev {
                Ev::Start(f) => {
                    self.start_flow(&mut eng, now, f);
                    // the sender may already have push-ahead work
                    let src = self.flows[&f].spec.src;
                    self.schedule_kick(&mut eng, src, SimDuration::ZERO);
                    if !probes.is_empty() {
                        let spec = self.flows[&f].spec;
                        probes.flow_start(&FlowStart {
                            time: now,
                            flow: f,
                            src: spec.src,
                            dst: spec.dst,
                            size_bits: spec.chunks as f64 * self.cfg.chunk_bytes.as_bits() as f64,
                            subpaths: 1,
                        });
                    }
                }
                Ev::SenderKick(n) => self.sender_kick(&mut eng, now, n),
                Ev::Tick(n) => self.tick(&mut eng, now, n),
                Ev::RxCheck(f) => self.rx_check(&mut eng, now, f),
                Ev::CustodyDrain { node, dir } => self.custody_drain(&mut eng, now, node, dir),
                Ev::BpExpire { node, flow } => self.bp_expire(&mut eng, now, node, flow),
                Ev::Deliver(idx) => {
                    let pkt = self.in_flight[idx as usize]
                        .take()
                        .expect("packet delivered twice");
                    match pkt {
                        Packet::Request {
                            flow,
                            req,
                            route,
                            hop,
                        } => {
                            let here = route[hop];
                            if hop + 1 == route.len() {
                                // reached the sender
                                if let Some(s) = self.senders.get_mut(&here) {
                                    s.on_request(flow, req);
                                }
                                self.schedule_kick(&mut eng, here, SimDuration::ZERO);
                            } else {
                                self.forward_request(
                                    &mut eng,
                                    now,
                                    Packet::Request {
                                        flow,
                                        req,
                                        route,
                                        hop,
                                    },
                                    1,
                                );
                            }
                        }
                        Packet::Data {
                            flow,
                            chunk,
                            route,
                            hop,
                            hops_travelled,
                            detoured,
                            sent_at,
                        } => {
                            if hop + 1 == route.len() {
                                self.deliver_to_receiver(&mut eng, now, flow, chunk, probes);
                            } else {
                                self.forward_data(
                                    &mut eng,
                                    now,
                                    Packet::Data {
                                        flow,
                                        chunk,
                                        route,
                                        hop,
                                        hops_travelled,
                                        detoured,
                                        sent_at,
                                    },
                                );
                            }
                        }
                        Packet::Slowdown { msg, flow } => {
                            // delivered to the upstream node: figure out who
                            // we are from the flow route relative to origin
                            let route = self.flows[&flow].route.clone();
                            let origin_pos = route.iter().position(|&n| n == msg.origin);
                            let at = origin_pos
                                .and_then(|p| p.checked_sub(1 + msg.hops_travelled as usize))
                                .map(|p| route[p]);
                            if let Some(at) = at {
                                self.on_slowdown(&mut eng, now, msg, flow, at);
                            }
                        }
                    }
                }
            }
        }

        // assemble the report
        let horizon_d = self.cfg.horizon;
        let channel_utilisation: Vec<f64> = self
            .channels
            .iter()
            .map(|c| c.utilisation(horizon_d))
            .collect();
        let mean_utilisation = if channel_utilisation.is_empty() {
            0.0
        } else {
            channel_utilisation.iter().sum::<f64>() / channel_utilisation.len() as f64
        };
        let mut flows: Vec<FlowStats> = Vec::new();
        for (f, rt) in &self.receivers {
            let _ = f;
            flows.push(rt.stats.clone());
        }
        // flows that never started still appear with zero progress
        for (fid, rt) in &self.flows {
            if !self.receivers.contains_key(fid) {
                flows.push(FlowStats {
                    flow: *fid,
                    chunks_total: rt.spec.chunks,
                    chunks_delivered: 0,
                    started_at: rt.spec.start,
                    completed_at: None,
                    retransmits: 0,
                    max_reorder_distance: 0,
                    detours: 0,
                    custody_rescues: 0,
                    outage_delay: SimDuration::ZERO,
                });
            }
        }
        flows.sort_by_key(|f| f.flow);
        PacketSimReport {
            transport: match (self.inrpp_cfg.is_some(), self.aimd_cfg.is_some()) {
                (true, true) => "MIXED".into(),
                (true, false) => "INRPP".into(),
                _ => "AIMD".into(),
            },
            topology: self.topo.name().to_string(),
            horizon: horizon_d,
            flows,
            chunks_delivered: self.counters.chunks_delivered,
            chunks_dropped: self.counters.chunks_dropped,
            chunks_detoured: self.counters.chunks_detoured,
            chunks_custodied: self.counters.chunks_custodied,
            chunks_rescued: 0,
            backpressure_msgs: self.counters.backpressure_msgs,
            custody_peak: self.custody_peak,
            mean_utilisation,
            channel_utilisation,
            channel_bits_sent: self.channels.iter().map(|c| c.bits_sent()).collect(),
            chunk_bytes: self.cfg.chunk_bytes,
            phase_transitions: self.phases.iter().flatten().map(|c| c.transitions()).sum(),
        }
    }
}
