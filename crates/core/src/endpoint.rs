//! End-point node models (§3.2).
//!
//! **Receivers** request at the application rate with a constant
//! anticipation window: the request packet format is `⟨Nc, ACKc, Ac⟩` —
//! next chunk needed, latest chunk acknowledged, last anticipated chunk.
//! After start-up the receiver clocks one new request out per data chunk
//! in, so the request rate self-adjusts to the delivery rate.
//!
//! **Senders** keep per-flow state and run in one of two modes:
//! *push-data* (open loop: send everything covered by requests plus a
//! push-ahead of anticipated chunks, multiplexing flows processor-sharing
//! style) or *closed-loop* (exact 1-to-1 request/data balance, entered on
//! back-pressure). Processor sharing is realised as chunk-grain round-robin
//! over eligible flows.

use std::collections::{BTreeMap, VecDeque};

/// Flow identity.
pub type FlowId = u64;
/// Chunk sequence number.
pub type ChunkNo = u64;

/// The paper's request packet `⟨Nc, ACKc, Ac⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// `Nc`: the next chunk the application needs.
    pub next: ChunkNo,
    /// `ACKc`: latest chunk received, if any.
    pub ack: Option<ChunkNo>,
    /// `Ac`: the last anticipated chunk covered by this request.
    pub anticipated: ChunkNo,
}

/// Outcome of delivering one chunk to a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverOutput {
    /// Request to send upstream (pipeline advance), if the transfer still
    /// needs more chunks.
    pub request: Option<Request>,
    /// The transfer just finished with this chunk.
    pub completed: bool,
    /// The chunk was a duplicate (already delivered).
    pub duplicate: bool,
}

/// Received-chunk bitset with a cached in-order watermark, shared by the
/// INRPP [`Receiver`] and the packet engine's AIMD receiver.
///
/// The watermark only ever grows, so a flow's deliveries cost linear time
/// in all. The words grow with the highest chunk inserted, not with a
/// flow's declared size, so declaring more chunks than a run can deliver
/// costs no memory up front.
#[derive(Debug, Clone, Default)]
pub struct ChunkSet {
    words: Vec<u64>,
    count: u64,
    watermark: ChunkNo,
}

impl ChunkSet {
    fn contains(&self, chunk: ChunkNo) -> bool {
        self.words
            .get((chunk / 64) as usize)
            .is_some_and(|w| w & (1u64 << (chunk % 64)) != 0)
    }

    /// Insert `chunk`; `false` if it was already present.
    pub fn insert(&mut self, chunk: ChunkNo) -> bool {
        let w = (chunk / 64) as usize;
        let bit = 1u64 << (chunk % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.count += 1;
        while self.contains(self.watermark) {
            self.watermark += 1;
        }
        true
    }

    /// Number of chunks in the set.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// First chunk not in the set: every chunk below it is present.
    pub fn watermark(&self) -> ChunkNo {
        self.watermark
    }
}

/// Receiver-side state for one named-content transfer.
///
/// ```
/// use inrpp::endpoint::Receiver;
///
/// // a 100-chunk object requested with anticipation window A_c = 4
/// let mut rx = Receiver::new(100, 4);
/// let first = rx.initial_request();
/// assert_eq!((first.next, first.anticipated), (0, 4));
/// // each delivered chunk clocks out one new request — self-adjusting rate
/// let out = rx.on_chunk(0);
/// let req = out.request.unwrap();
/// assert_eq!(req.anticipated, 5);
/// assert_eq!(req.ack, Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct Receiver {
    total_chunks: u64,
    anticipation: u64,
    next_unrequested: ChunkNo,
    received: ChunkSet,
}

impl Receiver {
    /// A receiver for a `total_chunks`-long object with anticipation
    /// window `Ac = anticipation`.
    ///
    /// # Panics
    /// Panics if `total_chunks == 0`.
    pub fn new(total_chunks: u64, anticipation: u64) -> Self {
        assert!(total_chunks > 0, "a transfer needs at least one chunk");
        Receiver {
            total_chunks,
            anticipation,
            next_unrequested: 0,
            received: ChunkSet::default(),
        }
    }

    /// The start-up request covering `0..=Ac` (clamped to the object).
    /// Call exactly once; marks those chunks as requested.
    pub fn initial_request(&mut self) -> Request {
        assert_eq!(self.next_unrequested, 0, "initial_request called twice");
        let last = self.anticipation.min(self.total_chunks - 1);
        self.next_unrequested = last + 1;
        Request {
            next: 0,
            ack: None,
            anticipated: last,
        }
    }

    /// Deliver `chunk`; returns the pipeline reaction.
    pub fn on_chunk(&mut self, chunk: ChunkNo) -> ReceiverOutput {
        if chunk >= self.total_chunks || !self.received.insert(chunk) {
            return ReceiverOutput {
                request: None,
                completed: false,
                duplicate: true,
            };
        }
        let hc = self.received.watermark();
        let completed = self.received.count() == self.total_chunks;
        let request = if !completed && self.next_unrequested < self.total_chunks {
            let newly = self.next_unrequested;
            self.next_unrequested += 1;
            Some(Request {
                next: hc, // next chunk the application actually needs
                ack: Some(chunk),
                anticipated: newly,
            })
        } else {
            None
        };
        ReceiverOutput {
            request,
            completed,
            duplicate: false,
        }
    }

    /// Fraction of chunks delivered.
    pub fn progress(&self) -> f64 {
        self.received.count() as f64 / self.total_chunks as f64
    }

    /// All chunks delivered?
    pub fn is_complete(&self) -> bool {
        self.received.count() == self.total_chunks
    }

    /// Highest chunk number `h` such that `0..=h` are all delivered.
    pub fn highest_contiguous(&self) -> Option<ChunkNo> {
        self.received.watermark().checked_sub(1)
    }
}

/// Sender operating mode (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SenderMode {
    /// Open loop: push requested + anticipated data at link speed.
    #[default]
    PushData,
    /// Closed loop after back-pressure: 1-to-1 request/data balance.
    ClosedLoop,
}

#[derive(Debug, Clone)]
struct SenderFlow {
    total_chunks: u64,
    highest_requested: Option<ChunkNo>,
    next_to_send: ChunkNo,
    mode: SenderMode,
}

impl SenderFlow {
    /// Highest chunk this flow may currently emit.
    fn send_limit(&self, push_ahead: u64) -> Option<ChunkNo> {
        let hr = self.highest_requested?;
        let limit = match self.mode {
            SenderMode::PushData => hr.saturating_add(push_ahead),
            SenderMode::ClosedLoop => hr,
        };
        Some(limit.min(self.total_chunks - 1))
    }

    fn eligible(&self, push_ahead: u64) -> bool {
        match self.send_limit(push_ahead) {
            Some(limit) => self.next_to_send <= limit,
            None => false,
        }
    }
}

/// Sender-side state: per-flow windows plus the processor-sharing
/// round-robin scheduler.
#[derive(Debug, Clone, Default)]
pub struct Sender {
    flows: BTreeMap<FlowId, SenderFlow>,
    rr: VecDeque<FlowId>,
    push_ahead: u64,
}

impl Sender {
    /// A sender that pushes up to `push_ahead` chunks beyond the highest
    /// explicit request while in push-data mode (the paper's "anticipated
    /// data (data not explicitly requested yet)"; 0 disables push-ahead).
    pub fn new(push_ahead: u64) -> Self {
        Sender {
            push_ahead,
            ..Default::default()
        }
    }

    /// Register a flow serving a `total_chunks`-long object.
    ///
    /// # Panics
    /// Panics on duplicate registration or a zero-length object.
    pub fn register(&mut self, flow: FlowId, total_chunks: u64) {
        assert!(total_chunks > 0, "a transfer needs at least one chunk");
        let prev = self.flows.insert(
            flow,
            SenderFlow {
                total_chunks,
                highest_requested: None,
                next_to_send: 0,
                mode: SenderMode::PushData,
            },
        );
        assert!(prev.is_none(), "flow {flow} registered twice");
        self.rr.push_back(flow);
    }

    /// Process a request packet for `flow`.
    pub fn on_request(&mut self, flow: FlowId, req: Request) {
        let Some(f) = self.flows.get_mut(&flow) else {
            return; // a request for a flow this sender never registered: ignore
        };
        let hr = f
            .highest_requested
            .map_or(req.anticipated, |h| h.max(req.anticipated));
        f.highest_requested = Some(hr.min(f.total_chunks - 1));
    }

    /// Switch `flow`'s mode (back-pressure entry/exit).
    pub fn set_mode(&mut self, flow: FlowId, mode: SenderMode) {
        if let Some(f) = self.flows.get_mut(&flow) {
            f.mode = mode;
        }
    }

    /// Processor-sharing scheduler: pick the next `(flow, chunk)` to emit,
    /// round-robin over flows that currently have something to send.
    /// `None` when no flow is eligible (all windows exhausted).
    pub fn next_chunk(&mut self) -> Option<(FlowId, ChunkNo)> {
        self.next_chunk_where(|_| true)
    }

    /// Like [`Sender::next_chunk`], but skips flows for which `admit`
    /// returns false (e.g. their access channel is currently backlogged).
    /// Skipped flows keep their window state untouched.
    pub fn next_chunk_where(
        &mut self,
        mut admit: impl FnMut(FlowId) -> bool,
    ) -> Option<(FlowId, ChunkNo)> {
        for _ in 0..self.rr.len() {
            let flow = *self.rr.front().expect("rr non-empty in loop");
            self.rr.rotate_left(1);
            let Some(f) = self.flows.get_mut(&flow) else {
                continue;
            };
            if f.eligible(self.push_ahead) && admit(flow) {
                let chunk = f.next_to_send;
                f.next_to_send += 1;
                return Some((flow, chunk));
            }
        }
        None
    }

    /// True when some flow has chunks it may emit right now.
    pub fn has_eligible(&self) -> bool {
        self.flows.values().any(|f| f.eligible(self.push_ahead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_initial_request_covers_window() {
        let mut r = Receiver::new(100, 4);
        let req = r.initial_request();
        assert_eq!(
            req,
            Request {
                next: 0,
                ack: None,
                anticipated: 4
            }
        );
    }

    #[test]
    fn receiver_window_clamps_to_object() {
        let mut r = Receiver::new(3, 10);
        let req = r.initial_request();
        assert_eq!(req.anticipated, 2);
        // all chunks already requested: no further requests
        assert_eq!(r.on_chunk(0).request, None);
    }

    #[test]
    fn receiver_pipeline_one_request_per_chunk() {
        let mut r = Receiver::new(10, 2);
        let _ = r.initial_request(); // 0,1,2 requested
        let out = r.on_chunk(0);
        assert!(!out.duplicate && !out.completed);
        let req = out.request.unwrap();
        assert_eq!(req.anticipated, 3, "next unrequested chunk");
        assert_eq!(req.ack, Some(0));
        assert_eq!(req.next, 1, "application needs chunk 1 next");
        let req2 = r.on_chunk(1).request.unwrap();
        assert_eq!(req2.anticipated, 4);
    }

    #[test]
    fn receiver_out_of_order_tracks_watermark() {
        let mut r = Receiver::new(5, 1);
        let _ = r.initial_request(); // 0,1
        let out = r.on_chunk(1); // out of order
        assert_eq!(r.highest_contiguous(), None);
        assert_eq!(out.request.unwrap().next, 0, "still needs chunk 0");
        let out = r.on_chunk(0);
        assert_eq!(r.highest_contiguous(), Some(1));
        assert_eq!(out.request.unwrap().next, 2);
    }

    #[test]
    fn receiver_completion() {
        let mut r = Receiver::new(3, 0);
        let req = r.initial_request();
        assert_eq!(req.anticipated, 0);
        assert!(!r.on_chunk(0).completed);
        assert!(!r.on_chunk(1).completed);
        let out = r.on_chunk(2);
        assert!(out.completed);
        assert!(r.is_complete());
        assert_eq!(out.request, None);
        assert!((r.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn receiver_duplicates_and_garbage_flagged() {
        let mut r = Receiver::new(3, 1);
        let _ = r.initial_request();
        assert!(!r.on_chunk(0).duplicate);
        assert!(r.on_chunk(0).duplicate);
        assert!(
            r.on_chunk(99).duplicate,
            "out-of-range chunk treated as dup"
        );
    }

    #[test]
    #[should_panic(expected = "called twice")]
    fn initial_request_only_once() {
        let mut r = Receiver::new(3, 1);
        let _ = r.initial_request();
        let _ = r.initial_request();
    }

    #[test]
    fn sender_respects_request_window_in_closed_loop() {
        let mut s = Sender::new(4);
        s.register(1, 100);
        s.set_mode(1, SenderMode::ClosedLoop);
        assert_eq!(s.next_chunk(), None, "nothing requested yet");
        s.on_request(
            1,
            Request {
                next: 0,
                ack: None,
                anticipated: 2,
            },
        );
        assert_eq!(s.next_chunk(), Some((1, 0)));
        assert_eq!(s.next_chunk(), Some((1, 1)));
        assert_eq!(s.next_chunk(), Some((1, 2)));
        assert_eq!(s.next_chunk(), None, "closed loop: 1-to-1 balance");
    }

    #[test]
    fn sender_push_ahead_in_open_loop() {
        let mut s = Sender::new(3);
        s.register(1, 100);
        s.on_request(
            1,
            Request {
                next: 0,
                ack: None,
                anticipated: 0,
            },
        );
        let mut sent = Vec::new();
        while let Some((_, c)) = s.next_chunk() {
            sent.push(c);
        }
        // requested chunk 0 + push-ahead of 3
        assert_eq!(sent, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sender_round_robin_is_processor_sharing() {
        let mut s = Sender::new(0);
        s.register(1, 10);
        s.register(2, 10);
        for f in [1, 2] {
            s.on_request(
                f,
                Request {
                    next: 0,
                    ack: None,
                    anticipated: 5,
                },
            );
        }
        let order: Vec<FlowId> = (0..6).map(|_| s.next_chunk().unwrap().0).collect();
        // strict alternation between the two backlogged flows
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn sender_skips_exhausted_flows() {
        let mut s = Sender::new(0);
        s.register(1, 2);
        s.register(2, 10);
        s.on_request(
            1,
            Request {
                next: 0,
                ack: None,
                anticipated: 9,
            },
        );
        s.on_request(
            2,
            Request {
                next: 0,
                ack: None,
                anticipated: 9,
            },
        );
        let mut count1 = 0;
        let mut count2 = 0;
        while let Some((f, _)) = s.next_chunk() {
            if f == 1 {
                count1 += 1;
            } else {
                count2 += 1;
            }
        }
        assert_eq!(count1, 2, "flow 1 only has 2 chunks");
        assert_eq!(count2, 10);
    }

    #[test]
    fn sender_mode_switch_takes_effect() {
        let mut s = Sender::new(5);
        s.register(1, 100);
        s.on_request(
            1,
            Request {
                next: 0,
                ack: None,
                anticipated: 0,
            },
        );
        // push-data allows 0..=5
        assert_eq!(s.next_chunk(), Some((1, 0)));
        s.set_mode(1, SenderMode::ClosedLoop);
        // closed loop: only chunk 0 was requested and it is already sent
        assert_eq!(s.next_chunk(), None);
    }

    #[test]
    fn sender_ignores_requests_for_unregistered_flows() {
        let mut s = Sender::new(0);
        s.register(2, 5);
        s.on_request(
            1,
            Request {
                next: 0,
                ack: None,
                anticipated: 1,
            },
        );
        assert_eq!(s.next_chunk(), None, "stale requests ignored");
    }

    #[test]
    fn requests_never_extend_past_object_end() {
        let mut s = Sender::new(0);
        s.register(1, 3);
        s.on_request(
            1,
            Request {
                next: 0,
                ack: None,
                anticipated: 500,
            },
        );
        let mut sent = Vec::new();
        while let Some((_, c)) = s.next_chunk() {
            sent.push(c);
        }
        assert_eq!(sent, vec![0, 1, 2]);
    }

    #[test]
    fn next_chunk_where_skips_unadmitted_flows() {
        let mut s = Sender::new(0);
        s.register(1, 10);
        s.register(2, 10);
        for f in [1, 2] {
            s.on_request(
                f,
                Request {
                    next: 0,
                    ack: None,
                    anticipated: 9,
                },
            );
        }
        assert!(s.has_eligible());
        // flow 1's channel is "busy": only flow 2 gets served
        for expect in 0..3 {
            let (f, c) = s.next_chunk_where(|f| f == 2).unwrap();
            assert_eq!((f, c), (2, expect));
        }
        // flow 1's window is untouched
        assert_eq!(s.next_chunk_where(|f| f == 1), Some((1, 0)));
        // nobody admitted: None, windows untouched
        assert_eq!(s.next_chunk_where(|_| false), None);
        assert_eq!(s.next_chunk(), Some((2, 3)));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut s = Sender::new(0);
        s.register(1, 5);
        s.register(1, 5);
    }
}
