//! Workload sources: where service-mode traffic comes from.
//!
//! A [`WorkloadSource`] yields [`Transfer`]s in nondecreasing `start`
//! order; [`pump`] drains one into a live
//! [`ServiceSession`], feeding every
//! transfer due by the requested boundary and then advancing the clock.
//! Three sources cover the operating modes:
//!
//! * [`SyntheticSource`] — the existing workload generators
//!   ([`WorkloadConfig`]) as a streaming source;
//! * [`TraceSource`] — recorded traces in the `# inrpp-trace v1` text
//!   format, read line by line (streaming ingestion: the whole trace is
//!   never materialised);
//! * [`FeedSource`] — a programmatic queue for embedding.
//!
//! # Trace format (`# inrpp-trace v1`)
//!
//! Plain text. The first non-blank line must be the header
//! `# inrpp-trace v1`. Every other line is either blank, a `#` comment,
//! or one arrival:
//!
//! ```text
//! # inrpp-trace v1
//! # start_secs flow src dst chunks chunk_bytes
//! 0.0   1 1 4 800 1250
//! 0.5   2 1 3 400 1250
//! ```
//!
//! `src`/`dst` are node *names* in the session topology. `start_secs`
//! must be nondecreasing down the file and parse to a representable
//! simulation time (violations surface as typed
//! [`SessionError::InvalidConfig`] with the line number, via the same
//! `TimeError` conversion the builder uses). [`format_trace`] writes
//! the symmetric output.

use std::collections::VecDeque;
use std::io::BufRead;

use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::graph::Topology;

use crate::service::ServiceSession;
use crate::session::{Probe, SessionError, Transfer, Workload, WorkloadConfig};

/// The trace header every `# inrpp-trace v1` file starts with.
pub const TRACE_HEADER: &str = "# inrpp-trace v1";

/// A stream of transfers in nondecreasing `start` order.
pub trait WorkloadSource {
    /// The next transfer without consuming it (`None` when exhausted).
    /// Repeated calls return the same transfer until [`pop`] is called.
    ///
    /// [`pop`]: WorkloadSource::pop
    fn peek(&mut self) -> Result<Option<Transfer>, SessionError>;

    /// Consume the transfer last returned by [`peek`].
    ///
    /// [`peek`]: WorkloadSource::peek
    fn pop(&mut self);
}

/// Feed every transfer due at or before `to` into `session`, then
/// advance it to `to`. Feeding happens *before* the clock moves, so a
/// transfer starting anywhere in `(now, to]` is scheduled exactly as if
/// it had been known up front — the determinism contract is over the
/// boundary schedule, and a checkpoint taken at any boundary resumes
/// compatibly with [`skip_until`].
pub fn pump(
    source: &mut dyn WorkloadSource,
    session: &mut dyn ServiceSession,
    to: SimTime,
    probes: &mut [&mut dyn Probe],
) -> Result<SimTime, SessionError> {
    while let Some(t) = source.peek()? {
        if t.start > to {
            break;
        }
        session.feed(&t)?;
        source.pop();
    }
    session.advance(to, probes)
}

/// Discard every transfer with `start <= t` — exactly the set [`pump`]
/// has already fed by the time the clock reached boundary `t`. Call
/// this on a freshly opened source before resuming a checkpoint taken
/// at `t`. Returns how many transfers were skipped.
pub fn skip_until(source: &mut dyn WorkloadSource, t: SimTime) -> Result<usize, SessionError> {
    let mut skipped = 0;
    while let Some(next) = source.peek()? {
        if next.start > t {
            break;
        }
        source.pop();
        skipped += 1;
    }
    Ok(skipped)
}

// ===================================================================
// FeedSource
// ===================================================================

/// A programmatic source: push transfers, the service pulls them.
#[derive(Debug, Clone, Default)]
pub struct FeedSource {
    queue: VecDeque<Transfer>,
}

impl FeedSource {
    /// An empty queue.
    pub fn new() -> Self {
        FeedSource::default()
    }

    /// Append a transfer. Starts must be pushed in nondecreasing order
    /// (the [`WorkloadSource`] contract); out-of-order pushes are
    /// rejected so the error surfaces at the push site, not later
    /// inside an engine.
    pub fn push(&mut self, t: Transfer) -> Result<(), SessionError> {
        if let Some(last) = self.queue.back() {
            if t.start < last.start {
                return Err(SessionError::InvalidTransfer(format!(
                    "flow {} starts at {:?}, before the previously queued {:?}",
                    t.flow, t.start, last.start
                )));
            }
        }
        self.queue.push_back(t);
        Ok(())
    }

    /// Transfers still queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl WorkloadSource for FeedSource {
    fn peek(&mut self) -> Result<Option<Transfer>, SessionError> {
        Ok(self.queue.front().copied())
    }

    fn pop(&mut self) {
        self.queue.pop_front();
    }
}

// ===================================================================
// SyntheticSource
// ===================================================================

/// The synthetic workload generators as a source: generates the
/// workload up front (deterministic in `(config, horizon, seed)`,
/// exactly as [`crate::session::SessionBuilder::workload_config`]
/// would) and streams it in arrival order, quantised to whole chunks.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    transfers: VecDeque<Transfer>,
}

impl SyntheticSource {
    /// Generate the arrival stream.
    pub fn new(
        topo: &Topology,
        config: &WorkloadConfig,
        horizon: SimDuration,
        seed: u64,
        chunk_bytes: ByteSize,
    ) -> Result<Self, SessionError> {
        let workload = Workload::try_generate(topo, config, horizon, seed)?;
        let mut transfers: Vec<Transfer> = workload
            .flows
            .iter()
            .map(|f| {
                Transfer::for_object_bits(f.id, f.src, f.dst, f.size_bits, chunk_bytes, f.arrival)
            })
            .collect();
        // generators emit in arrival order already; make the source
        // contract unconditional (stable key: start, then id)
        transfers.sort_by_key(|t| (t.start, t.flow));
        Ok(SyntheticSource {
            transfers: transfers.into(),
        })
    }

    /// Arrivals remaining.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// True when the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }
}

impl WorkloadSource for SyntheticSource {
    fn peek(&mut self) -> Result<Option<Transfer>, SessionError> {
        Ok(self.transfers.front().copied())
    }

    fn pop(&mut self) {
        self.transfers.pop_front();
    }
}

// ===================================================================
// TraceSource
// ===================================================================

/// A recorded-trace source: parses `# inrpp-trace v1` text line by
/// line. Node names resolve against the topology given at construction;
/// every malformed line is a typed error carrying its line number.
pub struct TraceSource<'t, R> {
    topo: &'t Topology,
    reader: R,
    line_no: usize,
    header_seen: bool,
    last_start: SimTime,
    pending: Option<Transfer>,
    done: bool,
}

impl<'t, R: BufRead> TraceSource<'t, R> {
    /// Wrap a reader producing trace text.
    pub fn new(topo: &'t Topology, reader: R) -> Self {
        TraceSource {
            topo,
            reader,
            line_no: 0,
            header_seen: false,
            last_start: SimTime::ZERO,
            pending: None,
            done: false,
        }
    }

    fn bad(&self, what: impl std::fmt::Display) -> SessionError {
        SessionError::InvalidConfig(format!("trace line {}: {what}", self.line_no))
    }

    fn parse_line(&self, line: &str) -> Result<Transfer, SessionError> {
        let mut fields = line.split_whitespace();
        let mut next = |name: &str| {
            fields
                .next()
                .ok_or_else(|| self.bad(format_args!("missing field `{name}`")))
        };
        let start_secs: f64 = next("start_secs")?
            .parse()
            .map_err(|e| self.bad(format_args!("bad start_secs: {e}")))?;
        let flow: u64 = next("flow")?
            .parse()
            .map_err(|e| self.bad(format_args!("bad flow id: {e}")))?;
        let src_name = next("src")?;
        let dst_name = next("dst")?;
        let chunks: u64 = next("chunks")?
            .parse()
            .map_err(|e| self.bad(format_args!("bad chunk count: {e}")))?;
        let chunk_bytes: u64 = next("chunk_bytes")?
            .parse()
            .map_err(|e| self.bad(format_args!("bad chunk_bytes: {e}")))?;
        if let Some(extra) = fields.next() {
            return Err(self.bad(format_args!("unexpected trailing field `{extra}`")));
        }
        // negative / non-finite / out-of-range times surface as the
        // same typed error the session builder produces
        let start = SimTime::ZERO
            + SimDuration::try_from_secs_f64(start_secs)
                .map_err(|e| self.bad(format_args!("bad start_secs: {e}")))?;
        let src = self
            .topo
            .node_by_name(src_name)
            .ok_or_else(|| self.bad(format_args!("unknown node `{src_name}`")))?;
        let dst = self
            .topo
            .node_by_name(dst_name)
            .ok_or_else(|| self.bad(format_args!("unknown node `{dst_name}`")))?;
        Ok(Transfer {
            flow,
            src,
            dst,
            chunks,
            chunk_bytes: ByteSize::bytes(chunk_bytes),
            start,
        })
    }

    fn fill(&mut self) -> Result<(), SessionError> {
        while self.pending.is_none() && !self.done {
            let mut line = String::new();
            self.line_no += 1;
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| self.bad(format_args!("read error: {e}")))?;
            if n == 0 {
                self.done = true;
                if !self.header_seen {
                    return Err(SessionError::InvalidConfig(format!(
                        "trace is empty (expected `{TRACE_HEADER}` header)"
                    )));
                }
                return Ok(());
            }
            let trimmed = line.trim();
            if !self.header_seen {
                if trimmed.is_empty() {
                    continue;
                }
                if trimmed != TRACE_HEADER {
                    return Err(self.bad(format_args!(
                        "expected `{TRACE_HEADER}` header, found `{trimmed}`"
                    )));
                }
                self.header_seen = true;
                continue;
            }
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let t = self.parse_line(trimmed)?;
            if t.start < self.last_start {
                return Err(self.bad(format_args!(
                    "starts must be nondecreasing ({:?} after {:?})",
                    t.start, self.last_start
                )));
            }
            self.last_start = t.start;
            self.pending = Some(t);
        }
        Ok(())
    }
}

impl<R: BufRead> WorkloadSource for TraceSource<'_, R> {
    fn peek(&mut self) -> Result<Option<Transfer>, SessionError> {
        self.fill()?;
        Ok(self.pending)
    }

    fn pop(&mut self) {
        self.pending = None;
    }
}

/// Render transfers as `# inrpp-trace v1` text — the inverse of
/// [`TraceSource`]. Starts are written with full float precision so a
/// round trip is exact.
pub fn format_trace(topo: &Topology, transfers: &[Transfer]) -> String {
    let mut out = String::from(TRACE_HEADER);
    out.push('\n');
    out.push_str("# start_secs flow src dst chunks chunk_bytes\n");
    for t in transfers {
        out.push_str(&format!(
            "{} {} {} {} {} {}\n",
            t.start.as_secs_f64(),
            t.flow,
            topo.node(t.src).name,
            topo.node(t.dst).name,
            t.chunks,
            t.chunk_bytes.as_bytes(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FluidBacking, FluidService};
    use crate::session::{Session, SessionStrategy};
    use inrpp_flowsim::workload::PairSelector;

    fn fig3_transfers(topo: &Topology) -> Vec<Transfer> {
        let n = |s: &str| topo.node_by_name(s).unwrap();
        vec![
            Transfer {
                flow: 1,
                src: n("1"),
                dst: n("4"),
                chunks: 800,
                chunk_bytes: ByteSize::bytes(1250),
                start: SimTime::ZERO,
            },
            Transfer {
                flow: 2,
                src: n("1"),
                dst: n("3"),
                chunks: 400,
                chunk_bytes: ByteSize::bytes(1250),
                start: SimTime::from_millis(500),
            },
        ]
    }

    #[test]
    fn trace_round_trips_exactly() {
        let topo = Topology::fig3();
        let transfers = fig3_transfers(&topo);
        let text = format_trace(&topo, &transfers);
        let mut src = TraceSource::new(&topo, text.as_bytes());
        let mut seen = Vec::new();
        while let Some(t) = src.peek().unwrap() {
            seen.push(t);
            src.pop();
        }
        assert_eq!(seen, transfers);
    }

    #[test]
    fn trace_errors_carry_line_numbers() {
        let topo = Topology::fig3();
        let check = |text: &str, needle: &str| {
            let mut src = TraceSource::new(&topo, text.as_bytes());
            let err = loop {
                match src.peek() {
                    Err(e) => break e,
                    Ok(None) => panic!("trace unexpectedly parsed: {text:?}"),
                    Ok(Some(_)) => src.pop(),
                }
            };
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        };
        check("", "header");
        check("# wrong header\n", "header");
        check("# inrpp-trace v1\n0.0 1 1\n", "missing field");
        check("# inrpp-trace v1\n0.0 1 1 4 10 1250 extra\n", "trailing");
        check("# inrpp-trace v1\nnope 1 1 4 10 1250\n", "start_secs");
        check("# inrpp-trace v1\n-1.0 1 1 4 10 1250\n", "non-negative");
        check("# inrpp-trace v1\n0.0 1 zz 4 10 1250\n", "unknown node");
        check(
            "# inrpp-trace v1\n2.0 1 1 4 10 1250\n1.0 2 1 3 10 1250\n",
            "nondecreasing",
        );
        // the line number points at the offending line
        check("# inrpp-trace v1\n\n0.0 1 1 4 10 1250\nbad\n", "line 4");
    }

    #[test]
    fn feed_source_enforces_order() {
        let topo = Topology::fig3();
        let ts = fig3_transfers(&topo);
        let mut src = FeedSource::new();
        src.push(ts[1]).unwrap();
        assert!(matches!(
            src.push(ts[0]).unwrap_err(),
            SessionError::InvalidTransfer(_)
        ));
        assert_eq!(src.len(), 1);
    }

    #[test]
    fn synthetic_source_matches_builder_generation() {
        let topo = Topology::fig3();
        let cfg = WorkloadConfig {
            arrival_rate: 20.0,
            mean_size_bits: 1e6,
            pairs: PairSelector::Uniform,
            ..WorkloadConfig::default()
        };
        let horizon = SimDuration::from_secs(2);
        let chunk = ByteSize::bytes(1250);
        let mut src = SyntheticSource::new(&topo, &cfg, horizon, 7, chunk).unwrap();
        let direct = Workload::try_generate(&topo, &cfg, horizon, 7).unwrap();
        assert_eq!(src.len(), direct.flows.len());
        let first = src.peek().unwrap().unwrap();
        assert_eq!(first.flow, direct.flows[0].id);
        // quantisation is the shared ceil rule
        let want = (direct.flows[0].size_bits / chunk.as_bits() as f64)
            .ceil()
            .max(1.0) as u64;
        assert_eq!(first.chunks, want);
    }

    #[test]
    fn pumped_trace_run_matches_upfront_session() {
        // driving a service from a trace == declaring the same transfers
        // up front, bit for bit
        let topo = Topology::fig3();
        let transfers = fig3_transfers(&topo);
        let upfront = Session::builder()
            .topology(&topo)
            .transfers(transfers.clone())
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(30))
            .build()
            .unwrap();
        let one_shot = upfront.run().unwrap();

        let text = format_trace(&topo, &transfers);
        let mut src = TraceSource::new(&topo, text.as_bytes());
        // open with an *empty* workload: the full backing would already
        // contain the transfers, and the trace feeding them again would
        // double-count
        let empty = FluidBacking::empty_for(&upfront);
        let mut service = FluidService::open(&upfront, &empty).unwrap();
        for ms in [250, 500, 1_000, 30_000] {
            pump(&mut src, &mut service, SimTime::from_millis(ms), &mut []).unwrap();
        }
        let streamed = service.finish_run(&mut []).unwrap();
        assert_eq!(one_shot.aggregates, streamed.aggregates);
        assert_eq!(one_shot.flows, streamed.flows);
    }
}
