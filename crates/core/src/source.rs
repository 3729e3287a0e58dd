//! Workload sources: where service-mode traffic comes from.
//!
//! A [`TraceSource`] reads recorded traces in the `# inrpp-trace v1`
//! text format line by line (streaming ingestion: the whole trace is
//! never materialised) and yields their [`Transfer`]s in nondecreasing
//! `start` order; [`pump`] drains one into a live [`ServiceSession`],
//! feeding every transfer due by the requested boundary and then
//! advancing the clock.
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
//! `TimeError` conversion the builder uses). A line may hold at most
//! 1 MiB; a longer one is refused unread past that point, since it may
//! never end. A refused line ends the source: every later peek returns
//! the same error. [`format_trace`] writes the symmetric output.

use std::io::{BufRead, Read};

use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::graph::Topology;

use crate::service::ServiceSession;
use crate::session::{Probe, SessionError, Transfer};

/// The trace header every `# inrpp-trace v1` file starts with.
pub const TRACE_HEADER: &str = "# inrpp-trace v1";

/// The longest trace line, newline excluded.
const MAX_LINE_BYTES: u64 = 1 << 20;

/// Feed every transfer due at or before `to` into `session`, then
/// advance it to `to`. Feeding happens *before* the clock moves, so a
/// transfer starting anywhere in `(now, to]` is scheduled exactly as if
/// it had been known up front — the determinism contract is over the
/// boundary schedule, and a checkpoint taken at any boundary resumes
/// compatibly with [`skip_until`].
pub fn pump<R: BufRead>(
    source: &mut TraceSource<'_, R>,
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
pub fn skip_until<R: BufRead>(
    source: &mut TraceSource<'_, R>,
    t: SimTime,
) -> Result<usize, SessionError> {
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
    /// The first error stops the source for good: every later
    /// [`peek`](TraceSource::peek) returns it, so a bad line is never
    /// skipped (and the rest of a line past [`MAX_LINE_BYTES`] is never
    /// read).
    failed: Option<SessionError>,
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
            failed: None,
        }
    }

    /// The next transfer without consuming it (`None` when exhausted).
    /// Repeated calls return the same transfer until [`pop`] is called,
    /// or the same error once one line failed.
    ///
    /// [`pop`]: TraceSource::pop
    pub fn peek(&mut self) -> Result<Option<Transfer>, SessionError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if let Err(e) = self.fill() {
            self.failed = Some(e.clone());
            return Err(e);
        }
        Ok(self.pending)
    }

    /// Consume the transfer last returned by [`peek`].
    ///
    /// [`peek`]: TraceSource::peek
    pub fn pop(&mut self) {
        self.pending = None;
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
        let start_text = next("start_secs")?;
        let start_secs: f64 = start_text
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
        // a plain decimal (what `format_trace` writes) converts exactly;
        // other forms go through `f64`, where negative / non-finite /
        // out-of-range times surface as the same typed error the session
        // builder produces
        let start = match decimal_nanos(start_text) {
            Some(ns) => SimTime::from_nanos(ns),
            None => {
                SimTime::ZERO
                    + SimDuration::try_from_secs_f64(start_secs)
                        .map_err(|e| self.bad(format_args!("bad start_secs: {e}")))?
            }
        };
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
        let mut buf = Vec::new();
        while self.pending.is_none() && !self.done {
            buf.clear();
            self.line_no += 1;
            let n = Read::take(&mut self.reader, MAX_LINE_BYTES + 1)
                .read_until(b'\n', &mut buf)
                .map_err(|e| self.bad(format_args!("read error: {e}")))?;
            if n as u64 > MAX_LINE_BYTES && !buf.ends_with(b"\n") {
                return Err(self.bad(format_args!("longer than {MAX_LINE_BYTES} bytes")));
            }
            if n == 0 {
                self.done = true;
                if !self.header_seen {
                    return Err(SessionError::InvalidConfig(format!(
                        "trace is empty (expected `{TRACE_HEADER}` header)"
                    )));
                }
                return Ok(());
            }
            // worded as std's invalid-UTF-8 read error: daemon replies
            // carry this text
            let line = std::str::from_utf8(&buf).map_err(|_| {
                self.bad(format_args!(
                    "read error: stream did not contain valid UTF-8"
                ))
            })?;
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

/// Plain decimal seconds with at most nine fractional digits, as exact
/// nanoseconds; `None` for any other form, or past the clock's range.
fn decimal_nanos(text: &str) -> Option<u64> {
    let (secs, frac) = text.split_once('.').unwrap_or((text, ""));
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    if secs.is_empty() || frac.len() > 9 || !digits(secs) || !digits(frac) {
        return None;
    }
    let frac: u64 = format!("{frac:0<9}").parse().ok()?;
    secs.parse::<u64>()
        .ok()?
        .checked_mul(1_000_000_000)?
        .checked_add(frac)
}

/// Render transfers as `# inrpp-trace v1` text — the inverse of
/// [`TraceSource`]. Starts are written as exact decimal nanoseconds, so
/// a round trip is exact at any instant the clock can hold.
pub fn format_trace(topo: &Topology, transfers: &[Transfer]) -> String {
    let mut out = String::from(TRACE_HEADER);
    out.push('\n');
    out.push_str("# start_secs flow src dst chunks chunk_bytes\n");
    for t in transfers {
        let ns = t.start.as_nanos();
        out.push_str(&format!(
            "{}.{:09} {} {} {} {} {}\n",
            ns / 1_000_000_000,
            ns % 1_000_000_000,
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
    fn a_bad_line_stays_an_error() {
        // a refused line is not consumed: peeking again cannot read past
        // it and silently drop its transfer
        let topo = Topology::fig3();
        let text = "# inrpp-trace v1\n0.5 1 1 4 10 1250\n0.6 2 1 zz 10 1250\n0.7 3 1 3 10 1250\n";
        let mut src = TraceSource::new(&topo, text.as_bytes());
        assert_eq!(src.peek().unwrap().map(|t| t.flow), Some(1));
        src.pop();
        let first = src.peek().unwrap_err();
        assert!(
            matches!(&first, SessionError::InvalidConfig(m) if m.contains("line 3: unknown node `zz`")),
            "{first}"
        );
        assert_eq!(src.peek().unwrap_err(), first);
    }

    #[test]
    fn an_endless_line_is_refused_unread() {
        // a trace whose second line never ends: the source reads 1 MiB of
        // it, refuses it by line number, and reads no further
        let topo = Topology::fig3();
        let endless = TRACE_HEADER
            .as_bytes()
            .chain(&b"\n"[..])
            .chain(std::io::repeat(b' '));
        let mut src = TraceSource::new(&topo, std::io::BufReader::new(endless));
        for _ in 0..2 {
            let err = src.peek().unwrap_err();
            assert!(
                matches!(&err, SessionError::InvalidConfig(m) if m.contains("line 2: longer than")),
                "{err}"
            );
        }
        // a line exactly at the cap is read whole
        let mut text = format!("{TRACE_HEADER}\n0 1 1 4 10 1250").into_bytes();
        text.resize(TRACE_HEADER.len() + 1 + (1 << 20), b' ');
        text.push(b'\n');
        let mut src = TraceSource::new(&topo, &text[..]);
        assert_eq!(src.peek().unwrap().map(|t| t.flow), Some(1));
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
