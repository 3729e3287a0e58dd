//! Per-connection protocol driver: sid routing, seq echo, and the
//! connection-scoped session table.
//!
//! One [`drive_conn`] call serves one client for the connection's
//! lifetime, on one thread. Session-scoped requests route by their
//! `"sid"` to a session host, which this thread polls for the reply;
//! requests without a `sid` address the *bare* session (internally sid
//! `""`), which reproduces the v1 single-session protocol
//! byte-for-byte — bare-session replies carry no `sid` field at all.
//!
//! Request lines are read as bytes, at most 1 MiB of each: a longer
//! line, or one that is not UTF-8, gets a `parse` error and the
//! connection keeps serving. A connection holds at most 64 sessions; an
//! `open` or `resume` past that gets a `state` error.
//!
//! Teardown is deterministic: `close` drops the session's host
//! *before* the close reply is written, and client EOF / `exit` /
//! connection errors drop every remaining session before the driver
//! returns — so a client that saw a `close` reply (or the daemon that
//! saw the connection end) knows the session's checkpoint directory,
//! trace handle, and worker-slot claims are released.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::daemon::Shared;
use crate::host::{HostCmd, SessionHandle};
use crate::protocol::{
    append_fields, err_reply, hello_reply, num, opt_num_field, opt_str_field, parse_feed_req,
    parse_object, quote, str_field, OpenSpec,
};

/// The longest request line, newline excluded. A longer one is read
/// past a bounded piece at a time, never held whole.
const MAX_LINE_BYTES: u64 = 1 << 20;

/// The most sessions one connection may hold open at once. An `open` or
/// `resume` past it gets a `state` reply and opens nothing.
const MAX_SESSIONS_PER_CONN: usize = 64;

/// Serve one client until EOF, `exit`, or `shutdown`. All open sessions
/// are dropped before this returns.
pub fn drive_conn(
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    drive_table(input, out, shared, BTreeMap::new())
}

/// [`drive_conn`] over a session table that may already hold sessions.
fn drive_table<'a>(
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    shared: &'a Shared,
    mut sessions: BTreeMap<String, SessionHandle<'a>>,
) -> io::Result<()> {
    let mut line = Vec::new();
    loop {
        if read_capped(input, &mut line, MAX_LINE_BYTES + 1)? == 0 {
            return Ok(()); // EOF: dropping `sessions` drops every host
        }
        if line.len() as u64 > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            while read_capped(input, &mut line, MAX_LINE_BYTES)? > 0 && !line.ends_with(b"\n") {}
            let e = format!("bad request: line longer than {MAX_LINE_BYTES} bytes");
            reply(out, err_reply("parse", &e))?;
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            reply(out, err_reply("parse", "bad request: line is not UTF-8"))?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let obj = match parse_object(trimmed) {
            Ok(o) => o,
            Err(e) => {
                reply(out, err_reply("parse", &format!("bad request: {e}")))?;
                continue;
            }
        };

        // correlation tail: echoed on every reply to this request
        let sid = match opt_str_field(&obj, "sid") {
            Ok(s) => s,
            Err(e) => {
                reply(out, err_reply("parse", &e))?;
                continue;
            }
        };
        let mut tail = String::new();
        if let Some(sid) = &sid {
            tail.push_str(&format!(",\"sid\":{}", quote(sid)));
        }
        match opt_num_field(&obj, "seq") {
            Ok(Some(seq)) => tail.push_str(&format!(",\"seq\":{}", num(seq))),
            Ok(None) => {}
            Err(e) => {
                reply(out, append_fields(err_reply("parse", &e), &tail))?;
                continue;
            }
        }
        let key = sid.clone().unwrap_or_default();

        let cmd = match str_field(&obj, "cmd") {
            Ok(c) => c,
            Err(e) => {
                reply(out, append_fields(err_reply("parse", &e), &tail))?;
                continue;
            }
        };
        let r = match cmd.as_str() {
            "hello" => hello_reply(shared.pool.slots()),
            "stats" => stats_reply(shared, &mut sessions),
            "open" | "resume"
                if sessions.len() >= MAX_SESSIONS_PER_CONN && !sessions.contains_key(&key) =>
            {
                err_reply("state", &too_many_sessions())
            }
            "open" | "resume" => match sessions.entry(key) {
                std::collections::btree_map::Entry::Occupied(_) => {
                    err_reply("state", &already_open(&sid))
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    match OpenSpec::parse(&obj, cmd == "resume") {
                        Err(e) => err_reply("config", &e),
                        Ok(spec) => match SessionHandle::open(spec, shared) {
                            Ok((handle, first)) => {
                                slot.insert(handle);
                                first
                            }
                            Err(first) => first,
                        },
                    }
                }
            },
            "feed" | "advance" | "snapshot" | "checkpoint" | "close" => {
                match sessions.get_mut(&key) {
                    None => err_reply("state", &no_session(&sid, &cmd)),
                    Some(handle) => match session_cmd(&obj, &cmd) {
                        Err(e) => err_reply("parse", &e),
                        Ok(HostCmd::Close) => {
                            let handle = sessions.remove(&key).expect("present");
                            handle.close() // drops the host before replying
                        }
                        Ok(host_cmd) => handle.request(host_cmd).unwrap_or_else(|died| {
                            sessions.remove(&key); // the sid is free again
                            died
                        }),
                    },
                }
            }
            "exit" => {
                // v1 semantics: `exit` ends the connection only when no
                // session is open; mid-session it is an unknown command
                if sessions.is_empty() {
                    return Ok(());
                }
                err_reply("unknown_cmd", &unknown_cmd("exit"))
            }
            "shutdown" => {
                // stop the whole daemon: drop this connection's
                // sessions, acknowledge, and flag the accept loop
                sessions.clear();
                shared.shutdown.store(true, Ordering::SeqCst);
                reply(
                    out,
                    append_fields(crate::protocol::ok_reply("shutdown", ""), &tail),
                )?;
                return Ok(());
            }
            other => {
                if sessions.contains_key(&key) {
                    err_reply("unknown_cmd", &unknown_cmd(other))
                } else {
                    err_reply("state", &no_session(&sid, other))
                }
            }
        };
        reply(out, append_fields(r, &tail))?;
    }
}

/// Read the next line into `buf`, newline included, keeping at most
/// `limit` bytes of it; the count read, 0 at EOF.
fn read_capped(input: &mut dyn BufRead, buf: &mut Vec<u8>, limit: u64) -> io::Result<usize> {
    buf.clear();
    Read::take(input, limit).read_until(b'\n', buf)
}

/// Send one reply line in a single write. On an unbuffered socket the
/// newline as a second write would go out as its own segment, held back
/// by Nagle's algorithm until the client acknowledges the first.
fn reply(out: &mut dyn Write, mut r: String) -> io::Result<()> {
    r.push('\n');
    out.write_all(r.as_bytes())?;
    out.flush()
}

/// Parse the host-bound half of a session-scoped request.
fn session_cmd(obj: &crate::protocol::Obj, cmd: &str) -> Result<HostCmd, String> {
    match cmd {
        "feed" => Ok(HostCmd::Feed(parse_feed_req(obj)?)),
        "advance" => {
            let to_secs = crate::protocol::num_field(obj, "to_secs")?;
            let timeout_ms = match opt_num_field(obj, "timeout_ms")? {
                Some(ms) if ms > 0.0 && ms.is_finite() => Some(ms as u64),
                Some(ms) => return Err(format!("timeout_ms must be positive, got {ms}")),
                None => None,
            };
            Ok(HostCmd::Advance {
                to_secs,
                timeout_ms,
            })
        }
        "snapshot" => Ok(HostCmd::Snapshot),
        "checkpoint" => Ok(HostCmd::Checkpoint {
            path: str_field(obj, "path")?,
        }),
        "close" => Ok(HostCmd::Close),
        _ => unreachable!("session_cmd called for {cmd:?}"),
    }
}

fn already_open(sid: &Option<String>) -> String {
    match sid {
        None => "a session is already open; close it first".into(),
        Some(sid) => format!("session {sid:?} is already open; close it first"),
    }
}

fn too_many_sessions() -> String {
    format!(
        "this connection already holds {MAX_SESSIONS_PER_CONN} sessions, the most it may; \
         close one first"
    )
}

fn no_session(sid: &Option<String>, cmd: &str) -> String {
    match sid {
        None => format!("no open session; expected open|resume|exit, got {cmd:?}"),
        Some(sid) => format!("no session {sid:?} on this connection; open or resume it first"),
    }
}

fn unknown_cmd(cmd: &str) -> String {
    format!("unknown command {cmd:?} (feed|advance|snapshot|checkpoint|close)")
}

/// The `stats` reply: pool-wide counters plus a per-session array for
/// this connection's sessions, in sid order. A session whose host dies
/// answering leaves the table and the array.
fn stats_reply(shared: &Shared, sessions: &mut BTreeMap<String, SessionHandle<'_>>) -> String {
    let mut per = Vec::new();
    sessions.retain(|sid, handle| match handle.request(HostCmd::Stats) {
        Ok(fragment) => {
            per.push(format!("{{\"sid\":{},{fragment}}}", quote(sid)));
            true
        }
        Err(_) => false,
    });
    let per = per.join(",");
    let s = &shared.stats;
    let opened = s.sessions_opened.load(Ordering::Relaxed);
    let closed = s.sessions_closed.load(Ordering::Relaxed);
    format!(
        "{{\"ok\":true,\"event\":\"stats\",\"workers\":{},\"slots_free\":{},\
         \"pool_grants\":{},\"sessions_open\":{},\"sessions_opened\":{opened},\
         \"sessions_closed\":{closed},\"advances\":{},\"events\":{},\"bytes_fed\":{},\
         \"ckpt_writes\":{},\"conn_sessions\":{},\"sessions\":[{per}]}}",
        shared.pool.slots(),
        shared.pool.free(),
        shared.pool.grants(),
        opened.saturating_sub(closed),
        s.advances.load(Ordering::Relaxed),
        s.events.load(Ordering::Relaxed),
        s.bytes_fed.load(Ordering::Relaxed),
        s.ckpt_writes.load(Ordering::Relaxed),
        sessions.len(),
    )
}

#[cfg(test)]
mod tests {
    use crate::daemon::{serve_lines, serve_lines_with};
    use crate::host::list_checkpoints;
    use std::fs;
    use std::io::Cursor;

    fn run(script: &str) -> Vec<String> {
        run_bytes(script.as_bytes())
    }

    fn run_bytes(script: &[u8]) -> Vec<String> {
        let mut input = Cursor::new(script);
        let mut out = Vec::new();
        serve_lines(&mut input, &mut out).expect("serve loop");
        String::from_utf8(out)
            .expect("utf8 replies")
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn assert_ok(reply: &str) {
        assert!(reply.starts_with("{\"ok\":true"), "expected ok: {reply}");
    }

    fn assert_err(reply: &str) {
        assert!(
            reply.starts_with("{\"ok\":false"),
            "expected error: {reply}"
        );
    }

    fn assert_kind(reply: &str, kind: &str) {
        assert!(
            reply.starts_with(&format!("{{\"ok\":false,\"kind\":\"{kind}\"")),
            "expected kind {kind:?}: {reply}"
        );
    }

    #[test]
    fn full_session_over_the_wire() {
        for engine in ["fluid", "packet"] {
            let script = format!(
                concat!(
                    r#"{{"cmd":"open","engine":"{}","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}}"#,
                    "\n",
                    r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":800,"start_secs":0}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":1.5}}"#,
                    "\n",
                    r#"{{"cmd":"snapshot"}}"#,
                    "\n",
                    r#"{{"cmd":"close"}}"#,
                    "\n",
                ),
                engine
            );
            let replies = run(&script);
            assert_eq!(replies.len(), 5, "{engine}: {replies:?}");
            for r in &replies {
                assert_ok(r);
                assert!(!r.contains("\"sid\""), "bare sessions carry no sid: {r}");
            }
            assert!(replies[0].contains("\"event\":\"open\""), "{}", replies[0]);
            assert!(replies[2].contains("\"now_secs\":1.5"), "{}", replies[2]);
            assert!(
                replies[4].contains("\"event\":\"close\"")
                    && replies[4].contains("\"arrived_flows\":1")
                    && replies[4].contains("\"completed_flows\":1"),
                "{engine}: {}",
                replies[4]
            );
        }
    }

    #[test]
    fn bad_requests_are_replies_not_crashes() {
        let script = concat!(
            "not json\n",
            r#"{"cmd":"advance","to_secs":1}"#,
            "\n",
            r#"{"cmd":"open","engine":"warp","topology":"fig3","strategy":"urp","horizon_secs":1}"#,
            "\n",
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":1}"#,
            "\n",
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"nowhere","chunks":5,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":-2}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        );
        let replies = run(script);
        assert_eq!(replies.len(), 7, "{replies:?}");
        for r in &replies[..3] {
            assert_err(r);
        }
        assert_ok(&replies[3]); // open
        assert_err(&replies[4]); // unknown node
        assert_err(&replies[5]); // negative time
        assert_ok(&replies[6]); // close still works
    }

    #[test]
    fn a_connection_holds_at_most_the_session_cap() {
        let cap = super::MAX_SESSIONS_PER_CONN;
        let open = |cmd: &str, sid: usize| {
            format!(
                r#"{{"cmd":"{cmd}","sid":"s{sid}","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5,"path":"absent.ckpt"}}"#
            ) + "\n"
        };
        let mut script: String = (0..=cap).map(|sid| open("open", sid)).collect();
        // a close frees one slot, which the refused sid then takes
        script += "{\"cmd\":\"close\",\"sid\":\"s0\"}\n";
        script += &open("open", cap);
        // full again: a resume is refused before its path is read
        script += &open("resume", cap + 1);
        let replies = run(&script);
        assert_eq!(replies.len(), cap + 4, "{replies:?}");
        for r in &replies[..cap] {
            assert_ok(r);
        }
        for refused in [cap, cap + 3] {
            assert_kind(&replies[refused], "state");
            assert!(
                replies[refused].contains(&format!("already holds {cap} sessions")),
                "{}",
                replies[refused]
            );
        }
        assert_ok(&replies[cap + 1]); // close
        assert_ok(&replies[cap + 2]); // open in the freed slot
    }

    #[test]
    fn error_replies_carry_typed_kinds() {
        let open = concat!(
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
        );
        let script = format!(
            concat!(
                "{{not json\n", // parse
                r#"{{"cmd":"warp"}}"#,
                "\n", // state (no session)
                "{open}",
                r#"{{"cmd":"advance","to_secs":2}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":1}}"#,
                "\n", // state (out of order)
                r#"{{"cmd":"teleport"}}"#,
                "\n", // unknown_cmd
                r#"{{"cmd":"feed","flow":"x"}}"#,
                "\n", // parse (bad field)
                r#"{{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}}"#,
                "\n", // state (already open)
                r#"{{"cmd":"close"}}"#,
                "\n",
            ),
            open = open
        );
        let replies = run(&script);
        assert_eq!(replies.len(), 9, "{replies:?}");
        assert_kind(&replies[0], "parse");
        assert_kind(&replies[1], "state");
        assert_ok(&replies[2]); // open
        assert_ok(&replies[3]); // advance 2
        assert_kind(&replies[4], "state");
        assert_kind(&replies[5], "unknown_cmd");
        assert_kind(&replies[6], "parse");
        assert_kind(&replies[7], "state");
        assert_ok(&replies[8]); // session survived every error
    }

    #[test]
    fn an_overlong_request_line_is_a_parse_error_and_the_connection_keeps_serving() {
        // valid requests padded with blanks: the one a byte past the
        // limit is refused unparsed, the one exactly at it is served
        let limit = super::MAX_LINE_BYTES as usize;
        let padded = |seq: u32, len: usize| {
            let mut line = format!("{{\"cmd\":\"hello\",\"seq\":{seq}}}").into_bytes();
            line.resize(len, b' ');
            line.push(b'\n');
            line
        };
        let mut script = padded(1, limit + 1);
        script.extend(padded(2, limit));
        // an over-long last line with no newline at all
        script.extend(vec![b'x'; 3 * limit]);
        let replies = run_bytes(&script);
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_kind(&replies[0], "parse");
        assert!(
            replies[0].contains("longer than 1048576 bytes"),
            "{}",
            replies[0]
        );
        assert_ok(&replies[1]);
        assert!(replies[1].ends_with(",\"seq\":2}"), "{}", replies[1]);
        assert_kind(&replies[2], "parse");
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_and_the_connection_keeps_serving() {
        let replies = run_bytes(b"{\"cmd\":\"hello\"}\n\xff\xfe\n{\"cmd\":\"hello\",\"seq\":3}\n");
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_ok(&replies[0]);
        assert_kind(&replies[1], "parse");
        assert!(replies[1].contains("not UTF-8"), "{}", replies[1]);
        assert!(replies[2].ends_with(",\"seq\":3}"), "{}", replies[2]);
    }

    /// One `open` per topology name, each under its own sid.
    fn open_each(names: &[&str]) -> Vec<String> {
        let script: String = names
            .iter()
            .map(|t| {
                format!(
                    "{{\"cmd\":\"open\",\"sid\":\"{t}\",\"engine\":\"fluid\",\"topology\":\"{t}\",\
                     \"strategy\":\"urp\",\"horizon_secs\":1}}\n"
                )
            })
            .collect();
        run(&script)
    }

    #[test]
    fn topology_names_below_a_family_minimum_are_config_errors() {
        // these used to panic the session host; the smallest valid N of
        // each family still opens
        let small = [
            "line:1",
            "line:0",
            "star:1",
            "mesh:1",
            "ring:2",
            "ring:0",
            "dumbbell:0",
        ];
        let least = ["line:2", "star:2", "mesh:2", "ring:3", "dumbbell:1"];
        let replies = open_each(&[&small[..], &least[..]].concat());
        assert_eq!(replies.len(), small.len() + least.len(), "{replies:?}");
        for r in &replies[..small.len()] {
            assert_kind(r, "config");
            assert!(r.contains("too small"), "{r}");
        }
        for r in &replies[small.len()..] {
            assert_ok(r);
        }
    }

    #[test]
    fn topology_names_past_the_node_and_link_caps_are_config_errors() {
        // refused by arithmetic before anything is allocated; under a
        // 1.5 GB address limit, mesh:20000, line:100000000 and
        // dumbbell:50000000 used to abort the daemon
        let big = [
            "mesh:92",
            "line:1025",
            "ring:1025",
            "star:1025",
            "dumbbell:512",
            "mesh:20000",
            "line:100000000",
            "dumbbell:50000000",
            "dumbbell:18446744073709551615",
        ];
        let largest = [
            "mesh:91",
            "line:1024",
            "ring:1024",
            "star:1024",
            "dumbbell:511",
        ];
        let replies = open_each(&[&big[..], &largest[..]].concat());
        assert_eq!(replies.len(), big.len() + largest.len(), "{replies:?}");
        for r in &replies[..big.len()] {
            assert_kind(r, "config");
            assert!(r.contains("too large"), "{r}");
        }
        for r in &replies[big.len()..] {
            assert_ok(r);
        }
    }

    #[test]
    fn seed_must_be_an_exact_non_negative_integer() {
        // `as u64` used to turn -1 into 0 (the same session fingerprint
        // as seed 0), 7.9 into 7, and 1e30 into u64::MAX
        let mut script = String::new();
        for cmd in ["open", "resume"] {
            for bad in ["-1", "7.9", "1e30"] {
                script.push_str(&format!(
                    "{{\"cmd\":\"{cmd}\",\"engine\":\"packet\",\"topology\":\"fig3\",\
                     \"strategy\":\"urp\",\"horizon_secs\":5,\"path\":\"x.ckpt\",\
                     \"seed\":{bad}}}\n"
                ));
            }
        }
        // `workers` is no session field: like any unknown field, it is
        // ignored, whatever its value
        script.push_str(concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":5,"workers":-1}"#,
            "\n",
        ));
        let replies = run(&script);
        assert_eq!(replies.len(), 7, "{replies:?}");
        for r in &replies[..6] {
            assert_kind(r, "config");
            assert!(r.contains("must be a non-negative integer"), "{r}");
        }
        assert_ok(&replies[6]);
    }

    #[test]
    fn open_counts_must_be_positive_integers_and_chunk_bits_must_fit() {
        // `as u64` used to saturate 1e30 into u64::MAX, whose size in
        // bits then overflowed at the first feed
        let mut script = String::new();
        for field in ["chunk_bytes", "ckpt_every", "ckpt_retain"] {
            for bad in ["0", "-1", "7.5", "1e30"] {
                script.push_str(&format!(
                    "{{\"cmd\":\"open\",\"engine\":\"fluid\",\"topology\":\"fig3\",\
                     \"strategy\":\"urp\",\"horizon_secs\":5,\"{field}\":{bad}}}\n"
                ));
            }
        }
        // fits a u64 in bytes, not in bits
        script.push_str(concat!(
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5,"chunk_bytes":4e18}"#,
            "\n",
        ));
        let replies = run(&script);
        assert_eq!(replies.len(), 13, "{replies:?}");
        for r in &replies[..12] {
            assert_kind(r, "config");
            assert!(r.contains("integer"), "{r}");
        }
        assert_kind(&replies[12], "config");
        assert!(replies[12].contains("overflows a u64"), "{}", replies[12]);
    }

    #[test]
    fn fed_byte_counts_that_overflow_are_typed_errors() {
        let replies = run(concat!(
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":1,"chunk_bytes":1e18}"#,
            "\n",
            // 1.9e19 B: past u64::MAX on its own
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":19,"start_secs":0}"#,
            "\n",
            // 1.8e19 B: fits
            r#"{"cmd":"feed","flow":2,"src":"1","dst":"4","chunks":18,"start_secs":0}"#,
            "\n",
            // 1e18 B more: the session's total would pass u64::MAX
            r#"{"cmd":"feed","flow":3,"src":"1","dst":"3","chunks":1,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"stats"}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        ));
        assert_eq!(replies.len(), 6, "{replies:?}");
        assert_ok(&replies[0]);
        for r in [&replies[1], &replies[3]] {
            assert_kind(r, "parse");
            assert!(r.contains("overflow"), "{r}");
        }
        assert_ok(&replies[2]);
        assert!(
            replies[4].contains("\"feeds\":1,\"bytes_fed\":18000000000000000000"),
            "{}",
            replies[4]
        );
        assert_ok(&replies[5]);
        assert!(replies[5].contains("\"arrived_flows\":1"), "{}", replies[5]);
    }

    #[test]
    fn a_flow_ending_past_the_end_of_the_clock_leaves_the_session_running() {
        // 1e15 chunks of 1250 B at 10 Mbit/s or less take over 30,000
        // years; the clock counts u64 nanoseconds, about 584 years. The
        // packet engine's AIMD receiver (`sp`) must keep state for the
        // chunks that arrive, not the 1e15 declared: 125 TB up front
        // would abort the whole daemon
        for (engine, strategy) in [("fluid", "urp"), ("packet", "sp")] {
            let replies = run(&format!(
                concat!(
                    r#"{{"cmd":"open","engine":"{}","topology":"fig3","strategy":"{}","horizon_secs":30}}"#,
                    "\n",
                    r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":1000000000000000,"start_secs":0}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":1.5}}"#,
                    "\n",
                    r#"{{"cmd":"close"}}"#,
                    "\n",
                ),
                engine, strategy
            ));
            assert_eq!(replies.len(), 4, "{engine}: {replies:?}");
            for r in &replies {
                assert_ok(r);
            }
            assert!(replies[2].contains("\"now_secs\":1.5"), "{}", replies[2]);
            assert!(
                replies[3].contains("\"arrived_flows\":1")
                    && replies[3].contains("\"completed_flows\":0"),
                "{}",
                replies[3]
            );
        }
    }

    #[test]
    fn each_reply_is_one_write_of_one_line() {
        struct Writes(Vec<Vec<u8>>);
        impl std::io::Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let script = concat!(
            r#"{"cmd":"hello"}"#,
            "\n",
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
            "not json\n",
            r#"{"cmd":"advance","to_secs":1,"seq":4}"#,
            "\n",
        );
        let mut out = Writes(Vec::new());
        serve_lines(&mut Cursor::new(script), &mut out).expect("serve loop");
        assert_eq!(out.0.concat(), (run(script).join("\n") + "\n").into_bytes());
        assert_eq!(out.0.len(), 4, "one write per reply");
        for w in &out.0 {
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
            assert!(w.ends_with(b"\n"));
        }
    }

    #[test]
    fn a_packet_chunk_too_slow_for_the_clock_is_a_config_error_at_open() {
        // one 2e16 B chunk takes 8e10 s (over 2,500 years) to cross
        // fig3's 2 Mbit/s link, past the end of the u64-nanosecond clock,
        // and so does a default chunk once a planned capacity scale of
        // 1e-300 takes effect: open must refuse both with a typed error,
        // not kill the host
        let mut script = concat!(
            r#"{"cmd":"open","sid":"scale","engine":"packet","topology":"fig3","strategy":"urp","#,
            r#""horizon_secs":2,"faults":"scale@0.1:1:1e-300"}"#,
            "\n",
        )
        .to_string();
        for chunk_bytes in ["1e18", "2e16", "1e15"] {
            script.push_str(&format!(
                "{{\"cmd\":\"open\",\"sid\":\"{chunk_bytes}\",\"engine\":\"packet\",\
                 \"topology\":\"fig3\",\"strategy\":\"urp\",\"horizon_secs\":2,\
                 \"chunk_bytes\":{chunk_bytes}}}\n"
            ));
        }
        script.push_str(concat!(
            r#"{"cmd":"feed","sid":"1e15","flow":1,"src":"1","dst":"4","chunks":40,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","sid":"1e15","to_secs":2}"#,
            "\n",
        ));
        let replies = run(&script);
        assert_eq!(replies.len(), 6, "{replies:?}");
        for r in &replies[..3] {
            assert_kind(r, "config");
            assert!(r.contains("past the end of the clock"), "{r}");
        }
        for r in &replies[3..] {
            assert_ok(r);
        }
        assert!(replies[5].contains("\"now_secs\":2"), "{}", replies[5]);
    }

    #[test]
    fn escaped_request_strings_address_the_same_session_as_raw_ones() {
        // a client escaping non-ASCII (Python's json.dumps default) and
        // one sending it raw name the same session; the reply echoes the
        // sid through the shared escaper, which leaves non-ASCII raw
        let replies = run(concat!(
            r#"{"cmd":"open","sid":"caf\u00e9","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
            r#"{"cmd":"advance","sid":"café","to_secs":1}"#,
            "\n",
            r#"{"cmd":"close","sid":"caf\u00E9","seq":3}"#,
            "\n",
            r#"{"cmd":"open","sid":"\udc00","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
        ));
        assert_eq!(replies.len(), 4, "{replies:?}");
        for r in &replies[..3] {
            assert_ok(r);
        }
        assert!(replies[0].ends_with(",\"sid\":\"café\"}"), "{}", replies[0]);
        assert!(
            replies[2].ends_with(",\"sid\":\"café\",\"seq\":3}"),
            "{}",
            replies[2]
        );
        assert_kind(&replies[3], "parse");
        assert!(replies[3].contains("lone surrogate"), "{}", replies[3]);
    }

    #[test]
    fn bad_fault_plan_and_bad_resume_are_config_and_checkpoint_errors() {
        let replies = run(concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":5,"faults":"linkdown@x:3"}"#,
            "\n",
            r#"{"cmd":"resume","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
            r#"{"cmd":"resume","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":5,"path":"/nonexistent/x.ckpt"}"#,
            "\n",
            // a fault plan naming a link fig3 does not have is rejected
            // at build time by the typed validation
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":5,"faults":"linkdown@1:99"}"#,
            "\n",
        ));
        assert_eq!(replies.len(), 4, "{replies:?}");
        assert_kind(&replies[0], "config"); // unparseable plan
        assert_kind(&replies[1], "config"); // resume without path or ckpt_dir
        assert_kind(&replies[2], "checkpoint"); // unreadable file
        assert_kind(&replies[3], "config"); // link index out of range
        assert!(
            replies[3].contains("link 99"),
            "validation names the bad link: {}",
            replies[3]
        );
    }

    #[test]
    fn fault_plan_over_the_wire_changes_the_run() {
        let open = |faults: &str| {
            format!(
                concat!(
                    r#"{{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7{}}}"#,
                    "\n",
                    r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}}"#,
                    "\n",
                    r#"{{"cmd":"close"}}"#,
                    "\n",
                ),
                faults
            )
        };
        let quiet = run(&open(""));
        let faulted = run(&open(r#","faults":"linkdown@0.2:1; linkup@10:1""#));
        assert_ok(quiet.last().unwrap());
        assert_ok(faulted.last().unwrap());
        assert!(
            quiet.last() != faulted.last(),
            "a mid-run outage must change the final report"
        );
        // determinism: the same plan yields byte-identical bytes
        let again = run(&open(r#","faults":"linkdown@0.2:1; linkup@10:1""#));
        assert_eq!(faulted.last(), again.last());
    }

    #[test]
    fn auto_checkpoints_rotate_and_recover_past_corruption() {
        let dir = std::env::temp_dir().join(format!("inrpp-selfheal-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let open = format!(
            concat!(
                r#"{{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","#,
                r#""horizon_secs":30,"seed":7,"ckpt_dir":"{d}","ckpt_retain":2}}"#,
                "\n",
                r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":800,"start_secs":0}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":0.5}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":1}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":1.5}}"#,
                "\n",
            ),
            d = dir.display()
        );
        let head = run(&open);
        assert!(head[2].contains("\"ckpt_seq\":1"), "{}", head[2]);
        assert!(head[4].contains("\"ckpt_seq\":3"), "{}", head[4]);
        // retention: only the newest two survive
        let mut seqs: Vec<u64> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
        seqs.sort();
        assert_eq!(seqs, vec![2, 3], "keep-last-2 rotation");

        // the uninterrupted run for comparison
        let straight = run(concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
            "\n",
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":800,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":0.5}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":1}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":1.5}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        ));

        // truncate the newest checkpoint (simulated crash mid-anything);
        // recovery must fall back to seq 2 and note the skipped file
        let newest = dir.join("ckpt-000003.ckpt");
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let tail = run(&format!(
            concat!(
                r#"{{"cmd":"resume","engine":"packet","topology":"fig3","strategy":"urp","#,
                r#""horizon_secs":30,"seed":7,"ckpt_dir":"{d}"}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":1.5}}"#,
                "\n",
                r#"{{"cmd":"close"}}"#,
                "\n",
            ),
            d = dir.display()
        ));
        assert!(tail[0].contains("\"event\":\"resume\""), "{}", tail[0]);
        assert!(
            tail[0].contains("\"recovered_seq\":2")
                && tail[0].contains("\"skipped_checkpoints\":1"),
            "recovery diagnostics: {}",
            tail[0]
        );
        assert_eq!(
            straight.last().unwrap(),
            tail.last().unwrap(),
            "recovered final report must be byte-identical to the uninterrupted run"
        );

        // with every checkpoint unusable, the error is typed
        for (_, p) in list_checkpoints(&dir) {
            fs::write(&p, b"garbage").unwrap();
        }
        let none = run(&format!(
            "{{\"cmd\":\"resume\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\"horizon_secs\":30,\"seed\":7,\"ckpt_dir\":\"{}\"}}\n",
            dir.display()
        ));
        assert_kind(&none[0], "checkpoint");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advance_timeout_is_resumable() {
        // a zero-ish budget can't finish a 20 s advance: expect a typed
        // timeout with partial progress, then a plain advance finishes
        let script = concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
            "\n",
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":2000,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":20,"timeout_ms":0.001}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":20}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        );
        let replies = run(script);
        assert_eq!(replies.len(), 5, "{replies:?}");
        assert_kind(&replies[2], "timeout");
        // the budget truncates to 0 ms, yet one slice still runs
        let reached: f64 = replies[2]
            .split("timed out at ")
            .nth(1)
            .and_then(|rest| rest.split('s').next())
            .and_then(|secs| secs.parse().ok())
            .unwrap_or_else(|| panic!("no instant in {}", replies[2]));
        assert!(reached > 0.0, "{}", replies[2]);
        assert_ok(&replies[3]);
        assert!(replies[3].contains("\"now_secs\":20"), "{}", replies[3]);
        assert_ok(&replies[4]);

        // and a timed advance that *does* finish yields the same final
        // bytes as an untimed one — boundaries don't leak
        let timed = run(concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
            "\n",
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":5,"timeout_ms":60000}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        ));
        let plain = run(concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
            "\n",
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":5}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        ));
        assert_ok(timed.last().unwrap());
        assert_eq!(timed.last(), plain.last(), "slicing must not change bytes");
    }

    #[test]
    fn checkpoint_resume_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("inrpp-serve-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");
        let trace = dir.join("run.trace");
        fs::write(
            &trace,
            "# inrpp-trace v1\n0 1 1 4 800 1250\n0.2 2 2 3 200 1250\n2.5 3 1 3 100 1250\n",
        )
        .unwrap();

        let open = concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","#,
            r#""horizon_secs":30,"seed":7,"#
        );
        // uninterrupted trace-driven run
        let straight = run(&format!(
            "{open}\"trace\":\"{t}\"}}\n{{\"cmd\":\"advance\",\"to_secs\":1}}\n{{\"cmd\":\"advance\",\"to_secs\":3}}\n{{\"cmd\":\"close\"}}\n",
            t = trace.display()
        ));

        // same drive schedule, checkpointed at the 1 s boundary...
        let head = run(&format!(
            "{open}\"trace\":\"{t}\"}}\n{{\"cmd\":\"advance\",\"to_secs\":1}}\n{{\"cmd\":\"checkpoint\",\"path\":\"{c}\"}}\n",
            t = trace.display(),
            c = ckpt.display()
        ));
        assert_ok(&head[1]);
        assert!(head[2].contains("\"event\":\"checkpoint\""), "{}", head[2]);

        // ...and resumed in a fresh serve loop (fresh process, in effect)
        let tail = run(&format!(
            "{{\"cmd\":\"resume\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\"horizon_secs\":30,\"seed\":7,\"trace\":\"{t}\",\"path\":\"{c}\"}}\n{{\"cmd\":\"advance\",\"to_secs\":3}}\n{{\"cmd\":\"close\"}}\n",
            t = trace.display(),
            c = ckpt.display()
        ));
        assert!(tail[0].contains("\"event\":\"resume\""), "{}", tail[0]);
        assert!(tail[0].contains("\"now_secs\":1"), "{}", tail[0]);
        assert_eq!(
            straight.last().unwrap(),
            tail.last().unwrap(),
            "resumed final report must be byte-identical"
        );

        // a wrong spec is rejected by the fingerprint
        let wrong = run(&format!(
            "{{\"cmd\":\"resume\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\"horizon_secs\":60,\"seed\":7,\"path\":\"{c}\"}}\n",
            c = ckpt.display()
        ));
        assert_err(&wrong[0]);
        assert!(wrong[0].contains("fingerprint"), "{}", wrong[0]);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bad_trace_line_refuses_every_later_advance() {
        // retrying an advance must not skip the refused line and carry on
        // without its transfer
        let dir = std::env::temp_dir().join(format!("inrpp-badline-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("bad.trace");
        fs::write(
            &trace,
            "# inrpp-trace v1\n0.5 1 1 4 10 1250\n0.6 2 1 zz 10 1250\n0.7 3 1 3 10 1250\n",
        )
        .unwrap();
        let replies = run(&format!(
            concat!(
                r#"{{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":2,"trace":"{}"}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":1}}"#,
                "\n",
                r#"{{"cmd":"advance","to_secs":1}}"#,
                "\n",
            ),
            trace.display()
        ));
        assert_ok(&replies[0]);
        for r in &replies[1..] {
            assert_kind(r, "config");
            assert!(r.contains("trace line 3: unknown node"), "{r}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    // ===============================================================
    // v2: hello, seq echo, sid multiplexing, stats, teardown
    // ===============================================================

    #[test]
    fn hello_and_seq_echo_on_every_reply_shape() {
        let replies = run(concat!(
            r#"{"cmd":"hello","seq":1}"#,
            "\n",
            r#"{"cmd":"teleport","seq":2}"#,
            "\n", // state error (no session): still echoes seq
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5,"seq":3}"#,
            "\n",
            r#"{"cmd":"bogus","seq":4}"#,
            "\n", // unknown_cmd: still echoes seq
            r#"{"cmd":"close","seq":5}"#,
            "\n",
        ));
        assert_eq!(replies.len(), 5, "{replies:?}");
        assert!(
            replies[0].contains("\"event\":\"hello\"")
                && replies[0].contains("\"protocol\":2")
                && replies[0].contains("\"engines\":[\"fluid\",\"packet\"]"),
            "{}",
            replies[0]
        );
        for (i, r) in replies.iter().enumerate() {
            assert!(
                r.ends_with(&format!(",\"seq\":{}}}", i + 1)),
                "reply {i} echoes its seq: {r}"
            );
        }
        assert_kind(&replies[1], "state");
        assert_kind(&replies[3], "unknown_cmd");
    }

    #[test]
    fn sid_multiplexes_sessions_on_one_connection() {
        // two interleaved sessions (one per engine) plus the bare one,
        // all advancing past each other
        let script = concat!(
            r#"{"cmd":"open","sid":"a","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
            "\n",
            r#"{"cmd":"open","sid":"b","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":9}"#,
            "\n",
            r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":11}"#,
            "\n",
            r#"{"cmd":"feed","sid":"a","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"feed","sid":"b","flow":1,"src":"1","dst":"3","chunks":400,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","sid":"a","to_secs":2}"#,
            "\n",
            r#"{"cmd":"advance","sid":"b","to_secs":1}"#,
            "\n",
            r#"{"cmd":"advance","sid":"a","to_secs":4}"#,
            "\n",
            r#"{"cmd":"stats"}"#,
            "\n",
            r#"{"cmd":"close","sid":"b"}"#,
            "\n",
            r#"{"cmd":"close","sid":"a"}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        );
        let replies = run(script);
        assert_eq!(replies.len(), 12, "{replies:?}");
        for r in &replies {
            assert_ok(r);
        }
        // sid-addressed replies echo the sid; bare replies don't
        assert!(replies[0].ends_with(",\"sid\":\"a\"}"), "{}", replies[0]);
        assert!(replies[1].ends_with(",\"sid\":\"b\"}"), "{}", replies[1]);
        assert!(!replies[2].contains("\"sid\""), "{}", replies[2]);
        assert!(replies[5].contains("\"now_secs\":2"), "{}", replies[5]);
        assert!(replies[6].contains("\"now_secs\":1"), "{}", replies[6]);
        // stats sees all three sessions, in sid order (bare key first)
        let stats = &replies[8];
        assert!(stats.contains("\"conn_sessions\":3"), "{stats}");
        assert!(stats.contains("\"sessions_open\":3"), "{stats}");
        let a = stats.find("\"sid\":\"a\"").expect("session a in stats");
        let b = stats.find("\"sid\":\"b\"").expect("session b in stats");
        let bare = stats.find("\"sid\":\"\"").expect("bare session in stats");
        assert!(bare < a && a < b, "sid order: {stats}");
        assert!(stats.contains("\"advances\":2"), "pool-wide + a: {stats}");
    }

    #[test]
    fn multiplexed_sessions_match_solo_runs_byte_for_byte() {
        // the determinism contract at the single-connection level: two
        // interleaved sessions reply exactly like each run alone (after
        // stripping the sid tail), at several pool sizes
        let solo = |seed: u64| {
            run(&format!(
                concat!(
                    r#"{{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":{},"probe_fp":true}}"#,
                    "\n",
                    r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":2}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":6}}"#,
                    "\n",
                    r#"{{"cmd":"close"}}"#,
                    "\n",
                ),
                seed
            ))
        };
        let want_a = solo(7);
        let want_b = solo(13);
        for workers in [1usize, 2, 8] {
            let script = concat!(
                r#"{"cmd":"open","sid":"a","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7,"probe_fp":true}"#,
                "\n",
                r#"{"cmd":"open","sid":"b","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":13,"probe_fp":true}"#,
                "\n",
                r#"{"cmd":"feed","sid":"a","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}"#,
                "\n",
                r#"{"cmd":"feed","sid":"b","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}"#,
                "\n",
                r#"{"cmd":"advance","sid":"b","to_secs":2}"#,
                "\n",
                r#"{"cmd":"advance","sid":"a","to_secs":2}"#,
                "\n",
                r#"{"cmd":"advance","sid":"a","to_secs":6}"#,
                "\n",
                r#"{"cmd":"advance","sid":"b","to_secs":6}"#,
                "\n",
                r#"{"cmd":"close","sid":"a"}"#,
                "\n",
                r#"{"cmd":"close","sid":"b"}"#,
                "\n",
            );
            let mut input = Cursor::new(script.to_string());
            let mut out = Vec::new();
            serve_lines_with(&mut input, &mut out, workers).expect("serve loop");
            let mixed: Vec<String> = String::from_utf8(out)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect();
            let strip = |r: &str, sid: &str| r.replace(&format!(",\"sid\":\"{sid}\""), "");
            let got_a: Vec<String> = mixed
                .iter()
                .filter(|r| r.contains("\"sid\":\"a\""))
                .map(|r| strip(r, "a"))
                .collect();
            let got_b: Vec<String> = mixed
                .iter()
                .filter(|r| r.contains("\"sid\":\"b\""))
                .map(|r| strip(r, "b"))
                .collect();
            assert_eq!(got_a, want_a, "session a at workers={workers}");
            assert_eq!(got_b, want_b, "session b at workers={workers}");
        }
    }

    #[test]
    fn close_releases_ckpt_dir_for_immediate_reuse() {
        // the teardown regression: close must release the checkpoint
        // directory state so the same dir can be wiped and reopened at
        // once, with auto-checkpoint sequencing starting over
        let dir = std::env::temp_dir().join(format!("inrpp-teardown-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let open = format!(
            concat!(
                r#"{{"cmd":"open","sid":"s","engine":"packet","topology":"fig3","strategy":"urp","#,
                r#""horizon_secs":30,"seed":7,"ckpt_dir":"{d}"}}"#,
                "\n",
                r#"{{"cmd":"feed","sid":"s","flow":1,"src":"1","dst":"4","chunks":200,"start_secs":0}}"#,
                "\n",
                r#"{{"cmd":"advance","sid":"s","to_secs":1}}"#,
                "\n",
                r#"{{"cmd":"close","sid":"s"}}"#,
                "\n",
            ),
            d = dir.display()
        );
        let first = run(&open);
        assert_ok(first.last().unwrap());
        assert!(first[2].contains("\"ckpt_seq\":1"), "{}", first[2]);
        assert_eq!(list_checkpoints(&dir).len(), 1);

        // the close reply was written only after the session's host was
        // dropped, so the directory is free: remove and reopen it
        fs::remove_dir_all(&dir).expect("ckpt dir removable right after close");
        let second = run(&open);
        assert_ok(second.last().unwrap());
        assert!(
            second[2].contains("\"ckpt_seq\":1"),
            "sequence restarts in the fresh dir: {}",
            second[2]
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// The first `"name":<integer>` in `reply`.
    fn int_field(reply: &str, name: &str) -> u64 {
        let key = format!("\"{name}\":");
        let at = reply
            .find(&key)
            .unwrap_or_else(|| panic!("no {name}: {reply}"))
            + key.len();
        let digits: String = reply[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap_or_else(|_| panic!("{name}: {reply}"))
    }

    /// A `stats` reply's pool-wide `events`, then each listed session's.
    fn stats_events(reply: &str) -> (u64, Vec<u64>) {
        assert_ok(reply);
        let (pool, per) = reply.split_once("\"sessions\":[").expect("session list");
        let per = per.split("{\"sid\":").skip(1);
        (
            int_field(pool, "events"),
            per.map(|s| int_field(s, "events")).collect(),
        )
    }

    #[test]
    fn stats_counts_the_events_an_in_process_session_simulates() {
        use crate::protocol::{parse_object, topology_by_name, OpenSpec};
        use inrpp::service::{FluidBacking, FluidService, ServiceSession};
        use inrpp::session::{EngineKind, Session, Transfer};
        use inrpp_packetsim::PacketService;
        use inrpp_sim::time::{SimDuration, SimTime};
        use inrpp_sim::units::ByteSize;

        /// Events as `stats` defines them: delivered chunks (packet),
        /// arrived plus completed flows (fluid).
        fn events(svc: &dyn ServiceSession) -> u64 {
            let r = svc.snapshot();
            match r.packet() {
                Some(p) => p.chunks_delivered,
                None => (r.arrived_flows + r.completed_flows) as u64,
            }
        }
        /// Advance through the daemon's 64 slice boundaries.
        fn advance_sliced(svc: &mut dyn ServiceSession, secs: f64) {
            let to = SimTime::from_secs_f64(secs);
            let start = svc.now();
            let step = SimDuration::from_nanos((to.duration_since(start).as_nanos() / 64).max(1));
            let mut next = start;
            while svc.now() < to.min(svc.horizon()) {
                next = (next + step).min(to);
                svc.advance(next, &mut []).expect("in-process advance");
            }
        }

        let dir = std::env::temp_dir().join(format!("inrpp-events-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let feeds = [
            (1, "1", "4", 200, 0.0),
            (2, "2", "3", 400, 0.2),
            (3, "1", "3", 4000, 1.0),
        ];
        for engine in ["fluid", "packet"] {
            let spec = format!(
                r#""engine":"{engine}","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7"#
            );

            // the same session in process, no probe attached
            let open =
                OpenSpec::parse(&parse_object(&format!("{{{spec}}}")).unwrap(), false).unwrap();
            let topo = topology_by_name(&open.topology).unwrap();
            let session = Session::builder()
                .topology(&topo)
                .transfers(Vec::new())
                .strategy(open.strategy().unwrap())
                .horizon_secs(open.horizon_secs)
                .seed(7)
                .build()
                .unwrap();
            let backing = FluidBacking::empty_for(&session);
            let mut svc: Box<dyn ServiceSession> = match open.engine {
                EngineKind::Fluid => Box::new(FluidService::open(&session, &backing).unwrap()),
                EngineKind::Packet => {
                    Box::new(PacketService::open(&open.packet_engine().unwrap(), &session).unwrap())
                }
            };
            for (flow, src, dst, chunks, start) in feeds {
                svc.feed(&Transfer {
                    flow,
                    src: topo.node_by_name(src).unwrap(),
                    dst: topo.node_by_name(dst).unwrap(),
                    chunks,
                    chunk_bytes: ByteSize::bytes(open.chunk_bytes),
                    start: SimTime::from_secs_f64(start),
                })
                .unwrap();
            }
            advance_sliced(&mut *svc, 1.0);
            advance_sliced(&mut *svc, 2.5);
            let at_ckpt = events(&*svc);
            advance_sliced(&mut *svc, 6.0);
            let at_end = events(&*svc);
            assert!(
                0 < at_ckpt && at_ckpt < at_end,
                "{engine}: {at_ckpt} {at_end}"
            );

            let ckpt = dir.join(format!("{engine}.ckpt"));
            let mut script = format!("{{\"cmd\":\"open\",\"sid\":\"s\",{spec}}}\n");
            for (flow, src, dst, chunks, start) in feeds {
                script.push_str(&format!(
                    "{{\"cmd\":\"feed\",\"sid\":\"s\",\"flow\":{flow},\"src\":\"{src}\",\
                     \"dst\":\"{dst}\",\"chunks\":{chunks},\"start_secs\":{start}}}\n"
                ));
            }
            script.push_str(&format!(
                concat!(
                    r#"{{"cmd":"advance","sid":"s","to_secs":1}}"#,
                    "\n",
                    r#"{{"cmd":"advance","sid":"s","to_secs":2.5}}"#,
                    "\n",
                    r#"{{"cmd":"stats"}}"#,
                    "\n",
                    r#"{{"cmd":"checkpoint","sid":"s","path":"{ckpt}"}}"#,
                    "\n",
                    r#"{{"cmd":"close","sid":"s"}}"#,
                    "\n",
                    r#"{{"cmd":"stats"}}"#,
                    "\n",
                    r#"{{"cmd":"resume","sid":"r",{spec},"path":"{ckpt}"}}"#,
                    "\n",
                    r#"{{"cmd":"stats"}}"#,
                    "\n",
                    r#"{{"cmd":"advance","sid":"r","to_secs":1}}"#,
                    "\n",
                    r#"{{"cmd":"stats"}}"#,
                    "\n",
                    r#"{{"cmd":"advance","sid":"r","to_secs":6}}"#,
                    "\n",
                    r#"{{"cmd":"stats"}}"#,
                    "\n",
                    r#"{{"cmd":"advance","sid":"r","to_secs":2}}"#,
                    "\n",
                    r#"{{"cmd":"stats"}}"#,
                    "\n",
                    r#"{{"cmd":"close","sid":"r"}}"#,
                    "\n",
                ),
                spec = spec,
                ckpt = ckpt.display()
            ));
            let replies = run(&script);
            assert_eq!(replies.len(), 19, "{engine}: {replies:?}");
            let stats = |i: usize| stats_events(&replies[i]);
            // two advances count what the in-process session simulated
            assert_eq!(stats(6), (at_ckpt, vec![at_ckpt]), "{engine}");
            // close drains the run, but its final drain is not counted
            assert_ok(&replies[8]);
            assert_eq!(stats(9), (at_ckpt, vec![]), "{engine}");
            // a resumed session counts nothing until it advances...
            assert!(
                replies[10].contains("\"event\":\"resume\""),
                "{}",
                replies[10]
            );
            assert_eq!(stats(11), (at_ckpt, vec![0]), "{engine}");
            // ...and an advance behind its clock changes nothing
            assert_kind(&replies[12], "state");
            assert_eq!(stats(13), (at_ckpt, vec![0]), "{engine}");
            // its first advance adds its whole count, replayed history
            // included
            assert_ok(&replies[14]);
            assert_eq!(stats(15), (at_ckpt + at_end, vec![at_end]), "{engine}");
            assert_kind(&replies[16], "state");
            assert_eq!(stats(17), (at_ckpt + at_end, vec![at_end]), "{engine}");
            assert_ok(&replies[18]);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_session_whose_host_died_leaves_the_table() {
        use crate::daemon::{Daemon, DaemonConfig};
        use crate::host::tests::panicking_handle;
        use std::collections::BTreeMap;

        // once "d" is gone, `stats` lists only "a" and a request naming
        // "d" finds no session
        fn check_gone(stats: &str, later: &str) {
            assert!(
                stats.contains("\"sessions_open\":1,")
                    && stats.contains("\"conn_sessions\":1,\"sessions\":[{\"sid\":\"a\",")
                    && stats.ends_with("}]}")
                    && !stats.contains("\"sid\":\"d\"")
                    && !stats.contains("\"ok\":false"),
                "{stats}"
            );
            assert_kind(later, "state");
            assert!(later.contains(r#"no session \"d\""#), "{later}");
        }
        let open_a = concat!(
            r#"{"cmd":"open","sid":"a","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
            "\n",
        );
        let daemon = Daemon::new(DaemonConfig { workers: 1 });
        let run_with_dead = |script: String| {
            let shared = daemon.shared();
            let table = BTreeMap::from([("d".to_string(), panicking_handle(shared))]);
            let mut out = Vec::new();
            super::drive_table(&mut Cursor::new(script), &mut out, shared, table).unwrap();
            let out = String::from_utf8(out).unwrap();
            out.lines().map(str::to_string).collect::<Vec<_>>()
        };

        // the host dies on a session request, which frees its sid at once...
        let r = run_with_dead(format!(
            "{open_a}{{\"cmd\":\"advance\",\"sid\":\"d\",\"to_secs\":1}}\n\
             {{\"cmd\":\"snapshot\",\"sid\":\"d\"}}\n{{\"cmd\":\"stats\"}}\n"
        ));
        assert_eq!(r.len(), 4, "{r:?}");
        assert_ok(&r[0]);
        assert!(r[1].contains("died mid-request"), "{}", r[1]);
        check_gone(&r[3], &r[2]);

        // ...or while `stats` asks it for its counters, which then lists
        // only the live session; either way the sid is free again
        let r = run_with_dead(format!(
            "{open_a}{{\"cmd\":\"stats\"}}\n{{\"cmd\":\"advance\",\"sid\":\"d\",\"to_secs\":1}}\n\
             {{\"cmd\":\"open\",\"sid\":\"d\",\"engine\":\"fluid\",\"topology\":\"fig3\",\
             \"strategy\":\"urp\",\"horizon_secs\":5}}\n"
        ));
        assert_eq!(r.len(), 4, "{r:?}");
        check_gone(&r[1], &r[2]);
        assert_ok(&r[3]);
    }

    #[test]
    fn probe_fingerprint_streams_in_replies() {
        let script = concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7,"probe_fp":true}"#,
            "\n",
            r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":200,"start_secs":0}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":2}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        );
        let a = run(script);
        let b = run(script);
        assert!(a[2].contains("\"probe_fp\":\""), "{}", a[2]);
        assert!(a[3].contains("\"probe_fp\":\""), "{}", a[3]);
        assert_eq!(a, b, "fingerprints are deterministic");
        // without the flag, replies carry no fingerprint field
        let off = run(concat!(
            r#"{"cmd":"open","engine":"packet","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
            "\n",
            r#"{"cmd":"advance","to_secs":2}"#,
            "\n",
            r#"{"cmd":"close"}"#,
            "\n",
        ));
        assert!(!off.iter().any(|r| r.contains("probe_fp")), "{off:?}");
    }
}
