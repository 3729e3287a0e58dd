//! Per-connection protocol driver: sid routing, seq echo, and the
//! connection-scoped session table.
//!
//! One [`drive_conn`] call serves one client for the connection's
//! lifetime. Session-scoped requests route by their `"sid"` to a
//! [`SessionHandle`]; requests without a `sid` address the *bare*
//! session (internally sid `""`), which reproduces the v1 single-
//! session protocol byte-for-byte — bare-session replies carry no
//! `sid` field at all.
//!
//! Teardown is deterministic: `close` joins the session's host thread
//! *before* the close reply is written, and client EOF / `exit` /
//! connection errors abort-and-join every remaining session before the
//! driver returns — so a client that saw a `close` reply (or the daemon
//! that saw the connection end) knows the session's checkpoint
//! directory, trace handle, and worker-slot claims are released.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::daemon::Shared;
use crate::host::{HostCmd, SessionHandle};
use crate::protocol::{
    append_fields, err_reply, hello_reply, num, opt_num_field, opt_str_field, parse_feed_req,
    parse_object, quote, str_field, OpenSpec,
};

/// Serve one client until EOF, `exit`, or `shutdown`. All open sessions
/// are torn down (aborted and joined) before this returns.
pub fn drive_conn(
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let mut sessions: BTreeMap<String, SessionHandle> = BTreeMap::new();
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(()); // EOF: SessionHandle::drop aborts + joins
        }
        let trimmed = line.trim();
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
            "stats" => stats_reply(shared, &sessions),
            "open" | "resume" => match sessions.entry(key) {
                std::collections::btree_map::Entry::Occupied(_) => {
                    err_reply("state", &already_open(&sid))
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    match OpenSpec::parse(&obj, cmd == "resume") {
                        Err(e) => err_reply("config", &e),
                        Ok(spec) => match SessionHandle::open(spec, shared.clone()) {
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
                match sessions.get(&key) {
                    None => err_reply("state", &no_session(&sid, &cmd)),
                    Some(handle) => match session_cmd(&obj, &cmd) {
                        Err(e) => err_reply("parse", &e),
                        Ok(HostCmd::Close) => {
                            let handle = sessions.remove(&key).expect("present");
                            handle.close() // joins the host before replying
                        }
                        Ok(host_cmd) => handle.request(host_cmd),
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
                // stop the whole daemon: tear down this connection's
                // sessions, acknowledge, and flag the accept loop
                for (_, handle) in std::mem::take(&mut sessions) {
                    handle.abort();
                }
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

fn reply(out: &mut dyn Write, r: String) -> io::Result<()> {
    writeln!(out, "{r}")?;
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
/// this connection's sessions, in sid order.
fn stats_reply(shared: &Shared, sessions: &BTreeMap<String, SessionHandle>) -> String {
    let s = &shared.stats;
    let opened = s.sessions_opened.load(Ordering::Relaxed);
    let closed = s.sessions_closed.load(Ordering::Relaxed);
    let mut per = String::new();
    for (i, (sid, handle)) in sessions.iter().enumerate() {
        if i > 0 {
            per.push(',');
        }
        per.push_str(&format!(
            "{{\"sid\":{},{}}}",
            quote(sid),
            handle.request(HostCmd::Stats)
        ));
    }
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
        let mut input = Cursor::new(script.to_string());
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
    fn seed_and_workers_must_be_exact_non_negative_integers() {
        // `as u64` used to turn -1 into 0 (the same session fingerprint
        // as seed 0), 7.9 into 7, and 1e30 into u64::MAX
        let mut script = String::new();
        for cmd in ["open", "resume"] {
            for field in ["seed", "workers"] {
                for bad in ["-1", "7.9", "1e30"] {
                    script.push_str(&format!(
                        "{{\"cmd\":\"{cmd}\",\"engine\":\"packet\",\"topology\":\"fig3\",\
                         \"strategy\":\"urp\",\"horizon_secs\":5,\"path\":\"x.ckpt\",\
                         \"{field}\":{bad}}}\n"
                    ));
                }
            }
        }
        let replies = run(&script);
        assert_eq!(replies.len(), 12, "{replies:?}");
        for r in &replies {
            assert_kind(r, "config");
            assert!(r.contains("must be a non-negative integer"), "{r}");
        }
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

        // the close reply was written only after the host thread was
        // joined, so the directory is free: remove and reopen it
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
