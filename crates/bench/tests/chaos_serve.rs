//! Chaos gate for the self-healing `inrpp serve`: SIGKILL a serving
//! process mid-run — inside a fault-plan outage window, after its
//! auto-checkpointer has published a few rotations — restart it from
//! the checkpoint directory, and require the recovered run's final
//! report to be **byte-equal** to an uninterrupted process's. The kill
//! lands between requests (the only instants a checkpoint is current),
//! which is exactly the contract `ckpt_every: 1` provides: at most one
//! advance of progress is lost, never correctness.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

struct Serve {
    child: Child,
    out: BufReader<ChildStdout>,
}

impl Serve {
    fn spawn() -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_inrpp"))
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn inrpp serve");
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        Serve { child, out }
    }

    /// Send one request line and read its reply line.
    fn roundtrip(&mut self, line: &str) -> String {
        let stdin = self.child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{line}").expect("write request");
        stdin.flush().expect("flush request");
        let mut reply = String::new();
        self.out.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "serve hung up on: {line}");
        reply.trim_end().to_string()
    }

    /// SIGKILL — no shutdown courtesy, the whole point of the test.
    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        self.child.wait().expect("reap serve");
    }

    fn wait(mut self) {
        drop(self.child.stdin.take()); // EOF ends the serve loop
        self.child.wait().expect("serve exit");
    }
}

fn open_line(dir: Option<&Path>) -> String {
    let ckpt = match dir {
        Some(d) => format!(",\"ckpt_dir\":\"{}\",\"ckpt_retain\":3", d.display()),
        None => String::new(),
    };
    format!(
        "{{\"cmd\":\"open\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\
         \"horizon_secs\":30,\"seed\":7,\
         \"faults\":\"linkdown@0.3:1; linkup@2:1\"{ckpt}}}"
    )
}

const FEEDS: [&str; 2] = [
    r#"{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":600,"start_secs":0}"#,
    r#"{"cmd":"feed","flow":2,"src":"2","dst":"3","chunks":250,"start_secs":0.12}"#,
];

#[test]
fn sigkill_mid_outage_recovers_to_a_byte_equal_report() {
    let dir = std::env::temp_dir().join(format!("inrpp-chaos-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();

    // victim: auto-checkpointing run, killed inside the outage window
    let mut victim = Serve::spawn();
    let opened = victim.roundtrip(&open_line(Some(&dir)));
    assert!(opened.contains("\"ok\":true"), "open failed: {opened}");
    for feed in FEEDS {
        assert!(victim.roundtrip(feed).contains("\"ok\":true"));
    }
    for (i, to) in ["0.5", "1", "1.5"].iter().enumerate() {
        let reply = victim.roundtrip(&format!("{{\"cmd\":\"advance\",\"to_secs\":{to}}}"));
        let want = format!("\"ckpt_seq\":{}", i + 1);
        assert!(reply.contains(&want), "advance {to}: {reply}");
    }
    victim.kill();

    // the victim published ckpt-000003.ckpt before dying; the link is
    // still down at 1.5s, so recovery restarts mid-outage
    assert!(dir.join("ckpt-000003.ckpt").exists(), "rotation on disk");

    // phoenix: recover from the newest checkpoint in the directory and
    // run to completion
    let mut phoenix = Serve::spawn();
    let resumed = phoenix.roundtrip(&format!(
        "{{\"cmd\":\"resume\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\
         \"horizon_secs\":30,\"seed\":7,\
         \"faults\":\"linkdown@0.3:1; linkup@2:1\",\"ckpt_dir\":\"{}\"}}",
        dir.display()
    ));
    assert!(
        resumed.contains("\"ok\":true") && resumed.contains("\"recovered_seq\":3"),
        "resume reply: {resumed}"
    );
    assert!(phoenix
        .roundtrip(r#"{"cmd":"advance","to_secs":5}"#)
        .contains("\"ok\":true"));
    let recovered = phoenix.roundtrip(r#"{"cmd":"close"}"#);
    phoenix.wait();

    // control: one process, never interrupted, no checkpointing at all
    let mut control = Serve::spawn();
    assert!(control.roundtrip(&open_line(None)).contains("\"ok\":true"));
    for feed in FEEDS {
        assert!(control.roundtrip(feed).contains("\"ok\":true"));
    }
    assert!(control
        .roundtrip(r#"{"cmd":"advance","to_secs":5}"#)
        .contains("\"ok\":true"));
    let straight = control.roundtrip(r#"{"cmd":"close"}"#);
    control.wait();

    assert_eq!(
        recovered, straight,
        "final report after SIGKILL + recovery must be byte-equal to the uninterrupted run"
    );

    fs::remove_dir_all(&dir).ok();
}

/// The kill can also land *before any checkpoint exists*: recovery then
/// has nothing to reopen, and the typed `checkpoint` error must say so
/// without crashing the new process — it stays up and accepts a fresh
/// `open` on the same connection.
#[test]
fn sigkill_before_first_checkpoint_yields_a_typed_error_then_a_fresh_start() {
    let dir = std::env::temp_dir().join(format!("inrpp-chaos-empty-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();

    let mut victim = Serve::spawn();
    assert!(victim
        .roundtrip(&open_line(Some(&dir)))
        .contains("\"ok\":true"));
    victim.kill(); // no advance ever ran: the directory is empty

    let mut phoenix = Serve::spawn();
    let resumed = phoenix.roundtrip(&format!(
        "{{\"cmd\":\"resume\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\
         \"horizon_secs\":30,\"seed\":7,\"ckpt_dir\":\"{}\"}}",
        dir.display()
    ));
    assert!(
        resumed.starts_with("{\"ok\":false,\"kind\":\"checkpoint\""),
        "typed recovery failure: {resumed}"
    );
    // the session loop survived the failed resume: start over from zero
    assert!(phoenix.roundtrip(&open_line(None)).contains("\"ok\":true"));
    let report = phoenix.roundtrip(r#"{"cmd":"close"}"#);
    assert!(report.contains("\"event\":\"close\""), "close: {report}");
    phoenix.wait();

    fs::remove_dir_all(&dir).ok();
}

// ===================================================================
// Socket transport: soak and chaos
// ===================================================================

/// A daemon child listening on a TCP port picked by the OS.
struct SocketServe {
    child: Child,
    addr: String,
}

impl SocketServe {
    fn spawn(workers: usize) -> SocketServe {
        let mut child = Command::new(env!("CARGO_BIN_EXE_inrpp"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn inrpp serve --listen");
        // the daemon announces its bound address as the first stdout line
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        out.read_line(&mut line).expect("read listening line");
        assert!(
            line.contains("\"event\":\"listening\""),
            "announcement: {line}"
        );
        let addr = line
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("addr in announcement")
            .to_string();
        SocketServe { child, addr }
    }

    fn connect(&self) -> std::net::TcpStream {
        // the listener is already bound when the announcement prints,
        // so a straight connect suffices
        std::net::TcpStream::connect(&self.addr).expect("connect to daemon")
    }

    fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    fn wait(mut self) {
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exit status: {status:?}");
    }
}

/// Send a whole script plus `exit` over one TCP connection and read
/// every reply to EOF.
fn tcp_script(stream: std::net::TcpStream, script: &str) -> Vec<String> {
    let mut w = stream.try_clone().expect("clone stream");
    w.write_all(script.as_bytes()).expect("send script");
    w.write_all(b"{\"cmd\":\"exit\"}\n").expect("send exit");
    w.flush().expect("flush");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect()
}

/// Soak: 8 clients hammer one daemon concurrently — mixed engines,
/// faults, checkpoints, multiple advances — and every reply stream must
/// be byte-equal to the same script run against a solo stdio process.
#[test]
fn socket_soak_eight_clients_match_solo_controls() {
    let dir = std::env::temp_dir().join(format!("inrpp-soak-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();

    let scripts: Vec<String> = (0..8)
        .map(|i| {
            let engine = if i % 2 == 0 { "packet" } else { "fluid" };
            let faults = if i % 3 == 0 {
                r#","faults":"linkdown@0.3:1; linkup@2:1""#
            } else {
                ""
            };
            format!(
                concat!(
                    r#"{{"cmd":"open","engine":"{engine}","topology":"fig3","strategy":"urp","#,
                    r#""horizon_secs":30,"seed":{seed}{faults}}}"#,
                    "\n",
                    r#"{{"cmd":"feed","flow":1,"src":"1","dst":"4","chunks":{chunks},"start_secs":0}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":1}}"#,
                    "\n",
                    r#"{{"cmd":"checkpoint","path":"{d}/soak-{i}.ckpt"}}"#,
                    "\n",
                    r#"{{"cmd":"advance","to_secs":3}}"#,
                    "\n",
                    r#"{{"cmd":"close"}}"#,
                    "\n",
                ),
                engine = engine,
                seed = 40 + i,
                faults = faults,
                chunks = 150 + 40 * i,
                d = dir.display(),
                i = i,
            )
        })
        .collect();

    // solo controls: each script against its own stdio serve process
    let controls: Vec<Vec<String>> = scripts
        .iter()
        .map(|script| {
            let mut serve = Serve::spawn();
            let replies: Vec<String> = script.lines().map(|line| serve.roundtrip(line)).collect();
            serve.wait();
            replies
        })
        .collect();

    let daemon = SocketServe::spawn(4);
    let clients: Vec<_> = scripts
        .iter()
        .map(|script| {
            let (stream, script) = (daemon.connect(), script.clone());
            std::thread::spawn(move || tcp_script(stream, &script))
        })
        .collect();
    for (i, (client, want)) in clients.into_iter().zip(&controls).enumerate() {
        let got = client.join().expect("client thread");
        assert_eq!(&got, want, "soak client {i} must match its solo control");
    }

    // clean shutdown: the daemon acknowledges and its process exits 0
    let mut stream = daemon.connect();
    stream
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    stream.flush().expect("flush");
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).expect("ack");
    assert!(ack.contains("\"event\":\"shutdown\""), "ack: {ack}");
    daemon.wait();

    fs::remove_dir_all(&dir).ok();
}

/// The SIGKILL gate, socket edition: kill the whole daemon while a TCP
/// session sits mid-outage with auto-checkpoints on disk, then recover
/// through a fresh daemon and require the byte-equal final report.
#[test]
fn sigkill_socket_daemon_mid_outage_recovers_to_a_byte_equal_report() {
    let dir = std::env::temp_dir().join(format!("inrpp-chaos-sock-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();

    let drive = |stream: std::net::TcpStream, lines: &[String]| -> Vec<String> {
        let mut w = stream.try_clone().expect("clone stream");
        let mut r = BufReader::new(stream);
        lines
            .iter()
            .map(|line| {
                writeln!(w, "{line}").expect("send");
                w.flush().expect("flush");
                let mut reply = String::new();
                r.read_line(&mut reply).expect("reply");
                assert!(!reply.is_empty(), "daemon hung up on: {line}");
                reply.trim_end().to_string()
            })
            .collect()
    };

    // victim daemon: a faulted auto-checkpointing session over TCP
    let victim = SocketServe::spawn(2);
    let mut head =
        vec![open_line(Some(&dir)).replace("\"ckpt_retain\":3", "\"ckpt_retain\":3,\"sid\":\"v\"")];
    head.extend(
        FEEDS
            .iter()
            .map(|f| f.replace("{\"cmd\"", "{\"sid\":\"v\",\"cmd\"")),
    );
    for to in ["0.5", "1", "1.5"] {
        head.push(format!(
            "{{\"cmd\":\"advance\",\"sid\":\"v\",\"to_secs\":{to}}}"
        ));
    }
    let replies = drive(victim.connect(), &head);
    for r in &replies {
        assert!(r.contains("\"ok\":true"), "victim setup: {r}");
    }
    assert!(replies.last().unwrap().contains("\"ckpt_seq\":3"));
    victim.kill(); // SIGKILL: no shutdown, sockets drop mid-session

    assert!(dir.join("ckpt-000003.ckpt").exists(), "rotation on disk");

    // phoenix daemon: recover the run over a new connection
    let phoenix = SocketServe::spawn(2);
    let tail = vec![
        format!(
            "{{\"cmd\":\"resume\",\"engine\":\"packet\",\"topology\":\"fig3\",\"strategy\":\"urp\",\
             \"horizon_secs\":30,\"seed\":7,\
             \"faults\":\"linkdown@0.3:1; linkup@2:1\",\"ckpt_dir\":\"{}\"}}",
            dir.display()
        ),
        r#"{"cmd":"advance","to_secs":5}"#.to_string(),
        r#"{"cmd":"close"}"#.to_string(),
    ];
    let recovered = drive(phoenix.connect(), &tail);
    assert!(
        recovered[0].contains("\"recovered_seq\":3"),
        "resume: {}",
        recovered[0]
    );
    let mut bye = phoenix.connect();
    bye.write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("shutdown");
    bye.flush().expect("flush");
    let mut ack = String::new();
    BufReader::new(bye).read_line(&mut ack).expect("ack");
    phoenix.wait();

    // control: an uninterrupted stdio run, no checkpointing
    let mut control = Serve::spawn();
    assert!(control.roundtrip(&open_line(None)).contains("\"ok\":true"));
    for feed in FEEDS {
        assert!(control.roundtrip(feed).contains("\"ok\":true"));
    }
    assert!(control
        .roundtrip(r#"{"cmd":"advance","to_secs":5}"#)
        .contains("\"ok\":true"));
    let straight = control.roundtrip(r#"{"cmd":"close"}"#);
    control.wait();

    assert_eq!(
        recovered.last().unwrap(),
        &straight,
        "socket SIGKILL recovery must end byte-equal to the uninterrupted run"
    );

    fs::remove_dir_all(&dir).ok();
}

/// Sessions are coroutines on their connection's thread: opening 16
/// idle sessions on one connection, and closing them again, leaves the
/// daemon's thread count where the connection alone put it.
#[cfg(target_os = "linux")]
#[test]
fn idle_sessions_add_no_daemon_threads() {
    let daemon = SocketServe::spawn(2);
    let stream = daemon.connect();
    let mut w = stream.try_clone().expect("clone stream");
    let mut r = BufReader::new(stream);
    let mut roundtrip = |line: &str| {
        writeln!(w, "{line}").expect("send");
        w.flush().expect("flush");
        let mut reply = String::new();
        r.read_line(&mut reply).expect("reply");
        assert!(reply.contains("\"ok\":true"), "{line}: {reply}");
    };
    let tasks = Path::new("/proc")
        .join(daemon.child.id().to_string())
        .join("task");
    let threads = || fs::read_dir(&tasks).expect("daemon task list").count();

    roundtrip(r#"{"cmd":"hello"}"#);
    let connected = threads();
    for i in 0..16 {
        roundtrip(&format!(
            "{{\"cmd\":\"open\",\"sid\":\"idle-{i}\",\"engine\":\"fluid\",\"topology\":\"fig3\",\
             \"strategy\":\"urp\",\"horizon_secs\":30}}"
        ));
    }
    let idle = threads();
    for i in 0..16 {
        roundtrip(&format!("{{\"cmd\":\"close\",\"sid\":\"idle-{i}\"}}"));
    }
    let closed = threads();
    daemon.kill();
    assert_eq!(
        (connected, idle, closed),
        (connected, connected, connected),
        "daemon threads after hello, with 16 idle sessions, after closing them"
    );
}
