//! Transports: where connections come from.
//!
//! The protocol is plain newline-delimited JSON over any byte stream,
//! so a transport only has to yield [`Conn`]s — a buffered reader, a
//! writer, and a peer label. [`StdioTransport`] yields exactly one
//! (the classic `inrpp serve` pipe); [`SocketTransport`] listens on a
//! TCP address or a Unix-domain socket path and yields one per
//! accepted client, polling non-blockingly so a daemon shutdown flag
//! is observed promptly.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One accepted client: a line-oriented byte stream plus a display
/// label for diagnostics.
pub struct Conn {
    /// Request side (line-buffered).
    pub reader: Box<dyn BufRead + Send>,
    /// Reply side.
    pub writer: Box<dyn Write + Send>,
    /// Where the client came from (`"stdio"`, a TCP peer address,
    /// `"unix"`).
    pub peer: String,
}

/// A source of client connections.
pub trait Transport {
    /// Block (politely — checking `shutdown`) until the next client
    /// connects. `Ok(None)` means the transport is drained: stdio's
    /// single connection was already handed out, or `shutdown` was
    /// raised.
    fn accept(&mut self, shutdown: &AtomicBool) -> io::Result<Option<Conn>>;

    /// The bound address, when the transport has one (lets callers
    /// discover the port after binding `:0`).
    fn local_addr(&self) -> Option<String> {
        None
    }
}

/// The v1 transport: exactly one connection, on this process's stdio.
#[derive(Debug, Default)]
pub struct StdioTransport {
    used: bool,
}

impl StdioTransport {
    /// A fresh stdio transport (one connection available).
    pub fn new() -> Self {
        StdioTransport::default()
    }
}

impl Transport for StdioTransport {
    fn accept(&mut self, shutdown: &AtomicBool) -> io::Result<Option<Conn>> {
        if self.used || shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        self.used = true;
        // Stdin (not StdinLock): the conn is handed to another thread
        Ok(Some(Conn {
            reader: Box::new(BufReader::new(io::stdin())),
            writer: Box::new(io::stdout()),
            peer: "stdio".into(),
        }))
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

/// A socket listener: `"unix:/path/to.sock"` or any TCP bind address
/// (`"127.0.0.1:0"` picks a free port — read it back with
/// [`Transport::local_addr`]). The accept loop polls non-blockingly
/// every ~2 ms so the daemon's shutdown flag stops it promptly; a
/// bound Unix socket path is unlinked when the transport drops.
pub struct SocketTransport {
    listener: Listener,
}

impl SocketTransport {
    /// Bind the listen spec.
    pub fn bind(spec: &str) -> io::Result<Self> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                // a stale socket file from a dead daemon would fail the
                // bind; connecting clients are not affected by unlink
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                return Ok(SocketTransport {
                    listener: Listener::Unix(listener, path.to_string()),
                });
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("unix sockets are not available on this platform: {spec:?}"),
                ));
            }
        }
        let listener = TcpListener::bind(spec)?;
        listener.set_nonblocking(true)?;
        Ok(SocketTransport {
            listener: Listener::Tcp(listener),
        })
    }
}

impl Transport for SocketTransport {
    fn accept(&mut self, shutdown: &AtomicBool) -> io::Result<Option<Conn>> {
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let pending = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((stream, peer)) => {
                        stream.set_nonblocking(false)?;
                        // each reply is one complete line: send it now
                        // rather than wait to coalesce it with the next
                        stream.set_nodelay(true)?;
                        let reader = stream.try_clone()?;
                        Some(Conn {
                            reader: Box::new(BufReader::new(reader)),
                            writer: Box::new(stream),
                            peer: peer.to_string(),
                        })
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                #[cfg(unix)]
                Listener::Unix(l, path) => match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        let reader = stream.try_clone()?;
                        Some(Conn {
                            reader: Box::new(BufReader::new(reader)),
                            writer: Box::new(stream),
                            peer: format!("unix:{path}"),
                        })
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match pending {
                Some(conn) => return Ok(Some(conn)),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    fn local_addr(&self) -> Option<String> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok().map(|a| a.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => Some(format!("unix:{path}")),
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}
