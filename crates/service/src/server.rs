//! The TCP front end of `roofd`: accept loop, one thread per
//! connection, JSON-lines framing — hardened against hostile peers.
//!
//! All protocol behaviour lives in [`crate::protocol`]; this module only
//! moves lines between sockets and the engine. A connection stays open
//! across errors — a malformed request, an unknown experiment, or a
//! faulted platform spec each produce a response envelope, and the next
//! line on the same connection is served normally. The hardening on top
//! of that:
//!
//! * **read/write timeouts** — a peer that connects and then dribbles
//!   (or sends nothing) is closed once [`ServerConfig::read_timeout`]
//!   passes without a *completed* request line; the idle clock resets
//!   per line, not per byte, so a slow-loris drip cannot hold a socket
//!   open indefinitely;
//! * **line-length cap** — a newline-less stream is answered with a
//!   `line-too-long` error envelope and closed at
//!   [`ServerConfig::max_line_bytes`], instead of buffering without
//!   bound;
//! * **connection gate** — at most [`ServerConfig::max_connections`]
//!   concurrent connections; excess peers get a seq-less `busy`
//!   envelope and are closed, counted in the `shed` stat, instead of
//!   spawning threads forever;
//! * **auth lockout** — a connection that keeps failing `auth` is
//!   closed after [`crate::protocol::MAX_FAILED_AUTHS`] attempts
//!   (the protocol layer raises [`crate::protocol::Dispatch::close`];
//!   this layer hangs up), so bearer tokens cannot be brute-forced at
//!   line rate over one socket;
//! * **graceful shutdown** — the `shutdown` protocol command (or
//!   [`ShutdownHandle::trigger`]) wakes the blocking accept loop by
//!   connecting to the listener, lets every in-flight request finish,
//!   and joins the workers. (std-only, no signal handler: a SIGTERM is
//!   an abrupt stop; use `roofctl shutdown` for a clean one.)

use crate::engine::Engine;
use crate::fleet::HealthProber;
use crate::protocol::{dispatch_session, error_code, error_envelope, Session};
use roofline_core::json::{Envelope, Json};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Transport-level hardening knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// A connection is closed after this long without a completed
    /// request line (slow-loris defense; the clock resets per line).
    pub read_timeout: Duration,
    /// Socket write timeout — a peer that stops draining its receive
    /// buffer cannot wedge a worker mid-response.
    pub write_timeout: Duration,
    /// Longest accepted request line; beyond it the connection gets a
    /// `line-too-long` error and is closed.
    pub max_line_bytes: usize,
    /// Concurrent-connection cap; excess peers are shed with a `busy`
    /// envelope.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(30),
            max_line_bytes: 1 << 20,
            max_connections: 256,
        }
    }
}

/// How often an idle worker's blocked read wakes to re-check its idle
/// deadline and the shutdown flag, and so how long a drain can wait on an
/// idle connection. Accepts never wait on it.
const POLL_QUANTUM: Duration = Duration::from_millis(100);

/// A handle that asks a running [`Server::serve`] loop to shut down
/// gracefully: stop accepting, drain in-flight requests, join workers.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>, SocketAddr);

impl ShutdownHandle {
    /// Requests shutdown; idempotent. Sets the flag, then connects to the
    /// listener's address (an unspecified IP mapped to loopback) to wake a
    /// blocked `accept`; the kernel queues that connection in the backlog,
    /// so a trigger racing the accept loop is not lost.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.1);
    }
}

/// A bound, not-yet-serving server: the listener exists (so the port is
/// known and clients can be pointed at it) but the accept loop has not
/// started.
pub struct Server {
    listener: TcpListener,
    engine: Engine,
    cfg: ServerConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick a free port) with
    /// default hardening knobs.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine) -> io::Result<Server> {
        Server::bind_with(addr, engine, ServerConfig::default())
    }

    /// Binds with explicit hardening knobs.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        engine: Engine,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        Ok(Server::from_listener(TcpListener::bind(addr)?, engine, cfg))
    }

    /// Wraps an already-bound listener — for callers that must know every
    /// node's port *before* building the engines behind them (a fleet's
    /// peer list names addresses the engines are configured with).
    pub fn from_listener(listener: TcpListener, engine: Engine, cfg: ServerConfig) -> Server {
        let mut wake = listener.local_addr().expect("a bound listener has an address");
        match &mut wake {
            SocketAddr::V4(a) if a.ip().is_unspecified() => a.set_ip(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(a) if a.ip().is_unspecified() => a.set_ip(Ipv6Addr::LOCALHOST),
            _ => {}
        }
        Server {
            listener,
            engine,
            cfg,
            shutdown: ShutdownHandle(Arc::new(AtomicBool::new(false)), wake),
        }
    }

    /// The bound address, e.g. `127.0.0.1:47130`.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server's [`Server::serve`] loop from
    /// another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serves until shutdown: accepts connections (shedding beyond the
    /// concurrency cap), spawns one serving thread each, and on shutdown
    /// stops accepting, drains in-flight requests, and joins every
    /// worker. Accept errors are transient (a client can abort between
    /// `accept` starting and finishing) and are logged, not fatal.
    ///
    /// # Errors
    ///
    /// None today: per-connection errors are contained to their connection.
    pub fn serve(self) -> io::Result<()> {
        self.accept_loop(None)
    }

    /// [`Server::serve`] that stops accepting after exactly `n` served
    /// connections (shed ones do not count), then drains and returns —
    /// the deterministic variant the e2e tests and `roofd --connections`
    /// use so the server thread can be joined instead of killed.
    ///
    /// # Errors
    ///
    /// As [`Server::serve`].
    pub fn serve_n(self, n: usize) -> io::Result<()> {
        self.accept_loop(Some(n))
    }

    fn accept_loop(self, limit: Option<usize>) -> io::Result<()> {
        // Fleet nodes probe their peers for as long as they serve; the
        // prober stops (via Drop) when the accept loop exits.
        let _prober = self.engine.fleet().map(HealthProber::spawn);
        let active = Arc::new(AtomicUsize::new(0));
        let mut served = 0;
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        while limit.is_none_or(|n| served < n) {
            workers.retain(|w| !w.is_finished());
            match self.listener.accept() {
                // A trigger's wake connection: never shed, counted or served.
                _ if self.shutdown.0.load(Ordering::SeqCst) => break,
                Ok((stream, _peer)) => {
                    if active.load(Ordering::SeqCst) >= self.cfg.max_connections.max(1) {
                        self.engine.note_shed();
                        shed(stream, &self.cfg);
                        continue;
                    }
                    served += 1;
                    active.fetch_add(1, Ordering::SeqCst);
                    let engine = self.engine.clone();
                    let cfg = self.cfg.clone();
                    let shutdown = self.shutdown.clone();
                    let active = Arc::clone(&active);
                    workers.push(thread::spawn(move || {
                        if let Err(e) = serve_connection(stream, &engine, &cfg, &shutdown) {
                            // A vanished client is normal; log and move on.
                            eprintln!("roofd: connection ended: {e}");
                        }
                        active.fetch_sub(1, Ordering::SeqCst);
                    }));
                }
                Err(e) => eprintln!("roofd: accept failed: {e}"),
            }
        }
        // Drain: idle workers see the flag within a poll quantum; busy ones finish first.
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Sheds one over-cap connection: writes a seq-less `busy` envelope
/// (there is no request to echo a seq from — the peer was refused before
/// its first line was read) and drops the socket.
fn shed(mut stream: TcpStream, cfg: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let env = Envelope::new("busy")
        .field("reason", Json::str("connections"))
        .field("queued", Json::num(0.0))
        .field("backlog_ms", Json::num(0.0));
    let _ = stream.write_all(env.to_line().as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Serves one connection to completion: one response line per request
/// line, until the client closes its half, a timeout or cap trips, or
/// the server shuts down.
fn serve_connection(
    stream: TcpStream,
    engine: &Engine,
    cfg: &ServerConfig,
    shutdown: &ShutdownHandle,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_QUANTUM.min(cfg.read_timeout)))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    // Response lines are tiny and latency-bound; without this, Nagle +
    // delayed ACKs add ~40 ms to every request's round trip.
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Per-connection identity: anonymous until a successful `auth`.
    let mut session = Session::default();
    // The slow-loris clock: reset only when a complete line is served,
    // so dribbling one byte per poll cannot extend a connection's life.
    let mut idle_deadline = Instant::now() + cfg.read_timeout;
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes[..pos]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let d = dispatch_session(engine, &mut session, line);
            if engine.lottery().disconnect() {
                // Chaos: the peer sees its connection die after the
                // request was read but before the response is written.
                return Ok(());
            }
            writer.write_all(d.reply.to_line().as_bytes())?;
            writer.write_all(b"\n")?;
            if d.shutdown {
                shutdown.trigger();
                return Ok(());
            }
            if d.close {
                // Too many failed auth attempts: the reply is written,
                // the socket is done — reconnecting is the throttle.
                return Ok(());
            }
            idle_deadline = Instant::now() + cfg.read_timeout;
        }
        if buf.len() > cfg.max_line_bytes {
            let env = error_envelope(
                None,
                error_code::LINE_TOO_LONG,
                format!(
                    "request line exceeds {} bytes without a newline",
                    cfg.max_line_bytes
                ),
            );
            writer.write_all(env.to_line().as_bytes())?;
            writer.write_all(b"\n")?;
            return Ok(());
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Ok(()), // client closed its half
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.0.load(Ordering::SeqCst) || Instant::now() >= idle_deadline {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
