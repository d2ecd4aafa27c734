//! The client side of the roofd protocol — what `roofctl` and the e2e
//! tests are built on.
//!
//! Besides the plain request/response calls, this module provides the
//! client half of the resilience story: [`ClientError::is_retryable`]
//! classifies transient failures (`busy`, `timeout`, connection resets,
//! mid-request disconnects), and [`run_with_retries`] reconnects and
//! retries them under a deterministic seeded jittered exponential
//! backoff ([`RetryPolicy`]) — the same reproducibility discipline the
//! sweep executor applies to everything else: two clients with the same
//! seed back off identically.

use crate::cache::{status_from_str, CachedResult};
use crate::protocol::{decode_result, field_str, field_strs};
use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use roofline_core::json::{Envelope, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket broke (connect, read, or write).
    Io(io::Error),
    /// The server's reply was not a parseable envelope.
    Protocol(String),
    /// The server answered with an `error` envelope.
    Server {
        /// Machine-readable code (`bad-request`, `invalid-platform`, …).
        code: String,
        /// Human-readable elaboration.
        detail: String,
    },
    /// The server answered `busy` (backpressure); retry later.
    Busy {
        /// Computations waiting for a worker slot at rejection time.
        queued: u64,
        /// Budgeted backlog at rejection time, in milliseconds.
        backlog_ms: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry surfaces as EAGAIN
            // (`WouldBlock`) on Unix, and as `TimedOut` elsewhere.
            ClientError::Io(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                write!(f, "timed out waiting for the server: {e}")
            }
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, detail } => write!(f, "server error [{code}]: {detail}"),
            ClientError::Busy { queued, backlog_ms } => write!(
                f,
                "server busy: {queued} queued, {backlog_ms} ms of budgeted backlog"
            ),
        }
    }
}

impl ClientError {
    /// True when the failure is transient and the request is safe to
    /// retry on a fresh connection: server backpressure (`busy`), an
    /// expired request deadline (`timeout`), a fair-share quota
    /// rejection (`quota` — the bucket refills continuously, so backing
    /// off *is* the fix), and the socket-level failures a mid-request
    /// disconnect or restart produces. Requests are idempotent (results
    /// are pure functions of the request tuple), so retrying can never
    /// double-apply anything.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Busy { .. } => true,
            ClientError::Server { code, .. } => code == "timeout" || code == "quota",
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
            ),
            ClientError::Protocol(_) => false,
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Deterministic jittered exponential backoff for retryable failures.
///
/// Attempt `k` (zero-based) sleeps a duration drawn uniformly from
/// `[base·2ᵏ/2, base·2ᵏ)`, capped at `cap_ms` — jitter de-synchronizes
/// a thundering herd of clients, and seeding the jitter keeps any one
/// client's schedule reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). 1 means no retries.
    pub attempts: u32,
    /// Base backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_ms: 100,
            cap_ms: 5_000,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (zero-based), in milliseconds.
    /// Pure function of `(seed, attempt)`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms.max(1));
        // xorshift64* over seed⊕attempt: independent draws per attempt,
        // reproducible across runs.
        let mut x = (self.seed ^ (attempt as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let draw = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        // Uniform in [exp/2, exp).
        exp / 2 + draw % (exp - exp / 2).max(1)
    }
}

/// Everything one `run` request can carry — the full-options form of
/// the `(experiment, platform, fidelity)` tuple used by the fleet's
/// peer fetches and the load generator.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Which experiment to run.
    pub experiment: Experiment,
    /// Platform spec, optional fault suffix included.
    pub platform: String,
    /// Problem-size fidelity.
    pub fidelity: Fidelity,
    /// The shared fleet secret ([`crate::fleet::FleetConfig::secret`]).
    /// A `run` whose token verifies is a fleet-internal cache-peer
    /// fetch: the server serves it locally (never forwards again) and
    /// exempts it from quota charging — the ingress node already charged
    /// the tenant. `None` (or a wrong value) leaves the request charged
    /// to the session tenant.
    pub fleet_token: Option<String>,
    /// Bearer token to authenticate with before running; `None` runs
    /// as the anonymous tenant.
    pub token: Option<String>,
}

impl RunOpts {
    /// Plain client options: no fleet token, no bearer token.
    pub fn new(experiment: Experiment, platform: &str, fidelity: Fidelity) -> RunOpts {
        RunOpts {
            experiment,
            platform: platform.to_string(),
            fidelity,
            fleet_token: None,
            token: None,
        }
    }
}

/// Runs one request with retries: each attempt opens a fresh connection
/// (a mid-request disconnect leaves the old one useless), authenticates
/// with `opts.token` when set, and retryable failures back off per
/// `policy`. `io_timeout` bounds each attempt's connect/read/write; pass
/// `None` to block indefinitely.
///
/// An overall wall-clock `deadline` bounds the whole call: no attempt
/// starts (and no backoff sleeps) past it, and each attempt's I/O
/// timeout is clamped to the time remaining. This is what the fleet's
/// cache-peer fetch runs on — a fetch holds a worker slot, so it must
/// cost at most the requesting client's own deadline before the
/// local-compute fallback, however dead the owning node is.
///
/// # Errors
///
/// The last attempt's error, once `policy.attempts` are exhausted or a
/// non-retryable error (bad request, protocol violation) occurs. An
/// already-expired deadline fails with a retryable `TimedOut` I/O error
/// without touching the network.
pub fn run_with_retries(
    addr: impl ToSocketAddrs,
    opts: &RunOpts,
    policy: &RetryPolicy,
    io_timeout: Option<Duration>,
    deadline: Option<Instant>,
) -> Result<RunReply, ClientError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let mut last = None;
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            let backoff = Duration::from_millis(policy.backoff_ms(attempt - 1));
            if deadline.is_some_and(|d| Instant::now() + backoff >= d) {
                break;
            }
            std::thread::sleep(backoff);
        }
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if remaining.is_some_and(|r| r.is_zero()) {
            break;
        }
        let attempt_timeout = io_timeout.into_iter().chain(remaining).min();
        let result = Client::connect_with(&addrs[..], attempt_timeout)
            .map_err(ClientError::from)
            .and_then(|mut client| {
                if let Some(token) = &opts.token {
                    client.auth(token)?;
                }
                client.run_opt(opts)
            });
        match result {
            Ok(reply) => return Ok(reply),
            Err(e) if e.is_retryable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        ClientError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "request deadline expired before any attempt could start",
        ))
    }))
}

/// One `result` response, decoded.
#[derive(Debug, Clone)]
pub struct RunReply {
    /// Terminal status of the computation (`pass`, `degraded`, `failed`).
    pub status: String,
    /// `true` when the response was served from cache (either tier).
    pub cache_hit: bool,
    /// Payload provenance: `computed`, `coalesced`, `mem`, or `disk`.
    pub source: String,
    /// End-to-end request latency reported by the server, ms.
    pub elapsed_ms: u64,
    /// The experiment's registry wall budget, ms.
    pub budget_ms: u64,
    /// True when the computation ran over that budget.
    pub over_budget: bool,
    /// Wall time of the computation itself, ms; absent on disk hits.
    pub compute_ms: Option<u64>,
    /// Error class for failed computations.
    pub error: Option<String>,
    /// Human-readable failure/degradation detail.
    pub detail: Option<String>,
    /// Integrity-guard verdicts for degraded (faulted-platform) runs.
    pub integrity: Vec<String>,
    /// The normalized artifact tree, name → contents.
    pub artifacts: BTreeMap<String, String>,
}

impl RunReply {
    /// The cacheable payload of this reply — what a fleet peer fetch
    /// installs. Compute time belongs to the serving node, so it is
    /// dropped, as on a disk reload.
    pub(crate) fn into_result(self) -> CachedResult {
        CachedResult {
            status: status_from_str(&self.status).expect("run_opt decodes known statuses only"),
            error: self.error,
            detail: self.detail,
            integrity: self.integrity,
            compute_ms: None,
            tree: self.artifacts,
        }
    }
}

/// A connected roofd client. One request is in flight at a time;
/// responses are matched by an auto-incremented `seq`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_seq: u64,
}

impl Client {
    /// Connects to a roofd server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, None)
    }

    /// Connects with an I/O timeout applied to connect, reads, and
    /// writes — a wedged or vanished server surfaces as a retryable
    /// `TimedOut`/`WouldBlock` error instead of a hang.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        io_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to");
        let mut stream = None;
        for a in addr.to_socket_addrs()? {
            let attempt = match io_timeout {
                Some(t) => TcpStream::connect_timeout(&a, t),
                None => TcpStream::connect(a),
            };
            match attempt {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = e,
            }
        }
        let stream = stream.ok_or(last)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        // Request lines are tiny and latency-bound; Nagle batching only
        // adds delayed-ACK stalls to every round trip.
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_seq: 0,
        })
    }

    /// Sends one raw envelope (a fresh `seq` is stamped on) and returns
    /// the reply when its kind matches `expected` — the building block
    /// for fleet-internal commands whose envelopes are assembled by the
    /// caller (e.g. `replicate`).
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; an unexpected reply kind is a `Protocol`
    /// error.
    pub fn request(&mut self, env: Envelope, expected: &str) -> Result<Envelope, ClientError> {
        let reply = self.round_trip(env)?;
        if reply.kind != expected {
            return Err(ClientError::Protocol(format!(
                "expected {expected}, got {}",
                reply.kind
            )));
        }
        Ok(reply)
    }

    fn round_trip(&mut self, env: Envelope) -> Result<Envelope, ClientError> {
        let seq = format!("c{}", self.next_seq);
        self.next_seq += 1;
        let line = env.seq(&seq).to_line();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            // EOF mid-request: the server (or a chaos fault) dropped the
            // connection. Classified as I/O, not protocol, so it is
            // retryable.
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-request",
            )));
        }
        let reply =
            Envelope::parse_line(reply.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))?;
        // A seq-less `busy` is the connection-shed envelope, written at
        // accept time before any request was read — no seq existed to
        // echo. Every other reply must echo ours.
        if reply.seq.as_deref() != Some(seq.as_str())
            && !(reply.kind == "busy" && reply.seq.is_none())
        {
            return Err(ClientError::Protocol(format!(
                "response seq {:?} does not match request seq {seq:?}",
                reply.seq
            )));
        }
        match reply.kind.as_str() {
            "error" => Err(ClientError::Server {
                code: field_str(&reply, "code").unwrap_or_default(),
                detail: field_str(&reply, "detail").unwrap_or_default(),
            }),
            "busy" => Err(ClientError::Busy {
                queued: field_u64(&reply, "queued").unwrap_or(0),
                backlog_ms: field_u64(&reply, "backlog_ms").unwrap_or(0),
            }),
            _ => Ok(reply),
        }
    }

    /// Health check.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(Envelope::new("ping"), "pong").map(|_| ())
    }

    /// Authenticates this connection with a bearer token; every
    /// subsequent request is accounted to the returned tenant. Returns
    /// `(tenant, weight)`.
    ///
    /// # Errors
    ///
    /// An unknown token is a `Server` error with code `unauthorized`
    /// (the connection survives, as the anonymous tenant).
    pub fn auth(&mut self, token: &str) -> Result<(String, f64), ClientError> {
        let env = Envelope::new("auth").field("token", Json::str(token));
        let reply = self.request(env, "authed")?;
        Ok((
            field_str(&reply, "tenant")
                .ok_or_else(|| ClientError::Protocol("authed lacks a tenant".to_string()))?,
            reply.get("weight").and_then(Json::as_f64).unwrap_or(1.0),
        ))
    }

    /// Requests one analysis and blocks until the result arrives.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; note that a *failed experiment* is still an
    /// `Ok` reply (with `status == "failed"`) — only transport, protocol,
    /// and admission problems are `Err`.
    pub fn run(
        &mut self,
        experiment: Experiment,
        platform: &str,
        fidelity: Fidelity,
    ) -> Result<RunReply, ClientError> {
        self.run_opt(&RunOpts::new(experiment, platform, fidelity))
    }

    /// [`Client::run`] with the full request options. The `token` field
    /// is ignored here — authenticate the connection once with
    /// [`Client::auth`] instead ([`run_with_retries`] does both).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn run_opt(&mut self, opts: &RunOpts) -> Result<RunReply, ClientError> {
        let mut env = Envelope::new("run")
            .field("experiment", Json::str(opts.experiment.id()))
            .field("platform", Json::str(&opts.platform))
            .field("fidelity", Json::str(opts.fidelity.label()));
        if let Some(fleet_token) = &opts.fleet_token {
            env = env.field("fleet_token", Json::str(fleet_token));
        }
        let reply = self.request(env, "result")?;
        let result = decode_result(&reply).map_err(ClientError::Protocol)?;
        Ok(RunReply {
            status: result.status.as_str().to_string(),
            cache_hit: field_str(&reply, "cache").as_deref() == Some("hit"),
            source: field_str(&reply, "source").unwrap_or_default(),
            elapsed_ms: field_u64(&reply, "elapsed_ms").unwrap_or(0),
            budget_ms: field_u64(&reply, "budget_ms").unwrap_or(0),
            over_budget: reply
                .get("over_budget")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            compute_ms: field_u64(&reply, "compute_ms"),
            error: result.error,
            detail: result.detail,
            integrity: result.integrity,
            artifacts: result.tree,
        })
    }

    /// Fetches the server's counters as `(name, value)` pairs, in the
    /// server's reporting order. Nested fields (the per-tenant block)
    /// are skipped; use [`Client::stats_raw`] for the full envelope.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        let reply = self.stats_raw()?;
        Ok(reply
            .fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect())
    }

    /// Fetches the full `stats` envelope, per-tenant block included —
    /// what the load generator reads per-node hit rates and per-tenant
    /// counters out of.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats_raw(&mut self) -> Result<Envelope, ClientError> {
        self.request(Envelope::new("stats"), "stats")
    }

    /// Asks the server to shut down gracefully: it acknowledges, stops
    /// accepting, drains in-flight requests, and joins its workers.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(Envelope::new("shutdown"), "shutting-down")
            .map(|_| ())
    }

    /// Authenticated fleet ping: proves membership with `fleet_token`
    /// and advertises the sender's `epoch` and address, receiving the
    /// responder's live epoch plus its membership version and member
    /// list (the gossip channel `join`/`leave` propagate over).
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a wrong token is a `Server` error with code
    /// `unauthorized`.
    pub fn fleet_ping(
        &mut self,
        fleet_token: &str,
        epoch: u64,
        from: &str,
        version: u64,
        members: &[String],
    ) -> Result<FleetPong, ClientError> {
        let env = Envelope::new("ping")
            .field("fleet_token", Json::str(fleet_token))
            .field("epoch", Json::num(epoch as f64))
            .field("from", Json::str(from))
            .field("version", Json::num(version as f64))
            .field("members", Json::Arr(members.iter().map(Json::str).collect()));
        let reply = self.request(env, "pong")?;
        Ok(FleetPong {
            epoch: field_u64(&reply, "epoch").unwrap_or(0),
            version: field_u64(&reply, "version").unwrap_or(0),
            members: field_strs(&reply, "members"),
        })
    }

    /// Admin `join`: asks the server to admit `peer` to its fleet
    /// member list (the health prober gossips the new list to the rest
    /// of the fleet). Requires the fleet secret. Returns the server's
    /// updated membership.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a wrong secret is `unauthorized`.
    pub fn join(&mut self, fleet_token: &str, peer: &str) -> Result<MembershipReply, ClientError> {
        self.admin_membership("join", "joined", fleet_token, peer)
    }

    /// Admin `leave`: asks the server to remove `peer` from its fleet
    /// member list. Requires the fleet secret. Returns the server's
    /// updated membership.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a wrong secret is `unauthorized`.
    pub fn leave(&mut self, fleet_token: &str, peer: &str) -> Result<MembershipReply, ClientError> {
        self.admin_membership("leave", "left", fleet_token, peer)
    }

    fn admin_membership(
        &mut self,
        kind: &str,
        expected: &str,
        fleet_token: &str,
        peer: &str,
    ) -> Result<MembershipReply, ClientError> {
        let env = Envelope::new(kind)
            .field("fleet_token", Json::str(fleet_token))
            .field("peer", Json::str(peer));
        let reply = self.request(env, expected)?;
        Ok(MembershipReply {
            changed: reply.get("changed").and_then(Json::as_bool).unwrap_or(false),
            epoch: field_u64(&reply, "epoch").unwrap_or(0),
            version: field_u64(&reply, "version").unwrap_or(0),
            peers: field_strs(&reply, "peers"),
        })
    }

    /// Admin `drain`: the server stops admitting new computations
    /// (fresh flights answer retryable `busy`) while cache hits and
    /// in-flight work still serve — run before `leave` to shrink the
    /// fleet without dropping anything. Requires the fleet secret.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a wrong secret is `unauthorized`.
    pub fn drain(&mut self, fleet_token: &str) -> Result<(), ClientError> {
        let env = Envelope::new("drain").field("fleet_token", Json::str(fleet_token));
        self.request(env, "draining").map(|_| ())
    }

    /// Purges the server's caches; returns `(memory, disk)` entry counts.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn purge(&mut self) -> Result<(u64, u64), ClientError> {
        let reply = self.request(Envelope::new("purge"), "purged")?;
        Ok((
            field_u64(&reply, "memory_entries").unwrap_or(0),
            field_u64(&reply, "disk_entries").unwrap_or(0),
        ))
    }
}

/// What an authenticated fleet ping gets back — see
/// [`Client::fleet_ping`].
#[derive(Debug, Clone)]
pub struct FleetPong {
    /// The responder's live-view epoch.
    pub epoch: u64,
    /// The responder's membership version (bumped by `join`/`leave`).
    pub version: u64,
    /// The responder's full member list, suspects included.
    pub members: Vec<String>,
}

/// The server's membership after a `join`/`leave` admin command.
#[derive(Debug, Clone)]
pub struct MembershipReply {
    /// True when the command actually changed the member list.
    pub changed: bool,
    /// The live-view epoch after the command.
    pub epoch: u64,
    /// The membership version after the command.
    pub version: u64,
    /// The live peers after the command, sorted.
    pub peers: Vec<String>,
}

fn field_u64(env: &Envelope, name: &str) -> Option<u64> {
    env.get(name).and_then(Json::as_u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_timeouts_display_as_timeouts() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            let shown = ClientError::Io(io::Error::from(kind)).to_string();
            assert!(
                shown.starts_with("timed out waiting for the server: "),
                "{shown}"
            );
        }
        let refused = ClientError::Io(io::Error::from(io::ErrorKind::ConnectionRefused));
        assert!(
            refused.to_string().starts_with("connection failed: "),
            "{refused}"
        );
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            attempts: 8,
            base_ms: 100,
            cap_ms: 1_000,
            seed: 7,
        };
        let a: Vec<u64> = (0..8).map(|k| policy.backoff_ms(k)).collect();
        let b: Vec<u64> = (0..8).map(|k| policy.backoff_ms(k)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (k, &ms) in a.iter().enumerate() {
            let exp = (100u64 << k).min(1_000);
            assert!(ms >= exp / 2 && ms < exp, "attempt {k}: {ms} outside [{}, {exp})", exp / 2);
        }
        let other = RetryPolicy { seed: 8, ..policy };
        assert_ne!(
            (0..8).map(|k| other.backoff_ms(k)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn backoff_sequence_is_pinned_for_a_fixed_seed() {
        // The jitter stream is part of the reproducibility contract
        // (scripted sweeps and fleet peer fetches rely on it), so the
        // exact draws for the default seed are pinned — any change to
        // the xorshift mixing or the bucketing is a deliberate,
        // test-visible decision, not drift.
        let policy = RetryPolicy {
            attempts: 6,
            base_ms: 100,
            cap_ms: 5_000,
            seed: 0x5eed,
        };
        let seq: Vec<u64> = (0..6).map(|k| policy.backoff_ms(k)).collect();
        assert_eq!(seq, [53, 103, 300, 661, 1013, 1721]);
        let policy = RetryPolicy {
            attempts: 6,
            base_ms: 100,
            cap_ms: 1_000,
            seed: 7,
        };
        let seq: Vec<u64> = (0..6).map(|k| policy.backoff_ms(k)).collect();
        assert_eq!(seq, [89, 135, 344, 441, 745, 693]);
    }

    #[test]
    fn quota_rejections_are_retryable() {
        assert!(ClientError::Server {
            code: "quota".into(),
            detail: "tenant `team-a` is over its fair-share quota".into()
        }
        .is_retryable());
        assert!(!ClientError::Server {
            code: "unauthorized".into(),
            detail: String::new()
        }
        .is_retryable());
    }

    #[test]
    fn expired_deadline_short_circuits_before_any_network_attempt() {
        // Port 0 is unconnectable, but the expired deadline must win
        // before a single connect (or backoff sleep) happens.
        let started = Instant::now();
        let err = run_with_retries(
            "127.0.0.1:0",
            &RunOpts::new(Experiment::E1, "snb", Fidelity::Quick),
            &RetryPolicy::default(),
            Some(Duration::from_secs(30)),
            Some(started),
        )
        .expect_err("expired deadline must fail");
        match &err {
            ClientError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a TimedOut I/O error, got {other:?}"),
        }
        assert!(err.is_retryable());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline short-circuit must not sleep through the backoff schedule"
        );
    }

    #[test]
    fn huge_attempt_index_does_not_overflow() {
        let policy = RetryPolicy::default();
        assert!(policy.backoff_ms(u32::MAX) <= policy.cap_ms);
    }

    #[test]
    fn retryable_classification_matches_the_protocol_contract() {
        assert!(ClientError::Busy { queued: 1, backlog_ms: 5 }.is_retryable());
        assert!(ClientError::Server {
            code: "timeout".into(),
            detail: String::new()
        }
        .is_retryable());
        assert!(!ClientError::Server {
            code: "bad-request".into(),
            detail: String::new()
        }
        .is_retryable());
        assert!(ClientError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"))
            .is_retryable());
        assert!(ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"))
            .is_retryable());
        assert!(!ClientError::Io(io::Error::new(io::ErrorKind::PermissionDenied, "denied"))
            .is_retryable());
        assert!(!ClientError::Protocol("garbled".into()).is_retryable());
    }
}
