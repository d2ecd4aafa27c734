//! The roofd wire protocol: JSON-lines envelopes in, JSON-lines
//! envelopes out, independent of the TCP plumbing so it can be tested
//! without sockets.
//!
//! Request kinds: `run`, `stats`, `purge`, `ping`, `auth`, `join`,
//! `leave`, `drain`, `replicate`, `shutdown`. Response kinds: `result`,
//! `stats`, `purged`, `pong`, `authed`, `joined`, `left`, `draining`,
//! `replicated`, `shutting-down`, `busy`, `error`. Every response echoes the request's
//! `seq` so clients can pipeline (the one exception: a connection shed
//! by the concurrency gate gets a seq-less `busy`, written before any
//! request was read). A malformed or invalid request produces an `error`
//! envelope, never a dropped connection — a faulted platform spec
//! (`snb+drift=…`) is not even an error: the experiment runs, degrades,
//! and the response carries the integrity report. A request whose
//! deadline expires gets an `error` with code `timeout` and is safe to
//! retry, as is a fair-share rejection (code `quota`, with a
//! `retry_after_ms` hint).
//!
//! Identity is per-connection: `auth` with a known bearer token binds
//! the [`Session`] to a tenant, and every later `run` on that
//! connection is accounted to it; an unknown token leaves the session
//! anonymous (error code `unauthorized`). The connection survives a
//! failed `auth` — but only [`MAX_FAILED_AUTHS`] times, after which it
//! is closed, so bearer tokens cannot be brute-forced at line rate over
//! one socket.
//!
//! A `run` with a valid `fleet_token` (the node's configured fleet
//! secret, [`crate::fleet::FleetConfig::secret`]) is a peer fetch: it is
//! served locally, never forwarded, exempt from quota charging, and
//! accounted to the reserved [`FLEET_TENANT`]. Holding the secret
//! already grants `join`/`leave`/`drain`/`replicate`, so the exemption
//! adds no privilege. A `run` without a valid token is charged to the
//! session tenant like any ordinary request.
//!
//! The same secret gates the fleet-internal and admin surface: a `ping`
//! carrying a valid `fleet_token` (plus the sender's `epoch` and `from`
//! address) gets a pong with this node's epoch, membership version, and
//! member list — the health prober's gossip channel — and doubles as a
//! liveness observation re-admitting the sender. `join`/`leave` edit
//! the member list, `drain` stops new admissions ahead of a `leave`,
//! and `replicate` installs an owner-pushed result into this node's
//! cache. All four answer `unauthorized` without the secret, counted
//! against the same [`MAX_FAILED_AUTHS`] budget as bad `auth` tokens.

use crate::auth::FLEET_TENANT;
use crate::cache::{status_from_str, CachedResult};
use crate::engine::{Done, Engine, Outcome, Request};
use crate::fleet::Fleet;
use crate::stats::StatsSnapshot;
use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use roofline_core::json::{Envelope, Json};
use std::sync::Arc;

/// Machine-readable error codes the service emits.
pub mod error_code {
    /// The line was not a valid protocol envelope.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The request's experiment id did not parse.
    pub const UNKNOWN_EXPERIMENT: &str = "unknown-experiment";
    /// The request's platform spec did not resolve.
    pub const INVALID_PLATFORM: &str = "invalid-platform";
    /// The request's kind is not a command this server speaks.
    pub const UNKNOWN_COMMAND: &str = "unknown-command";
    /// The request's wall-clock deadline expired before a result was
    /// available; retryable.
    pub const TIMEOUT: &str = "timeout";
    /// The request line exceeded the server's line-length cap; the
    /// connection is closed after this error is written.
    pub const LINE_TOO_LONG: &str = "line-too-long";
    /// The `auth` token was not in the server's token file; the
    /// connection survives as the anonymous tenant.
    pub const UNAUTHORIZED: &str = "unauthorized";
    /// The requesting tenant is over its fair-share quota (token bucket
    /// or outstanding-wall-budget cap); retryable after the envelope's
    /// `retry_after_ms` hint.
    pub const QUOTA: &str = "quota";
}

/// Failed `auth` attempts a connection survives; the next failure closes
/// it. Reconnecting costs a TCP handshake per [`MAX_FAILED_AUTHS`]
/// guesses, which is the throttle on brute-forcing bearer tokens.
pub const MAX_FAILED_AUTHS: u32 = 3;

/// Per-connection protocol state: who this connection's requests are
/// accounted to. Fresh connections are anonymous until a successful
/// `auth`.
#[derive(Debug, Clone)]
pub struct Session {
    /// The tenant bound to this connection.
    pub tenant: String,
    /// Consecutive failed `auth` attempts on this connection; at
    /// [`MAX_FAILED_AUTHS`] the connection is closed.
    pub failed_auths: u32,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            tenant: crate::auth::ANON_TENANT.to_string(),
            failed_auths: 0,
        }
    }
}

/// A response envelope of `kind`, echoing the request's `seq` when it
/// had one.
fn reply(kind: &str, seq: Option<&str>) -> Envelope {
    let env = Envelope::new(kind);
    match seq {
        Some(seq) => env.seq(seq),
        None => env,
    }
}

/// Builds an `error` response envelope.
pub fn error_envelope(seq: Option<&str>, code: &str, detail: impl Into<String>) -> Envelope {
    reply("error", seq)
        .field("code", Json::str(code))
        .field("detail", Json::str(detail.into()))
}

/// An envelope's string field.
pub(crate) fn field_str(env: &Envelope, name: &str) -> Option<String> {
    env.get(name).and_then(Json::as_str).map(str::to_string)
}

/// The string items of an envelope's array field; empty when absent.
pub(crate) fn field_strs(env: &Envelope, name: &str) -> Vec<String> {
    env.get(name)
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Writes a result's wire fields — status, error, detail, integrity and
/// the artifact tree — onto `env`. Shared by the `result` reply and the
/// `replicate` push; [`decode_result`] is its inverse.
pub(crate) fn encode_result(mut env: Envelope, r: &CachedResult) -> Envelope {
    env = env.field("status", Json::str(r.status.as_str()));
    if let Some(error) = &r.error {
        env = env.field("error", Json::str(error));
    }
    if let Some(detail) = &r.detail {
        env = env.field("detail", Json::str(detail));
    }
    if !r.integrity.is_empty() {
        env = env.field(
            "integrity",
            Json::Arr(r.integrity.iter().map(Json::str).collect()),
        );
    }
    let artifacts = r
        .tree
        .iter()
        .map(|(name, contents)| (name.clone(), Json::str(contents)))
        .collect();
    env.field("artifacts", Json::Obj(artifacts))
}

/// Reads the fields [`encode_result`] writes. The compute time is not
/// on the wire: like a disk reload, a received copy is
/// provenance-stripped.
///
/// # Errors
///
/// A missing or unknown `status`.
pub(crate) fn decode_result(env: &Envelope) -> Result<CachedResult, String> {
    let status = field_str(env, "status").ok_or("result lacks a status")?;
    Ok(CachedResult {
        status: status_from_str(&status).ok_or(format!("unknown status `{status}`"))?,
        error: field_str(env, "error"),
        detail: field_str(env, "detail"),
        integrity: field_strs(env, "integrity"),
        compute_ms: None,
        tree: env
            .get("artifacts")
            .and_then(Json::as_obj)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Parses the `(experiment, platform, fidelity)` tuple out of a `run`
/// request envelope. Platform defaults to `snb`, fidelity to `quick`.
///
/// # Errors
///
/// Returns an `error` envelope describing the first bad field.
pub fn parse_run_request(env: &Envelope) -> Result<Request, Box<Envelope>> {
    let seq = env.seq.as_deref();
    let experiment: Experiment = env
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or_else(|| {
            error_envelope(
                seq,
                error_code::BAD_REQUEST,
                "run request lacks a string `experiment` field",
            )
        })?
        .parse()
        .map_err(|e| error_envelope(seq, error_code::UNKNOWN_EXPERIMENT, format!("{e}")))?;
    let platform = env
        .get("platform")
        .and_then(Json::as_str)
        .unwrap_or("snb")
        .to_string();
    let fidelity = match env.get("fidelity").and_then(Json::as_str).unwrap_or("quick") {
        "quick" => Fidelity::Quick,
        "full" => Fidelity::Full,
        other => {
            return Err(Box::new(error_envelope(
                seq,
                error_code::BAD_REQUEST,
                format!("unknown fidelity `{other}` (expected `quick` or `full`)"),
            )))
        }
    };
    Ok(Request::new(experiment, platform, fidelity))
}

/// Renders a completed request as a `result` envelope: status, cache
/// provenance, timings, the integrity report, and the full normalized
/// artifact tree.
pub fn result_envelope(seq: Option<&str>, req: &Request, done: &Done) -> Envelope {
    let mut env = reply("result", seq)
        .field("experiment", Json::str(req.experiment.id()))
        .field("platform", Json::str(&req.platform))
        .field("fidelity", Json::str(req.fidelity.label()))
        .field(
            "cache",
            Json::str(if done.source.is_hit() { "hit" } else { "miss" }),
        )
        .field("source", Json::str(done.source.as_str()))
        .field("elapsed_ms", Json::num(done.elapsed_ms as f64))
        .field("budget_ms", Json::num(done.budget_ms as f64))
        .field("over_budget", Json::Bool(done.over_budget));
    if let Some(ms) = done.result.compute_ms {
        env = env.field("compute_ms", Json::num(ms as f64));
    }
    encode_result(env, &done.result)
}

/// Renders one engine outcome as its response envelope.
fn outcome_envelope(seq: Option<&str>, req: &Request, outcome: Outcome) -> Envelope {
    match outcome {
        Outcome::Done(done) => result_envelope(seq, req, &done),
        Outcome::Busy { queued, backlog_ms } => reply("busy", seq)
            .field("queued", Json::num(queued as f64))
            .field("backlog_ms", Json::num(backlog_ms as f64)),
        Outcome::Invalid(detail) => error_envelope(seq, error_code::INVALID_PLATFORM, detail),
        Outcome::TimedOut {
            waited_ms,
            deadline_ms,
        } => error_envelope(
            seq,
            error_code::TIMEOUT,
            format!(
                "request deadline of {deadline_ms} ms expired after \
                 waiting {waited_ms} ms; retry later"
            ),
        )
        .field("waited_ms", Json::num(waited_ms as f64))
        .field("deadline_ms", Json::num(deadline_ms as f64)),
        Outcome::Quota {
            tenant,
            retry_after_ms,
        } => error_envelope(
            seq,
            error_code::QUOTA,
            format!(
                "tenant `{tenant}` is over its fair-share quota; \
                 retry in {retry_after_ms} ms"
            ),
        )
        .field("tenant", Json::str(tenant))
        .field("retry_after_ms", Json::num(retry_after_ms as f64)),
    }
}

/// Renders a stats snapshot as a `stats` envelope.
pub fn stats_envelope(seq: Option<&str>, s: &StatsSnapshot) -> Envelope {
    reply("stats", seq)
        .field("mem_hits", Json::num(s.mem_hits as f64))
        .field("disk_hits", Json::num(s.disk_hits as f64))
        .field("hits", Json::num(s.hits() as f64))
        .field("misses", Json::num(s.misses as f64))
        .field("coalesced", Json::num(s.coalesced as f64))
        .field("busy", Json::num(s.busy as f64))
        .field("invalid", Json::num(s.invalid as f64))
        .field("evictions", Json::num(s.evictions as f64))
        .field("over_budget", Json::num(s.over_budget as f64))
        .field("completed", Json::num(s.completed as f64))
        .field("timeouts", Json::num(s.timeouts as f64))
        .field("shed", Json::num(s.shed as f64))
        .field("quarantined", Json::num(s.quarantined as f64))
        .field("swept_tmp", Json::num(s.swept_tmp as f64))
        .field("in_flight", Json::num(s.in_flight as f64))
        .field("queued", Json::num(s.queued as f64))
        .field("backlog_ms", Json::num(s.backlog_ms as f64))
        .field("entries", Json::num(s.entries as f64))
        .field("bytes", Json::num(s.bytes as f64))
        .field("quota_rejections", Json::num(s.quota_rejections as f64))
        .field("peer_hits", Json::num(s.peer_hits as f64))
        .field("peer_misses", Json::num(s.peer_misses as f64))
        .field("replica_pushes", Json::num(s.replica_pushes as f64))
        .field("replica_installs", Json::num(s.replica_installs as f64))
        .field("replica_hits", Json::num(s.replica_hits as f64))
        .field("epoch", Json::num(s.epoch as f64))
        .field("peers_live", Json::num(s.peers_live as f64))
        .field("draining", Json::Bool(s.draining))
        .field("p50_ms", Json::num(s.p50_ms as f64))
        .field("p90_ms", Json::num(s.p90_ms as f64))
        .field("p99_ms", Json::num(s.p99_ms as f64))
        .field(
            "tenants",
            Json::Obj(
                s.tenants
                    .iter()
                    .map(|(name, t)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("served".to_string(), Json::num(t.served as f64)),
                                (
                                    "quota_rejections".to_string(),
                                    Json::num(t.quota_rejections as f64),
                                ),
                                ("peer_hits".to_string(), Json::num(t.peer_hits as f64)),
                                ("peer_misses".to_string(), Json::num(t.peer_misses as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        )
}

/// One dispatched request's reply plus its control-flow consequence for
/// the connection loop.
pub struct Dispatch {
    /// The response envelope to write back.
    pub reply: Envelope,
    /// True when the request asked the server to shut down gracefully
    /// (stop accepting, drain in-flight work, join workers).
    pub shutdown: bool,
    /// True when this connection must be closed after the reply is
    /// written (too many failed `auth` attempts).
    pub close: bool,
}

impl From<Envelope> for Dispatch {
    fn from(reply: Envelope) -> Dispatch {
        Dispatch {
            reply,
            shutdown: false,
            close: false,
        }
    }
}

/// A failed proof of identity — a bad `auth` token or a missing fleet
/// secret — answered `unauthorized` and charged to the session's
/// [`MAX_FAILED_AUTHS`] budget: the connection survives a few, then
/// closes.
fn unauthorized(session: &mut Session, seq: Option<&str>, what: &str) -> Dispatch {
    session.failed_auths += 1;
    let close = session.failed_auths >= MAX_FAILED_AUTHS;
    let detail = if close {
        format!("{what}; {MAX_FAILED_AUTHS} failed attempts, closing the connection")
    } else {
        what.to_string()
    };
    Dispatch {
        reply: error_envelope(seq, error_code::UNAUTHORIZED, detail),
        shutdown: false,
        close,
    }
}

/// The fleet-secret gate: the secret-only commands (`join`, `leave`,
/// `drain`, `replicate`, and a `ping` carrying a `fleet_token`) get the
/// fleet when the request's token proves membership; anything else is
/// [`unauthorized`]. `Ok(None)` for every other command.
fn fleet_gate(
    engine: &Engine,
    session: &mut Session,
    env: &Envelope,
) -> Result<Option<Arc<Fleet>>, Dispatch> {
    let token = env.get("fleet_token").and_then(Json::as_str);
    let what = match env.kind.as_str() {
        "ping" if token.is_some() => "an authenticated ping",
        "join" | "leave" => "membership editing",
        "drain" => "drain",
        "replicate" => "replicate",
        _ => return Ok(None),
    };
    let denied = || format!("{what} requires the fleet secret");
    match engine.verify_peer(token) {
        Some(fleet) => Ok(Some(fleet)),
        None => Err(unauthorized(session, env.seq.as_deref(), &denied())),
    }
}

/// `env` plus this node's live epoch, membership version and member
/// list (as field `list`) — the membership block of `pong`, `joined`
/// and `left`.
fn with_membership(env: Envelope, fleet: &Fleet, list: &str) -> Envelope {
    let (version, members) = fleet.members();
    env.field("epoch", Json::num(fleet.epoch() as f64))
        .field("version", Json::num(version as f64))
        .field(list, Json::Arr(members.iter().map(Json::str).collect()))
}

/// Serves one request line against a connection's [`Session`]: parse,
/// dispatch to the engine, render the response envelope. Never panics on
/// client input; every failure mode maps to an `error` (or `busy`)
/// envelope so the connection survives. The transport inspects
/// [`Dispatch::shutdown`] to honor the `shutdown` command.
pub fn dispatch_session(engine: &Engine, session: &mut Session, line: &str) -> Dispatch {
    let env = match Envelope::parse_line(line) {
        Ok(env) => env,
        Err(e) => return error_envelope(None, error_code::BAD_REQUEST, e.to_string()).into(),
    };
    let seq = env.seq.as_deref();
    let fleet = match fleet_gate(engine, session, &env) {
        Ok(fleet) => fleet,
        Err(denied) => return denied,
    };
    match (env.kind.as_str(), fleet) {
        // A plain ping stays the unauthenticated health check it always
        // was.
        ("ping", None) => reply("pong", seq),
        ("ping", Some(fleet)) => {
            // Gossip rides the ping in both directions: adopt the
            // sender's member list when it is newer (this is how a
            // cold-joined node learns the fleet), and answer with ours
            // below so the sender can do the same.
            if let Some(version) = env.get("version").and_then(Json::as_u64) {
                fleet.adopt(version, &field_strs(&env, "members"));
            }
            // The ping itself proves the sender is alive: a restarted
            // member is re-admitted by its own probes before ours next
            // reach it.
            if let Some(from) = env.get("from").and_then(Json::as_str) {
                fleet.mark_success(from);
            }
            with_membership(reply("pong", seq), &fleet, "members")
        }
        ("stats", _) => stats_envelope(seq, &engine.stats()),
        ("purge", _) => {
            let (mem, disk) = engine.purge();
            reply("purged", seq)
                .field("memory_entries", Json::num(mem as f64))
                .field("disk_entries", Json::num(disk as f64))
        }
        ("shutdown", _) => {
            return Dispatch {
                reply: reply("shutting-down", seq),
                shutdown: true,
                close: false,
            }
        }
        ("auth", _) => match env.get("token").and_then(Json::as_str) {
            None => error_envelope(
                seq,
                error_code::BAD_REQUEST,
                "auth request lacks a string `token` field",
            ),
            Some(token) => match engine.authenticate(token) {
                Some((tenant, weight)) => {
                    session.tenant = tenant.clone();
                    session.failed_auths = 0;
                    reply("authed", seq)
                        .field("tenant", Json::str(tenant))
                        .field("weight", Json::num(weight))
                }
                None => return unauthorized(session, seq, "unknown token"),
            },
        },
        ("run", _) => match parse_run_request(&env) {
            Err(error) => *error,
            Ok(req) => {
                // A run whose fleet token verifies is a peer fetch: the
                // secret already grants every admin command, so its
                // quota exemption adds no privilege.
                let token = env.get("fleet_token").and_then(Json::as_str);
                let tenant = match engine.verify_peer(token) {
                    Some(_) => FLEET_TENANT,
                    None => &session.tenant,
                };
                outcome_envelope(seq, &req, engine.submit_with(&req, tenant))
            }
        },
        (kind @ ("join" | "leave"), Some(fleet)) => match env.get("peer").and_then(Json::as_str) {
            None => error_envelope(
                seq,
                error_code::BAD_REQUEST,
                format!("{kind} request lacks a string `peer` field"),
            ),
            Some(peer) => {
                let (changed, done) = if kind == "join" {
                    (fleet.join(peer), "joined")
                } else {
                    (fleet.leave(peer), "left")
                };
                let env = reply(done, seq).field("changed", Json::Bool(changed));
                with_membership(env, &fleet, "peers")
            }
        },
        ("drain", Some(_)) => {
            engine.set_draining(true);
            reply("draining", seq)
        }
        ("replicate", Some(_)) => match parse_run_request(&env) {
            Err(error) => *error,
            Ok(req) => match decode_result(&env) {
                Err(e) => error_envelope(
                    seq,
                    error_code::BAD_REQUEST,
                    format!("replicate request: {e}"),
                ),
                Ok(result) => reply("replicated", seq).field(
                    "installed",
                    Json::Bool(engine.install_replica(&req, result)),
                ),
            },
        },
        (other, _) => error_envelope(
            seq,
            error_code::UNKNOWN_COMMAND,
            format!(
                "unknown command `{other}` (expected run, stats, purge, ping, auth, join, \
                 leave, drain, replicate, or shutdown)"
            ),
        ),
    }
    .into()
}

/// [`dispatch_session`] against a fresh anonymous session, without the
/// control-flow signal — for tests and callers that never honor
/// `shutdown`.
pub fn dispatch_line(engine: &Engine, line: &str) -> Envelope {
    dispatch_session(engine, &mut Session::default(), line).reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use experiments::output::ExperimentOutput;

    /// An engine over `cfg` whose experiment bodies return one cell
    /// naming the request tuple.
    fn stub_engine(cfg: EngineConfig) -> Engine {
        Engine::with_compute(cfg, |e, platform, fidelity| {
            let mut out = ExperimentOutput::new(e.id(), e.title());
            out.finding("cell", format!("{}@{platform}/{}", e.id(), fidelity.label()));
            out
        })
    }

    fn test_engine() -> Engine {
        stub_engine(EngineConfig::default())
    }

    #[test]
    fn ping_pongs_with_seq_echo() {
        let engine = test_engine();
        let reply = dispatch_line(&engine, r#"{"v":1,"kind":"ping","seq":"a-1"}"#);
        assert_eq!(reply.kind, "pong");
        assert_eq!(reply.seq.as_deref(), Some("a-1"));
    }

    #[test]
    fn malformed_line_yields_bad_request() {
        let engine = test_engine();
        let reply = dispatch_line(&engine, "this is not json");
        assert_eq!(reply.kind, "error");
        assert_eq!(
            reply.get("code").unwrap().as_str(),
            Some(error_code::BAD_REQUEST)
        );
    }

    #[test]
    fn unknown_experiment_and_platform_are_distinct_errors() {
        let engine = test_engine();
        let reply = dispatch_line(&engine, r#"{"v":1,"kind":"run","experiment":"E99"}"#);
        assert_eq!(
            reply.get("code").unwrap().as_str(),
            Some(error_code::UNKNOWN_EXPERIMENT)
        );
        let reply = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"run","experiment":"E1","platform":"vax11"}"#,
        );
        assert_eq!(
            reply.get("code").unwrap().as_str(),
            Some(error_code::INVALID_PLATFORM)
        );
    }

    #[test]
    fn run_then_rerun_flips_cache_miss_to_hit() {
        let engine = test_engine();
        let line = r#"{"v":1,"kind":"run","seq":"s1","experiment":"E1","platform":"snb"}"#;
        let first = dispatch_line(&engine, line);
        assert_eq!(first.kind, "result", "{}", first.to_line());
        assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(first.get("source").unwrap().as_str(), Some("computed"));
        assert_eq!(first.get("status").unwrap().as_str(), Some("pass"));
        assert_eq!(first.seq.as_deref(), Some("s1"));
        let second = dispatch_line(&engine, line);
        assert_eq!(second.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(second.get("source").unwrap().as_str(), Some("mem"));
        // The payloads themselves are identical.
        assert_eq!(first.get("artifacts"), second.get("artifacts"));
    }

    #[test]
    fn stats_reflect_traffic_and_purge_resets_entries() {
        let engine = test_engine();
        let run = r#"{"v":1,"kind":"run","experiment":"E2"}"#;
        dispatch_line(&engine, run);
        dispatch_line(&engine, run);
        let stats = dispatch_line(&engine, r#"{"v":1,"kind":"stats"}"#);
        assert_eq!(stats.kind, "stats");
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("entries").unwrap().as_u64(), Some(1));
        let purged = dispatch_line(&engine, r#"{"v":1,"kind":"purge"}"#);
        assert_eq!(purged.kind, "purged");
        assert_eq!(purged.get("memory_entries").unwrap().as_u64(), Some(1));
        let stats = dispatch_line(&engine, r#"{"v":1,"kind":"stats"}"#);
        assert_eq!(stats.get("entries").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn unknown_command_keeps_the_session_usable() {
        let engine = test_engine();
        let reply = dispatch_line(&engine, r#"{"v":1,"kind":"dance"}"#);
        assert_eq!(
            reply.get("code").unwrap().as_str(),
            Some(error_code::UNKNOWN_COMMAND)
        );
        let reply = dispatch_line(&engine, r#"{"v":1,"kind":"ping"}"#);
        assert_eq!(reply.kind, "pong");
    }

    #[test]
    fn shutdown_command_acks_and_raises_the_flag() {
        let engine = test_engine();
        let d = dispatch_session(
            &engine,
            &mut Session::default(),
            r#"{"v":1,"kind":"shutdown","seq":"s9"}"#,
        );
        assert!(d.shutdown);
        assert_eq!(d.reply.kind, "shutting-down");
        assert_eq!(d.reply.seq.as_deref(), Some("s9"));
        // Every other command leaves the flag down.
        assert!(
            !dispatch_session(&engine, &mut Session::default(), r#"{"v":1,"kind":"ping"}"#)
                .shutdown
        );
        assert!(!dispatch_session(&engine, &mut Session::default(), "garbage").shutdown);
    }

    #[test]
    fn auth_binds_the_session_and_quotas_reject_with_hints() {
        use crate::auth::{AuthConfig, QuotaConfig, ANON_TENANT};
        let mut auth = AuthConfig::default().with_token("s3cret", "team-a", 1.0);
        auth.anon_weight = 0.25;
        // Zero refill: the burst is the whole allowance, so rejection is
        // deterministic on the (burst×weight + 1)-th request.
        auth.quota = Some(QuotaConfig {
            rate_per_s: 0.0,
            burst: 2.0,
        });
        let cfg = EngineConfig {
            auth,
            ..EngineConfig::default()
        };
        let engine = stub_engine(cfg);
        let mut session = Session::default();
        let wrong = dispatch_session(
            &engine,
            &mut session,
            r#"{"v":1,"kind":"auth","token":"wrong"}"#,
        )
        .reply;
        assert_eq!(
            wrong.get("code").unwrap().as_str(),
            Some(error_code::UNAUTHORIZED)
        );
        assert_eq!(session.tenant, ANON_TENANT, "failed auth stays anonymous");
        let authed = dispatch_session(
            &engine,
            &mut session,
            r#"{"v":1,"kind":"auth","token":"s3cret","seq":"a1"}"#,
        )
        .reply;
        assert_eq!(authed.kind, "authed");
        assert_eq!(authed.seq.as_deref(), Some("a1"));
        assert_eq!(authed.get("tenant").unwrap().as_str(), Some("team-a"));
        assert_eq!(authed.get("weight").unwrap().as_f64(), Some(1.0));
        assert_eq!(session.tenant, "team-a");

        // Burst 2 × weight 1 = two requests (hits included), then quota.
        let run = r#"{"v":1,"kind":"run","experiment":"E1"}"#;
        for _ in 0..2 {
            let r = dispatch_session(&engine, &mut session, run).reply;
            assert_eq!(r.kind, "result", "{}", r.to_line());
        }
        let rejected = dispatch_session(&engine, &mut session, run).reply;
        assert_eq!(rejected.kind, "error");
        assert_eq!(
            rejected.get("code").unwrap().as_str(),
            Some(error_code::QUOTA)
        );
        assert_eq!(rejected.get("tenant").unwrap().as_str(), Some("team-a"));
        assert_eq!(
            rejected.get("retry_after_ms").unwrap().as_u64(),
            Some(60_000),
            "zero-rate bucket reports the max hint"
        );

        // The anonymous tenant has its own bucket: capacity
        // (2 × 0.25).max(1) = 1, so one request still lands.
        let anon = dispatch_line(&engine, run);
        assert_eq!(anon.kind, "result", "{}", anon.to_line());

        let stats = dispatch_line(&engine, r#"{"v":1,"kind":"stats"}"#);
        assert_eq!(stats.get("quota_rejections").unwrap().as_u64(), Some(1));
        let tenants = stats.get("tenants").expect("tenants block");
        let team = tenants.get("team-a").expect("team-a entry");
        assert_eq!(team.get("served").unwrap().as_u64(), Some(2));
        assert_eq!(team.get("quota_rejections").unwrap().as_u64(), Some(1));
        assert_eq!(
            tenants.get(ANON_TENANT).unwrap().get("served").unwrap().as_u64(),
            Some(1)
        );
    }

    /// An engine with a drained anonymous allowance and a single-node
    /// fleet (self-owned digests, so no network) whose secret is
    /// `s3cret-fleet`.
    fn quota_exhausted_fleet_engine() -> Engine {
        use crate::auth::{AuthConfig, QuotaConfig};
        use crate::fleet::FleetConfig;
        let cfg = EngineConfig {
            auth: AuthConfig::open_with_quota(
                QuotaConfig {
                    rate_per_s: 0.0,
                    burst: 1.0,
                },
                1.0,
            ),
            fleet: Some(FleetConfig::new(
                "here",
                vec!["here".to_string()],
                1,
                "s3cret-fleet",
            )),
            ..EngineConfig::default()
        };
        let engine = stub_engine(cfg);
        let run = r#"{"v":1,"kind":"run","experiment":"E1"}"#;
        assert_eq!(dispatch_line(&engine, run).kind, "result");
        assert_eq!(
            dispatch_line(&engine, run).get("code").unwrap().as_str(),
            Some(error_code::QUOTA),
            "anonymous allowance exhausted"
        );
        engine
    }

    #[test]
    fn proven_peer_runs_are_exempt_from_quota_charging() {
        let engine = quota_exhausted_fleet_engine();
        // A fleet-internal fetch proving membership must still be
        // served: the ingress node already charged the originating
        // tenant. It is accounted under the `fleet` ledger line, not
        // the anonymous tenant. The token alone makes a run a peer
        // fetch; any `peer` field is ignored.
        for line in [
            r#"{"v":1,"kind":"run","experiment":"E1","peer":true,"fleet_token":"s3cret-fleet"}"#,
            r#"{"v":1,"kind":"run","experiment":"E1","fleet_token":"s3cret-fleet"}"#,
        ] {
            let peer = dispatch_line(&engine, line);
            assert_eq!(peer.kind, "result", "{}", peer.to_line());
        }
        let stats = dispatch_line(&engine, r#"{"v":1,"kind":"stats"}"#);
        let tenants = stats.get("tenants").expect("tenants block");
        assert_eq!(
            tenants
                .get(crate::auth::FLEET_TENANT)
                .and_then(|t| t.get("served"))
                .and_then(Json::as_u64),
            Some(2),
            "peer-served requests belong to the fleet ledger line"
        );
        assert_eq!(
            tenants
                .get(crate::auth::ANON_TENANT)
                .and_then(|t| t.get("served"))
                .and_then(Json::as_u64),
            Some(1),
            "only the one pre-drain request is anon-served"
        );
    }

    #[test]
    fn unproven_peer_claims_are_charged_like_ordinary_requests() {
        let engine = quota_exhausted_fleet_engine();
        // No token, a wrong token, and a token against a fleetless
        // engine all leave the claim unhonored: the drained anonymous
        // bucket rejects the request.
        for line in [
            r#"{"v":1,"kind":"run","experiment":"E1","peer":true}"#,
            r#"{"v":1,"kind":"run","experiment":"E1","peer":true,"fleet_token":"wrong"}"#,
            r#"{"v":1,"kind":"run","experiment":"E1","peer":true,"fleet_token":""}"#,
        ] {
            let reply = dispatch_line(&engine, line);
            assert_eq!(
                reply.get("code").unwrap().as_str(),
                Some(error_code::QUOTA),
                "{line} must not bypass the quota: {}",
                reply.to_line()
            );
        }
    }

    /// An engine in a three-node fleet (self `here`, peers `b`, `c`)
    /// whose secret is `s3cret-fleet`.
    fn three_node_fleet_engine() -> Engine {
        use crate::fleet::FleetConfig;
        let cfg = EngineConfig {
            fleet: Some(FleetConfig::new(
                "here",
                vec!["here".to_string(), "b".to_string(), "c".to_string()],
                1,
                "s3cret-fleet",
            )),
            ..EngineConfig::default()
        };
        stub_engine(cfg)
    }

    #[test]
    fn authenticated_ping_gossips_membership_and_readmits_the_sender() {
        let engine = three_node_fleet_engine();
        let fleet = engine.fleet().expect("fleet engine");
        for _ in 0..fleet.config().probe_failures {
            fleet.mark_failure("b");
        }
        assert_eq!(fleet.view().peers.len(), 2, "b is suspect");
        let pong = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"ping","fleet_token":"s3cret-fleet","from":"b","epoch":7}"#,
        );
        assert_eq!(pong.kind, "pong", "{}", pong.to_line());
        assert_eq!(pong.get("epoch").unwrap().as_u64(), Some(fleet.epoch()));
        assert!(pong.get("version").unwrap().as_u64().is_some());
        let members: Vec<&str> = pong
            .get("members")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(members, ["b", "c", "here"], "sorted full member list");
        assert_eq!(
            fleet.view().peers.len(),
            3,
            "the ping itself re-admits the suspect sender"
        );
    }

    #[test]
    fn plain_ping_needs_no_token_even_on_a_fleet_node() {
        let engine = three_node_fleet_engine();
        let pong = dispatch_line(&engine, r#"{"v":1,"kind":"ping"}"#);
        assert_eq!(pong.kind, "pong");
        assert!(pong.get("members").is_none(), "no gossip without the secret");
    }

    #[test]
    fn join_and_leave_edit_the_member_list_over_the_wire() {
        let engine = three_node_fleet_engine();
        let joined = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"join","fleet_token":"s3cret-fleet","peer":"d","seq":"j1"}"#,
        );
        assert_eq!(joined.kind, "joined", "{}", joined.to_line());
        assert_eq!(joined.seq.as_deref(), Some("j1"));
        assert_eq!(joined.get("changed").unwrap().as_bool(), Some(true));
        let peers: Vec<&str> = joined
            .get("peers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(peers, ["b", "c", "d", "here"]);
        // Idempotent: a second join changes nothing.
        let again = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"join","fleet_token":"s3cret-fleet","peer":"d"}"#,
        );
        assert_eq!(again.get("changed").unwrap().as_bool(), Some(false));
        let left = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"leave","fleet_token":"s3cret-fleet","peer":"b"}"#,
        );
        assert_eq!(left.kind, "left");
        assert_eq!(left.get("changed").unwrap().as_bool(), Some(true));
        let peers: Vec<&str> = left
            .get("peers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(peers, ["c", "d", "here"]);
        let missing = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"join","fleet_token":"s3cret-fleet"}"#,
        );
        assert_eq!(
            missing.get("code").unwrap().as_str(),
            Some(error_code::BAD_REQUEST)
        );
    }

    #[test]
    fn admin_commands_without_the_secret_are_unauthorized_and_budgeted() {
        let engine = three_node_fleet_engine();
        let mut session = Session::default();
        let lines = [
            r#"{"v":1,"kind":"ping","fleet_token":"wrong"}"#,
            r#"{"v":1,"kind":"join","fleet_token":"wrong","peer":"d"}"#,
            r#"{"v":1,"kind":"drain","fleet_token":"wrong"}"#,
        ];
        for (i, line) in lines.iter().enumerate() {
            let d = dispatch_session(&engine, &mut session, line);
            assert_eq!(
                d.reply.get("code").unwrap().as_str(),
                Some(error_code::UNAUTHORIZED),
                "{line}"
            );
            let last = i as u32 + 1 == MAX_FAILED_AUTHS;
            assert_eq!(d.close, last, "attempt {} close={}", i + 1, d.close);
        }
        // Nothing changed: membership intact, not draining.
        assert_eq!(engine.fleet().unwrap().view().peers.len(), 3);
        assert!(!engine.draining());
        // `replicate` without proof must not install anything either.
        let d = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"replicate","experiment":"E1","status":"pass","artifacts":{"x":"y"}}"#,
        );
        assert_eq!(
            d.get("code").unwrap().as_str(),
            Some(error_code::UNAUTHORIZED)
        );
        assert_eq!(engine.stats().replica_installs, 0);
    }

    #[test]
    fn replicate_installs_a_servable_mem_hit() {
        let engine = three_node_fleet_engine();
        let line = r#"{"v":1,"kind":"replicate","fleet_token":"s3cret-fleet","experiment":"E1","platform":"snb","fidelity":"quick","status":"pass","artifacts":{"cell":"replicated-bytes"}}"#;
        let reply = dispatch_line(&engine, line);
        assert_eq!(reply.kind, "replicated", "{}", reply.to_line());
        assert_eq!(reply.get("installed").unwrap().as_bool(), Some(true));
        // The digest now serves from memory without a compute: the
        // artifact bytes are exactly what the owner pushed.
        let run = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"run","experiment":"E1","platform":"snb","fidelity":"quick"}"#,
        );
        assert_eq!(run.kind, "result", "{}", run.to_line());
        assert_eq!(run.get("source").unwrap().as_str(), Some("mem"));
        assert_eq!(
            run.get("artifacts").unwrap().get("cell").unwrap().as_str(),
            Some("replicated-bytes")
        );
        let stats = engine.stats();
        assert_eq!(stats.replica_installs, 1);
        assert_eq!(stats.misses, 0, "no compute happened");
        let bad = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"replicate","fleet_token":"s3cret-fleet","experiment":"E1","status":"weird"}"#,
        );
        assert_eq!(
            bad.get("code").unwrap().as_str(),
            Some(error_code::BAD_REQUEST)
        );
    }

    #[test]
    fn replicate_round_trips_every_result_field_through_the_codec() {
        use experiments::manifest::RunStatus;
        let engine = three_node_fleet_engine();
        let req = Request::new(Experiment::E5, "snb+drift=0.12", Fidelity::Quick);
        let pushed = CachedResult {
            status: RunStatus::Degraded,
            error: Some("integrity".to_string()),
            detail: Some("roof-violation; clock-skew".to_string()),
            integrity: vec!["roof-violation".to_string(), "clock-skew".to_string()],
            compute_ms: None,
            tree: [("a.csv", "x,y\n1,2\n"), ("b.txt", "\"quoted\" ☃")]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        // The push exactly as `Fleet::replicate` builds it.
        let env = Envelope::new("replicate")
            .field("fleet_token", Json::str("s3cret-fleet"))
            .field("experiment", Json::str(req.experiment.id()))
            .field("platform", Json::str(&req.platform))
            .field("fidelity", Json::str(req.fidelity.label()));
        let line = encode_result(env, &pushed).to_line();
        assert_eq!(
            decode_result(&Envelope::parse_line(&line).unwrap()),
            Ok(pushed.clone())
        );
        let reply = dispatch_line(&engine, &line);
        assert_eq!(reply.get("installed").unwrap().as_bool(), Some(true));
        // The installed copy serves back with every field intact.
        let Outcome::Done(done) = engine.submit(&req) else {
            panic!("replica must serve");
        };
        assert_eq!(done.source.as_str(), "mem");
        assert_eq!(*done.result, pushed);
    }

    #[test]
    fn drain_refuses_new_computes_but_keeps_serving_hits() {
        let engine = three_node_fleet_engine();
        let warm = r#"{"v":1,"kind":"run","experiment":"E1"}"#;
        assert_eq!(dispatch_line(&engine, warm).kind, "result");
        let reply = dispatch_line(
            &engine,
            r#"{"v":1,"kind":"drain","fleet_token":"s3cret-fleet","seq":"d1"}"#,
        );
        assert_eq!(reply.kind, "draining", "{}", reply.to_line());
        assert_eq!(reply.seq.as_deref(), Some("d1"));
        assert!(engine.draining());
        // Cached results still serve; fresh work is refused retryably.
        let hit = dispatch_line(&engine, warm);
        assert_eq!(hit.kind, "result");
        assert_eq!(hit.get("source").unwrap().as_str(), Some("mem"));
        let cold = dispatch_line(&engine, r#"{"v":1,"kind":"run","experiment":"E2"}"#);
        assert_eq!(cold.kind, "busy", "{}", cold.to_line());
        assert_eq!(engine.stats().busy, 1);
        assert!(engine.stats().draining);
    }

    #[test]
    fn repeated_failed_auths_close_the_connection() {
        use crate::auth::AuthConfig;
        let cfg = EngineConfig {
            auth: AuthConfig::default().with_token("s3cret", "team-a", 1.0),
            ..EngineConfig::default()
        };
        let engine = Engine::with_compute(cfg, |e, _platform, _fidelity| {
            ExperimentOutput::new(e.id(), e.title())
        });
        let mut session = Session::default();
        let guess = r#"{"v":1,"kind":"auth","token":"nope"}"#;
        for attempt in 1..MAX_FAILED_AUTHS {
            let d = dispatch_session(&engine, &mut session, guess);
            assert_eq!(
                d.reply.get("code").unwrap().as_str(),
                Some(error_code::UNAUTHORIZED)
            );
            assert!(!d.close, "attempt {attempt} must keep the connection open");
        }
        let d = dispatch_session(&engine, &mut session, guess);
        assert_eq!(
            d.reply.get("code").unwrap().as_str(),
            Some(error_code::UNAUTHORIZED)
        );
        assert!(d.close, "attempt {MAX_FAILED_AUTHS} must close the connection");

        // A successful auth resets the counter: the next wrong guess on
        // a fresh session that authed in between starts from zero.
        let mut session = Session::default();
        assert!(!dispatch_session(&engine, &mut session, guess).close);
        assert!(!dispatch_session(&engine, &mut session, guess).close);
        let ok = dispatch_session(
            &engine,
            &mut session,
            r#"{"v":1,"kind":"auth","token":"s3cret"}"#,
        );
        assert_eq!(ok.reply.kind, "authed");
        assert_eq!(session.failed_auths, 0);
        assert!(!dispatch_session(&engine, &mut session, guess).close);
    }

    #[test]
    fn clean_path_resilience_counters_are_pinned_to_zero() {
        // Regression pin for the hardening PR: ordinary traffic must not
        // tick the timeout/shed/quarantine counters — any nonzero here
        // means the fast path grew a failure mode.
        let engine = test_engine();
        dispatch_line(&engine, r#"{"v":1,"kind":"run","experiment":"E1"}"#);
        dispatch_line(&engine, r#"{"v":1,"kind":"run","experiment":"E1"}"#);
        let stats = dispatch_line(&engine, r#"{"v":1,"kind":"stats"}"#);
        for field in ["timeouts", "shed", "quarantined", "swept_tmp"] {
            assert_eq!(stats.get(field).unwrap().as_u64(), Some(0), "{field}");
        }
    }
}
