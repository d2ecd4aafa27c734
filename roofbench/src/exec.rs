//! The closed-loop client executor every service workload runs on.
//!
//! Each lane is one client thread with an explicit request list. A
//! request opens a fresh connection, authenticates and runs, which is
//! roofctl's path, and request `i` of lane `c` goes to node `(c + i) mod n`,
//! so every node takes ingress traffic. Retryable failures (busy, quota,
//! timeout, a dropped socket) back off with the service's seeded policy
//! and move to the next node on a socket error. The executor records each
//! call's connect, auth and run times and the server's own time; a
//! request still failing after its attempts is kept, with no latency.

use crate::requests::Tuple;
use crate::trace::Tracer;
use roofline_service::client::{Client, ClientError, RetryPolicy, RunOpts, RunReply};
use std::thread;
use std::time::{Duration, Instant};

/// Attempts per request, the first included.
pub const ATTEMPTS: u32 = 5;

/// Per-attempt bound on connect, read and write.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One client's requests and the token it authenticates with.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Bearer token; `None` runs as the anonymous tenant.
    pub token: Option<&'static str>,
    /// The requests, in the order they are sent.
    pub requests: Vec<Tuple>,
}

/// What one request observed.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Client-observed latency from the first attempt to the reply, µs,
    /// retries and backoff included; `None` when every attempt failed.
    pub latency_us: Option<f64>,
    /// `Client::connect_with` of the answered attempt, µs.
    pub connect_us: f64,
    /// `Client::auth`, the first round trip, µs.
    pub auth_us: f64,
    /// `Client::run_opt`, µs.
    pub run_us: f64,
    /// The server's `elapsed_ms` for the request, in µs (whole ms).
    pub server_us: f64,
    /// Reply `source`: mem, disk, peer, computed or coalesced.
    pub source: String,
    /// Attempts beyond the first.
    pub retries: u32,
    /// Attempts answered `busy` or `quota`.
    pub busy: u32,
    /// Why the request failed, or why its reply failed the check.
    pub error: Option<String>,
}

/// The per-reply correctness check a workload supplies.
pub type Check<'a> = dyn Fn(&Tuple, &RunReply) -> Result<(), String> + Sync + 'a;

/// Runs every lane on its own thread against `addrs` and returns each
/// lane's calls in request order.
///
/// # Panics
///
/// Panics if `addrs` is empty or a client thread panics.
pub fn execute(
    addrs: &[String],
    lanes: &[Lane],
    seed: u64,
    tracer: &Tracer,
    check: &Check<'_>,
) -> Vec<Vec<Call>> {
    assert!(!addrs.is_empty(), "the executor needs at least one node");
    thread::scope(|scope| {
        let threads: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(c, lane)| scope.spawn(move || run_lane(addrs, c, lane, seed, tracer, check)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    })
}

fn run_lane(
    addrs: &[String],
    c: usize,
    lane: &Lane,
    seed: u64,
    tracer: &Tracer,
    check: &Check<'_>,
) -> Vec<Call> {
    let policy = RetryPolicy {
        attempts: ATTEMPTS,
        base_ms: 20,
        cap_ms: 500,
        seed: seed ^ c as u64,
    };
    lane.requests
        .iter()
        .enumerate()
        .map(|(i, tuple)| {
            let req = ((c as u64) << 32) | i as u64;
            let root = tracer.span("request", None, Some(req));
            let parent = root.as_ref().map(|g| g.id());
            let start = Instant::now();
            let mut node = (c + i) % addrs.len();
            let mut call = Call::default();
            let mut last = None;
            for attempt in 0..ATTEMPTS {
                if attempt > 0 {
                    call.retries += 1;
                    thread::sleep(Duration::from_millis(policy.backoff_ms(attempt - 1)));
                }
                match attempt_once(
                    &addrs[node],
                    lane.token,
                    tuple,
                    tracer,
                    parent,
                    req,
                    &mut call,
                ) {
                    Ok(reply) => {
                        call.latency_us = Some(start.elapsed().as_secs_f64() * 1e6);
                        call.source = reply.source.clone();
                        call.error = check(tuple, &reply)
                            .err()
                            .map(|e| format!("{}: {e}", tuple.label()));
                        last = None;
                        break;
                    }
                    Err(e) if e.is_retryable() => {
                        match &e {
                            ClientError::Busy { .. } => call.busy += 1,
                            ClientError::Server { code, .. } if code == "quota" => call.busy += 1,
                            ClientError::Io(_) => node = (node + 1) % addrs.len(),
                            _ => {}
                        }
                        last = Some(e);
                    }
                    Err(e) => {
                        last = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = last {
                call.error = Some(format!(
                    "{} failed after {} attempt(s): {e}",
                    tuple.label(),
                    call.retries + 1
                ));
            }
            call
        })
        .collect()
}

/// One attempt on a fresh connection, timing each call into the client.
fn attempt_once(
    addr: &str,
    token: Option<&str>,
    tuple: &Tuple,
    tracer: &Tracer,
    parent: Option<u64>,
    req: u64,
    call: &mut Call,
) -> Result<RunReply, ClientError> {
    let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let mut client = {
        let _span = tracer.span("client.connect", parent, Some(req));
        Client::connect_with(addr, Some(IO_TIMEOUT))?
    };
    let t1 = Instant::now();
    if let Some(token) = token {
        let _span = tracer.span("client.auth", parent, Some(req));
        client.auth(token)?;
    }
    let t2 = Instant::now();
    let run_span = tracer.span("client.run", parent, Some(req));
    let reply = client.run_opt(&RunOpts::new(
        tuple.experiment,
        tuple.platform,
        Tuple::FIDELITY,
    ))?;
    let t3 = Instant::now();
    // The server's own share of the round trip, placed at its end; the
    // rest of `client.run` is the wire: serialize, transfer and parse.
    let server = Duration::from_millis(reply.elapsed_ms).min(t3 - t2);
    tracer.record(
        "server".to_string(),
        run_span.as_ref().map(|g| g.id()),
        Some(req),
        t3 - server,
        t3,
    );
    drop(run_span);
    call.connect_us = us(t0, t1);
    call.auth_us = us(t1, t2);
    call.run_us = us(t2, t3);
    call.server_us = reply.elapsed_ms as f64 * 1e3;
    Ok(reply)
}
