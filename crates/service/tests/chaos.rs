//! The service chaos harness: every `ServiceFaults` class armed against
//! the real stack, proving the resilience layer's acceptance criteria —
//! roofd never serves corrupt bytes (a recompute after quarantine is
//! byte-identical to serial `repro` output), never blocks a coalesced
//! waiter past its deadline, sheds hostile connections instead of
//! wedging, and a retrying client eventually succeeds against transient
//! failures — while the zero-fault path stays byte-identical to the
//! un-hardened behaviour.
//!
//! The final test, `chaos_storm_from_env`, is parameterized by the
//! `ROOFD_CHAOS` environment variable so CI can rerun the whole stack
//! once per fault class without a test-source change per class.

use experiments::output::ExperimentOutput;
use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use experiments::snapshot::{diff_trees, read_tree};
use experiments::sweep::run_one;
use roofline_core::json::{Envelope, Json};
use roofline_service::cache::QUARANTINE_DIR;
use roofline_service::client::{run_with_retries, Client, ClientError, RetryPolicy, RunOpts};
use roofline_service::engine::{Engine, EngineConfig, Outcome, Request};
use roofline_service::faults::ServiceFaults;
use roofline_service::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static TAG: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "roofd-chaos-{tag}-{}-{}",
        std::process::id(),
        TAG.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The serial `repro`-equivalent reference tree for one request.
fn serial_reference(e: Experiment, platform: &str) -> BTreeMap<String, String> {
    let dir = temp_dir(&format!("ref-{}", e.id()));
    run_one(e, platform, Fidelity::Quick, &dir).expect("reference run");
    let tree = read_tree(&dir).expect("reference tree");
    let _ = fs::remove_dir_all(&dir);
    tree
}

fn assert_identical(label: &str, reference: &BTreeMap<String, String>, got: &BTreeMap<String, String>) {
    let diffs = diff_trees("serial repro", reference, label, got);
    assert!(diffs.is_empty(), "{label} differs from serial repro:\n{}", diffs.join("\n"));
}

/// A fast injected experiment body for engine-level tests where the real
/// registry's compute time would only slow the clock assertions down.
fn stub_compute(e: Experiment, platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(e.id(), e.title());
    out.finding("cell", format!("{}@{platform}/{}", e.id(), fidelity.label()));
    out
}

/// Torn-write and checksum-flip classes: a crashed or bit-rotten cache
/// entry is quarantined at load time and recomputed byte-identical to
/// the serial reference — corrupt bytes are never served.
fn corrupt_entry_never_served(class: &str) {
    let cache_dir = temp_dir(&format!("corrupt-{class}"));
    let reference = serial_reference(Experiment::E1, "snb");

    // Phase 1: a chaos-armed server computes and writes a corrupt entry.
    {
        let cfg = EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            faults: ServiceFaults::class(class).expect("class"),
            ..EngineConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Engine::new(cfg)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let server = std::thread::spawn(move || server.serve_n(1));
        let mut client = Client::connect(addr).expect("connect");
        let reply = client.run(Experiment::E1, "snb", Fidelity::Quick).expect("run");
        // The fresh computation itself is unaffected — only the disk
        // entry is corrupt.
        assert_identical("fresh response from chaos server", &reference, &reply.artifacts);
        drop(client);
        server.join().unwrap().expect("server");
    }

    // Phase 2: a clean server over the same dirty cache directory must
    // quarantine the entry and recompute, not serve the corrupt bytes.
    {
        let cfg = EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            ..EngineConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Engine::new(cfg)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let server = std::thread::spawn(move || server.serve_n(1));
        let mut client = Client::connect(addr).expect("connect");
        let reply = client.run(Experiment::E1, "snb", Fidelity::Quick).expect("run");
        assert_eq!(reply.source, "computed", "corrupt entry must not be served as a disk hit");
        assert_identical("recompute after quarantine", &reference, &reply.artifacts);
        let stats: BTreeMap<String, u64> = client.stats().expect("stats").into_iter().collect();
        assert_eq!(stats["quarantined"], 1, "stats: {stats:?}");
        drop(client);
        server.join().unwrap().expect("server");
    }

    // The quarantined entry is preserved for post-mortem, with a reason.
    let quarantined: Vec<_> = fs::read_dir(cache_dir.join(QUARANTINE_DIR))
        .expect("quarantine dir exists")
        .flatten()
        .collect();
    assert_eq!(quarantined.len(), 1);
    assert!(quarantined[0].path().join("reason.txt").exists());
    let _ = fs::remove_dir_all(&cache_dir);
}

#[test]
fn torn_cache_write_is_quarantined_and_recomputed_byte_identical() {
    corrupt_entry_never_served("torn-write");
}

#[test]
fn checksum_flip_is_quarantined_and_recomputed_byte_identical() {
    corrupt_entry_never_served("checksum-flip");
}

/// Wedged-engine class: a computation stalled by the delay fault cannot
/// hold a coalesced waiter past its deadline — the waiter gets a
/// `TimedOut` well before the owner finishes, and the owner still
/// publishes its (late) result for subsequent requests.
#[test]
fn wedged_engine_times_out_coalesced_waiters_before_their_deadline() {
    let cfg = EngineConfig {
        faults: ServiceFaults::parse("delay=1500").expect("spec"),
        deadline_cap_ms: Some(300),
        workers: 1,
        ..EngineConfig::default()
    };
    let engine = Engine::with_compute(cfg, stub_compute);
    let req = Request::new(Experiment::E1, "snb", Fidelity::Quick);

    let owner = {
        let engine = engine.clone();
        let req = req.clone();
        std::thread::spawn(move || engine.submit(&req))
    };
    // Let the owner win the flight and start its (stalled) computation.
    std::thread::sleep(Duration::from_millis(100));

    let waiter_start = Instant::now();
    let waiter = engine.submit(&req);
    let waited = waiter_start.elapsed();
    match waiter {
        Outcome::TimedOut { deadline_ms, .. } => assert_eq!(deadline_ms, 300),
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(
        waited < Duration::from_millis(1_200),
        "waiter blocked {waited:?} — past its deadline, into the wedged compute"
    );

    // The late owner still completes and publishes.
    match owner.join().expect("owner thread") {
        Outcome::Done(done) => assert_eq!(done.source.as_str(), "computed"),
        other => panic!("expected the owner to complete, got {other:?}"),
    }
    // And its published result serves the next request instantly.
    match engine.submit(&req) {
        Outcome::Done(done) => assert_eq!(done.source.as_str(), "mem"),
        other => panic!("expected a mem hit after publication, got {other:?}"),
    }
    assert_eq!(engine.stats().timeouts, 1);
}

/// Deadline expiry while waiting for a worker slot rolls back all
/// admission accounting, so a saturated engine recovers cleanly.
#[test]
fn slot_wait_deadline_expiry_rolls_back_admission_state() {
    let cfg = EngineConfig {
        deadline_cap_ms: Some(250),
        workers: 1,
        ..EngineConfig::default()
    };
    let engine = Engine::with_compute(cfg, |e, platform, fidelity| {
        if e == Experiment::E1 {
            std::thread::sleep(Duration::from_millis(900));
        }
        stub_compute(e, platform, fidelity)
    });

    let hog = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            engine.submit(&Request::new(Experiment::E1, "snb", Fidelity::Quick))
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // Distinct tuple: becomes an owner, but the only slot is hogged.
    let starved = engine.submit(&Request::new(Experiment::E2, "snb", Fidelity::Quick));
    assert!(matches!(starved, Outcome::TimedOut { .. }), "got {starved:?}");

    assert!(matches!(hog.join().expect("hog"), Outcome::Done(_)));
    let stats = engine.stats();
    assert_eq!(stats.queued, 0, "rolled back");
    assert_eq!(stats.backlog_ms, 0, "rolled back");
    assert_eq!(stats.in_flight, 0);

    // The starved request succeeds once capacity is back.
    match engine.submit(&Request::new(Experiment::E2, "snb", Fidelity::Quick)) {
        Outcome::Done(done) => assert_eq!(done.source.as_str(), "computed"),
        other => panic!("expected success after rollback, got {other:?}"),
    }
}

/// Stalled-reader class: a peer that connects and never completes a line
/// is closed at the read timeout, and the capacity it held is freed for
/// real clients.
#[test]
fn stalled_readers_are_timed_out_and_their_capacity_freed() {
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(400),
        max_connections: 2,
        ..ServerConfig::default()
    };
    let engine = Engine::with_compute(EngineConfig::default(), stub_compute);
    let server = Server::bind_with("127.0.0.1:0", engine, cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let server = std::thread::spawn(move || server.serve());

    // Two stalled peers fill the connection gate. One dribbles a partial
    // line (no newline) — per-byte activity must NOT reset the idle
    // clock; the other sends nothing at all.
    let mut dribbler = TcpStream::connect(addr).expect("dribbler connect");
    let mut silent = TcpStream::connect(addr).expect("silent connect");
    std::thread::sleep(Duration::from_millis(150));
    dribbler.write_all(b"{\"v\":1,").expect("dribble");

    // A third peer is shed with a seq-less busy envelope.
    {
        let mut client = Client::connect(addr).expect("shed connect");
        match client.ping() {
            Err(ClientError::Busy { .. }) => {}
            other => panic!("expected shed busy, got {other:?}"),
        }
    }

    // Both stalled peers are closed once the (un-reset) timeout passes.
    for (name, stream) in [("dribbler", &mut dribbler), ("silent", &mut silent)] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("read");
        assert_eq!(n, 0, "{name}: server must close the stalled connection");
    }

    // The freed capacity serves a real client.
    let mut client = Client::connect(addr).expect("post-timeout connect");
    client.ping().expect("freed slot serves traffic");
    drop(client);

    handle.trigger();
    server.join().unwrap().expect("server");
}

/// A newline-less flood is answered with a `line-too-long` error and a
/// close at the cap, not buffered into memory without bound.
#[test]
fn oversized_line_is_refused_at_the_cap() {
    let cfg = ServerConfig {
        max_line_bytes: 4096,
        ..ServerConfig::default()
    };
    let engine = Engine::with_compute(EngineConfig::default(), stub_compute);
    let server = Server::bind_with("127.0.0.1:0", engine, cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let server = std::thread::spawn(move || server.serve());

    let mut stream = TcpStream::connect(addr).expect("connect");
    // Exactly one byte over the cap: the server consumes the whole flood
    // before refusing, so its close carries no pending-data TCP reset
    // that would discard the error envelope.
    let flood = vec![b'x'; 4097];
    stream.write_all(&flood).expect("flood");
    let mut reply = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(
        reply.contains("line-too-long"),
        "expected a line-too-long error envelope, got: {reply:?}"
    );

    handle.trigger();
    server.join().unwrap().expect("server");
}

/// One unauthenticated line holding a single JSON string just under the
/// default 1 MiB cap is refused as a `bad-request` in well under the read
/// timeout, and the connection keeps serving: the line is framed and
/// decoded in time linear in its length.
#[test]
fn hostile_string_line_under_the_cap_is_refused_promptly() {
    let cfg = ServerConfig::default();
    let mut line = vec![b'x'; cfg.max_line_bytes - 16];
    line[0] = b'"';
    line.extend_from_slice(b"\"\n");
    let engine = Engine::new(EngineConfig::default());
    let server = Server::bind_with("127.0.0.1:0", engine, cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let server = std::thread::spawn(move || server.serve());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(&line).expect("hostile line");
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("error envelope within 5 s");
    let env = Envelope::parse_line(reply.trim()).expect("envelope");
    assert_eq!(env.kind, "error", "{reply}");
    let code = env.get("code").and_then(Json::as_str);
    assert_eq!(code, Some("bad-request"), "{reply}");

    stream
        .write_all(b"{\"v\":1,\"kind\":\"ping\"}\n")
        .expect("ping");
    reply.clear();
    reader.read_line(&mut reply).expect("pong");
    let env = Envelope::parse_line(reply.trim()).expect("envelope");
    assert_eq!(env.kind, "pong", "{reply}");

    handle.trigger();
    server.join().unwrap().expect("server");
}

/// Mid-request disconnect class, deterministic-rate edition: with the
/// fault armed at rate 1.0 the client sees a retryable EOF, never a
/// protocol error or panic.
#[test]
fn mid_request_disconnect_is_a_retryable_error() {
    let cfg = EngineConfig {
        faults: ServiceFaults::parse("disconnect=1").expect("spec"),
        ..EngineConfig::default()
    };
    let engine = Engine::with_compute(cfg, stub_compute);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = std::thread::spawn(move || server.serve_n(1));

    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .run(Experiment::E1, "snb", Fidelity::Quick)
        .expect_err("the armed server must drop the connection");
    assert!(err.is_retryable(), "disconnect must classify retryable: {err}");
    server.join().unwrap().expect("server");
}

/// The client-resilience acceptance test: against a server that sheds
/// (tiny connection cap held by a stalled peer) and randomly disconnects
/// mid-request, `run_with_retries` — the machinery behind
/// `roofctl --retries` — eventually succeeds, and the result is
/// byte-identical to the serial reference.
#[test]
fn retrying_client_eventually_succeeds_against_transient_failures() {
    let reference = serial_reference(Experiment::E5, "snb");
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(500),
        max_connections: 1,
        ..ServerConfig::default()
    };
    let engine_cfg = EngineConfig {
        faults: ServiceFaults::parse("disconnect=0.4,seed=11").expect("spec"),
        ..EngineConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", Engine::new(engine_cfg), cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let server = std::thread::spawn(move || server.serve());

    // One stalled peer holds the whole connection budget for ~500 ms, so
    // early attempts are shed busy; later attempts race the disconnect
    // lottery and eventually one round trip completes.
    let _stalled = TcpStream::connect(addr).expect("stalled connect");

    let policy = RetryPolicy {
        attempts: 12,
        base_ms: 120,
        cap_ms: 1_000,
        seed: 42,
    };
    let reply = run_with_retries(
        addr,
        &RunOpts::new(Experiment::E5, "snb", Fidelity::Quick),
        &policy,
        Some(Duration::from_secs(10)),
        None,
    )
    .expect("retries must eventually succeed");
    assert_identical("retried response", &reference, &reply.artifacts);

    handle.trigger();
    server.join().unwrap().expect("server");
}

/// Graceful shutdown: the `shutdown` protocol command stops the accept
/// loop, in-flight work drains, and `serve()` returns cleanly.
#[test]
fn shutdown_command_drains_and_joins_the_server() {
    let engine = Engine::with_compute(EngineConfig::default(), stub_compute);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(addr).expect("connect");
    client.run(Experiment::E1, "snb", Fidelity::Quick).expect("run");
    client.shutdown().expect("shutdown ack");
    server.join().unwrap().expect("serve returns Ok after shutdown");

    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "a shut-down server must not accept"
    );
}

/// The accept loop blocks in `accept()`; `trigger()` wakes it by
/// connecting to the listener, also when the listener is bound to the
/// unspecified address (the wake connection goes to loopback). A lost
/// wake-up shows as a hung join.
#[test]
fn trigger_wakes_an_idle_accept_loop() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let engine = Engine::with_compute(EngineConfig::default(), stub_compute);
        let server = Server::bind(bind, engine).expect("bind");
        let port = server.local_addr().expect("addr").port();
        let handle = server.shutdown_handle();
        let server = std::thread::spawn(move || server.serve());

        // One round trip proves the loop is running; the client then goes,
        // so the loop waits in `accept` with no client connected.
        Client::connect(("127.0.0.1", port)).expect("connect").ping().expect("ping");
        handle.trigger();
        server.join().unwrap().expect("serve returns Ok after trigger");
    }
}

/// A trigger that lands before `serve()` starts is not lost: its wake
/// connection waits in the listen backlog for the first `accept`.
#[test]
fn trigger_before_serve_still_stops_the_server() {
    let engine = Engine::with_compute(EngineConfig::default(), stub_compute);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind");
    server.shutdown_handle().trigger();
    std::thread::spawn(move || server.serve())
        .join()
        .unwrap()
        .expect("serve returns Ok after an early trigger");
}

/// The wake connection is never shed: with the only slot held by an idle
/// client, `trigger()` still stops the server and `shed` stays 0.
#[test]
fn wake_connection_is_not_shed_at_the_connection_cap() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let engine = Engine::with_compute(EngineConfig::default(), stub_compute);
    let server = Server::bind_with("127.0.0.1:0", engine.clone(), cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let server = std::thread::spawn(move || server.serve());

    // A served round trip proves the idle client holds the only slot.
    let mut idle = Client::connect(addr).expect("connect");
    idle.ping().expect("ping");
    handle.trigger();
    server.join().unwrap().expect("serve returns Ok after trigger");
    assert_eq!(engine.stats().shed, 0, "the wake connection must not be shed");
    drop(idle);
}

/// The zero-fault guarantee: an *enabled* fault config with every knob
/// at zero is bit-transparent — responses are byte-identical to both an
/// unarmed engine's and the serial reference, and no resilience counter
/// ticks.
#[test]
fn enabled_noop_faults_are_byte_transparent() {
    let reference = serial_reference(Experiment::E2, "snb");
    let mut trees = Vec::new();
    for faults in [ServiceFaults::default(), ServiceFaults::enabled_noop()] {
        let cache_dir = temp_dir("noop");
        let cfg = EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            faults,
            ..EngineConfig::default()
        };
        let engine = Engine::new(cfg);
        let outcome = engine.submit(&Request::new(Experiment::E2, "snb", Fidelity::Quick));
        let Outcome::Done(done) = outcome else {
            panic!("expected Done, got {outcome:?}");
        };
        assert_identical("noop-faulted response", &reference, &done.result.tree);
        let stats = engine.stats();
        assert_eq!(
            (stats.timeouts, stats.shed, stats.quarantined),
            (0, 0, 0),
            "clean path must not tick resilience counters"
        );
        trees.push(done.result.tree.clone());
        let _ = fs::remove_dir_all(&cache_dir);
    }
    assert_eq!(trees[0], trees[1], "armed-noop differs from unarmed");
}

/// CI's per-class storm: `ROOFD_CHAOS=<class-or-spec> cargo test
/// chaos_storm_from_env` arms the whole stack with the class under test
/// and drives concurrent retrying clients through it. Whatever the
/// fault, no response may diverge from the serial reference and the
/// server must stay joinable. Skips (trivially passes) when the
/// variable is unset — the dedicated tests above cover each class
/// deterministically.
#[test]
fn chaos_storm_from_env() {
    let Some(faults) = ServiceFaults::from_env().expect("ROOFD_CHAOS must parse") else {
        return;
    };
    let reference = serial_reference(Experiment::E1, "snb");
    let cache_dir = temp_dir("storm");
    let engine_cfg = EngineConfig {
        cache_dir: Some(cache_dir.clone()),
        deadline_cap_ms: Some(2_000),
        faults: faults.clone(),
        ..EngineConfig::default()
    };
    let server_cfg = ServerConfig {
        read_timeout: Duration::from_millis(700),
        max_connections: 8,
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", Engine::new(engine_cfg), server_cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let server = std::thread::spawn(move || server.serve());

    // The class's stalled peers, if any, dribble against the server for
    // the duration of the storm.
    let stalled: Vec<_> = (0..faults.stalled_peers)
        .map(|_| TcpStream::connect(addr).expect("stalled connect"))
        .collect();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    attempts: 15,
                    base_ms: 150,
                    cap_ms: 1_500,
                    seed: 100 + i,
                };
                run_with_retries(
                    addr,
                    &RunOpts::new(Experiment::E1, "snb", Fidelity::Quick),
                    &policy,
                    Some(Duration::from_secs(15)),
                    None,
                )
            })
        })
        .collect();
    for client in clients {
        let reply = client
            .join()
            .expect("client thread")
            .expect("every retrying client must eventually succeed");
        assert_identical("storm response", &reference, &reply.artifacts);
    }
    drop(stalled);

    // Whatever the cache now holds, a clean engine over the same
    // directory refuses to serve anything corrupt.
    let clean = Engine::new(EngineConfig {
        cache_dir: Some(cache_dir.clone()),
        ..EngineConfig::default()
    });
    match clean.submit(&Request::new(Experiment::E1, "snb", Fidelity::Quick)) {
        Outcome::Done(done) => {
            assert_identical("post-storm verified read", &reference, &done.result.tree)
        }
        other => panic!("post-storm read failed: {other:?}"),
    }

    handle.trigger();
    server.join().unwrap().expect("server");
    let _ = fs::remove_dir_all(&cache_dir);
}
