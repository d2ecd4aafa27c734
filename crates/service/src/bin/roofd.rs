//! `roofd` — the long-running roofline-analysis server.
//!
//! ```text
//! roofd [--addr HOST:PORT] [--cache-dir DIR | --no-disk-cache]
//!       [--mem-budget-mb N] [--workers N] [--queue-depth N]
//!       [--max-backlog-min N] [--connections N]
//!       [--read-timeout-ms N] [--write-timeout-ms N] [--max-line-kb N]
//!       [--max-connections N] [--deadline-cap-ms N] [--chaos SPEC]
//!       [--tokens FILE] [--quota-rate N] [--quota-burst N]
//!       [--anon-weight F]
//!       [--peers A,B,C] [--self-addr HOST:PORT] [--fleet-seed N]
//!       [--fleet-secret S] [--peer-timeout-ms N]
//!       [--probe-interval-ms N] [--probe-failures K]
//! ```
//!
//! Speaks the JSON-lines protocol on TCP: one request envelope per line,
//! one response envelope per line. Identical concurrent requests are
//! computed once; repeats are served from the content-addressed cache
//! (memory LRU spilling to `--cache-dir`, default `.roofd-cache/`).
//! Requests beyond the queue/backlog bounds get a `busy` response; a
//! request whose deadline expires gets a retryable `timeout` error; disk
//! entries failing checksum verification are quarantined, not served.
//!
//! `--chaos SPEC` arms the fault injector (a class name like
//! `torn-write`, or `key=value` pairs — see
//! `roofline_service::faults::ServiceFaults::parse`); the `ROOFD_CHAOS`
//! environment variable is the equivalent for CI jobs that cannot edit
//! the command line. Never arm chaos on a server whose cache you care
//! about.
//!
//! `--tokens FILE` arms token authentication and fair-share quotas: the
//! file maps bearer tokens to tenant names and weights (`token tenant
//! [weight]` per line, `#` comments). Authenticated connections get
//! their tenant's weighted token bucket and backlog slice;
//! unauthenticated ones share a narrow anonymous allowance
//! (`--anon-weight`, default 0.25). `--quota-rate`/`--quota-burst` tune
//! the per-weight bucket (default 50 req/s, burst 100).
//!
//! `--peers A,B,C` joins a fleet: the listed nodes (this one included,
//! as `--self-addr`, default `--addr`) agree via rendezvous hashing —
//! same `--fleet-seed` everywhere — on one owner per content digest,
//! and a non-owner fetches from the owner before computing locally.
//! `--fleet-secret` (required with `--peers`, same value everywhere) is
//! the shared membership proof: a `run` with a valid `fleet_token` is a
//! peer fetch, exempt from quotas — holding the secret already grants
//! join/leave/drain/replicate, so the exemption adds no privilege — and
//! a `run` without it is charged to its session tenant like any other
//! request. The `ROOFD_FLEET_SECRET` environment variable is the
//! equivalent for scripts that must keep the secret off the command
//! line.
//!
//! `--peers` names the *initial* membership; from there the view is
//! dynamic. Every node probes its peers each `--probe-interval-ms`
//! (default 1000) with an authenticated ping; `--probe-failures`
//! (default 3) consecutive failures suspect a peer out of the live view
//! — ownership reassigns to the survivors — and a single success
//! re-admits it. `roofctl join|leave|drain` edit membership at runtime,
//! and each fresh compute is replicated to its digest's rendezvous
//! successor so an owner death costs a peer hop, not a recompute.
//!
//! The server stops gracefully on a `shutdown` protocol command
//! (`roofctl shutdown`): it stops accepting, drains in-flight requests,
//! and exits 0. There is no signal handler — SIGTERM is an abrupt stop,
//! and the next startup sweeps any staging debris it left.
//!
//! Prints `roofd listening on <addr>` on stdout once the socket is
//! bound — scripts wait for that line before connecting.

use roofline_service::auth::AuthConfig;
use roofline_service::cli::{int, positive, positive_real, value};
use roofline_service::engine::{Engine, EngineConfig};
use roofline_service::faults::ServiceFaults;
use roofline_service::fleet::FleetConfig;
use roofline_service::server::{Server, ServerConfig};
use roofline_service::{DEFAULT_ADDR, DEFAULT_CACHE_DIR};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    cfg: EngineConfig,
    server_cfg: ServerConfig,
    connections: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cfg = EngineConfig {
        cache_dir: Some(PathBuf::from(DEFAULT_CACHE_DIR)),
        ..EngineConfig::default()
    };
    let mut server_cfg = ServerConfig::default();
    let mut connections = None;
    let mut chaos = ServiceFaults::from_env()?;
    let mut peers: Option<Vec<String>> = None;
    let mut self_addr: Option<String> = None;
    let mut fleet_seed = 0u64;
    let mut fleet_secret = std::env::var("ROOFD_FLEET_SECRET").ok();
    let mut peer_timeout_ms: Option<u64> = None;
    let mut probe_interval_ms: Option<u64> = None;
    let mut probe_failures: Option<u32> = None;
    let mut quota_rate: Option<f64> = None;
    let mut quota_burst: Option<f64> = None;
    let mut anon_weight: Option<f64> = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let it = &mut it;
        let flag = arg.as_str();
        match flag {
            "--addr" | "-a" => addr = value(it, "--addr")?,
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value(it, flag)?)),
            "--no-disk-cache" => cfg.cache_dir = None,
            "--mem-budget-mb" => cfg.mem_budget_bytes = int::<usize>(it, flag)? << 20,
            "--workers" => cfg.workers = positive(it, flag)?,
            "--queue-depth" => cfg.queue_depth = int(it, flag)?,
            "--max-backlog-min" => cfg.max_backlog_ms = int::<u64>(it, flag)? * 60_000,
            "--read-timeout-ms" => {
                server_cfg.read_timeout = Duration::from_millis(positive(it, flag)?)
            }
            "--write-timeout-ms" => {
                server_cfg.write_timeout = Duration::from_millis(positive(it, flag)?)
            }
            "--max-line-kb" => server_cfg.max_line_bytes = positive::<usize>(it, flag)? << 10,
            "--max-connections" => server_cfg.max_connections = positive(it, flag)?,
            "--deadline-cap-ms" => cfg.deadline_cap_ms = Some(positive(it, flag)?),
            "--chaos" => chaos = Some(ServiceFaults::parse(&value(it, flag)?)?),
            "--tokens" => cfg.auth = AuthConfig::from_file(&PathBuf::from(value(it, flag)?))?,
            "--quota-rate" => {
                let v = value(it, flag)?;
                quota_rate = v.parse().ok().filter(|r: &f64| r.is_finite() && *r >= 0.0);
                quota_rate.ok_or(format!("{flag} needs a non-negative number, got `{v}`"))?;
            }
            "--quota-burst" => quota_burst = Some(positive_real(it, flag)?),
            "--anon-weight" => anon_weight = Some(positive_real(it, flag)?),
            "--peers" => {
                peers = Some(
                    value(it, flag)?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--self-addr" => self_addr = Some(value(it, flag)?),
            "--fleet-seed" => fleet_seed = int(it, flag)?,
            "--fleet-secret" => {
                let v = value(it, flag)?;
                if v.is_empty() {
                    return Err("--fleet-secret must not be empty".to_string());
                }
                fleet_secret = Some(v);
            }
            "--peer-timeout-ms" => peer_timeout_ms = Some(positive(it, flag)?),
            "--probe-interval-ms" => probe_interval_ms = Some(positive(it, flag)?),
            "--probe-failures" => probe_failures = Some(positive(it, flag)?),
            "--connections" => connections = Some(int(it, flag)?),
            "--help" | "-h" => {
                println!(
                    "usage: roofd [--addr HOST:PORT] [--cache-dir DIR | --no-disk-cache]\n\
                     \x20            [--mem-budget-mb N] [--workers N] [--queue-depth N]\n\
                     \x20            [--max-backlog-min N] [--connections N]\n\
                     \x20            [--read-timeout-ms N] [--write-timeout-ms N]\n\
                     \x20            [--max-line-kb N] [--max-connections N]\n\
                     \x20            [--deadline-cap-ms N] [--chaos SPEC]\n\
                     defaults: --addr {DEFAULT_ADDR}, --cache-dir {DEFAULT_CACHE_DIR},\n\
                     \x20         --mem-budget-mb 64, workers = available parallelism,\n\
                     \x20         --read-timeout-ms 60000, --write-timeout-ms 30000,\n\
                     \x20         --max-line-kb 1024, --max-connections 256\n\
                     --connections N serves exactly N connections then exits (for scripts)\n\
                     --chaos SPEC arms fault injection (class name or key=value pairs);\n\
                     \x20           the ROOFD_CHAOS env var is equivalent\n\
                     --tokens FILE arms auth + fair-share quotas (token tenant [weight] per line)\n\
                     \x20  quota knobs: --quota-rate 50 --quota-burst 100 --anon-weight 0.25\n\
                     --peers A,B,C joins a consistent-hash fleet (--self-addr defaults to --addr;\n\
                     \x20  all nodes must share --fleet-seed and --fleet-secret, the membership\n\
                     \x20  proof peer fetches present — ROOFD_FLEET_SECRET is the env equivalent);\n\
                     \x20  --peer-timeout-ms bounds each peer-fetch attempt (default 5000, further\n\
                     \x20  clamped to the requesting client's deadline)\n\
                     \x20  --probe-interval-ms sets the health-probe cadence (default 1000);\n\
                     \x20  --probe-failures sets how many consecutive failed probes suspect a\n\
                     \x20  peer out of the live view (default 3; one success re-admits)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(chaos) = chaos {
        eprintln!("roofd: CHAOS ARMED: {chaos:?}");
        cfg.faults = chaos;
    }
    if quota_rate.is_some() || quota_burst.is_some() || anon_weight.is_some() {
        let mut quota = cfg.auth.quota.clone().unwrap_or_default();
        quota.rate_per_s = quota_rate.unwrap_or(quota.rate_per_s);
        quota.burst = quota_burst.unwrap_or(quota.burst);
        cfg.auth.quota = Some(quota);
        if let Some(w) = anon_weight {
            cfg.auth.anon_weight = w;
        } else if cfg.auth.anon_weight <= 0.0 {
            cfg.auth.anon_weight = roofline_service::auth::DEFAULT_ANON_WEIGHT;
        }
    }
    if let Some(peers) = peers {
        if peers.len() < 2 {
            return Err("--peers needs at least two comma-separated addresses".to_string());
        }
        let self_addr = self_addr.unwrap_or_else(|| addr.clone());
        if !peers.contains(&self_addr) {
            return Err(format!(
                "--self-addr {self_addr} does not appear in --peers {}",
                peers.join(",")
            ));
        }
        let secret = fleet_secret.filter(|s| !s.is_empty()).ok_or(
            "--peers needs --fleet-secret (or ROOFD_FLEET_SECRET): the shared secret \
             that proves a peer fetch really came from the fleet",
        )?;
        let mut fleet = FleetConfig::new(self_addr, peers, fleet_seed, secret);
        fleet.io_timeout = peer_timeout_ms.map_or(fleet.io_timeout, Duration::from_millis);
        fleet.probe_interval =
            probe_interval_ms.map_or(fleet.probe_interval, Duration::from_millis);
        fleet.probe_failures = probe_failures.unwrap_or(fleet.probe_failures);
        cfg.fleet = Some(fleet);
    }
    Ok(Args {
        addr,
        cfg,
        server_cfg,
        connections,
    })
}

fn serve(args: Args) -> Result<(), String> {
    let engine = Engine::new(args.cfg);
    let server = Server::bind_with(args.addr.as_str(), engine, args.server_cfg)
        .map_err(|e| format!("could not bind {}: {e}", args.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("could not read bound address: {e}"))?;
    println!("roofd listening on {addr}");
    match args.connections {
        None => server.serve(),
        Some(n) => server.serve_n(n),
    }
    .map_err(|e| format!("serve failed: {e}"))
}

fn main() -> ExitCode {
    match parse_args().and_then(serve) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
