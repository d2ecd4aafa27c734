//! `roofd_loadgen` — drives a seeded zipf workload against roofd
//! fleets and writes the `BENCH_roofd.json` report.
//!
//! ```text
//! roofd_loadgen [--nodes 1,3 | --addrs HOST:PORT,...]
//!               [--clients N] [--requests N] [--seed N] [--zipf-s F]
//!               [--tenants tok:name,... | anon] [--quota-rate F]
//!               [--quota-burst F] [--fleet-seed N] [--peer-timeout-ms N]
//!               [--kill-node-at N] [--restart-node-at N]
//!               [--out FILE] [--assert-peer-hits] [--assert-fairness F]
//! ```
//!
//! Two modes:
//!
//! * **spawn** (default, `--nodes 1,3`): for each listed fleet size the
//!   generator binds that many in-process roofd nodes on ephemeral
//!   ports — wired into a consistent-hash fleet when the size is > 1,
//!   with every `--tenants` token registered at weight 1 — drives the
//!   workload, snapshots each node's counters, and shuts the fleet
//!   down. Self-contained: this is how the committed bench document is
//!   regenerated.
//! * **external** (`--addrs`): drives an already-running fleet and
//!   reports it as one entry; tokens must match the servers' file.
//!
//! **Churn** (spawn mode only): `--kill-node-at N` shuts the last node
//! of each multi-node fleet down once `N` requests have been issued,
//! and `--restart-node-at M` (requires the kill, `M > N`) rebinds the
//! same address with the same configuration once `M` have been issued.
//! Clients fail over to surviving nodes, the health prober evicts the
//! dead node from the live views, replica fallback serves its hot
//! digests, and the restarted node rejoins on its own — the loadgen
//! reproduction of the CI churn gate.
//!
//! `--assert-peer-hits` fails (exit 1) if no multi-node fleet answered
//! any request via a cache-peer fetch; `--assert-fairness F` fails if
//! any fleet's max/min served ratio across tenant lanes exceeds `F`
//! **or** any tenant lane was starved outright (`starved` non-empty in
//! the report). CI's service-fleet job runs with both.

use roofline_loadgen::{run_workload, Report, TenantSpec, WorkloadConfig};
use roofline_service::auth::{AuthConfig, QuotaConfig, ANON_TENANT, FLEET_TENANT};
use roofline_service::engine::{Engine, EngineConfig};
use roofline_service::fleet::FleetConfig;
use roofline_service::server::{Server, ServerConfig, ShutdownHandle};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

struct Args {
    node_counts: Vec<usize>,
    addrs: Option<Vec<String>>,
    clients: usize,
    requests: usize,
    seed: u64,
    zipf_s: f64,
    tenants: Vec<TenantSpec>,
    quota_rate: f64,
    quota_burst: f64,
    fleet_seed: u64,
    peer_timeout_ms: u64,
    kill_node_at: Option<u64>,
    restart_node_at: Option<u64>,
    out: Option<String>,
    assert_peer_hits: bool,
    assert_fairness: Option<f64>,
}

fn parse_tenants(spec: &str) -> Result<Vec<TenantSpec>, String> {
    let mut tenants = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if part == "anon" {
            tenants.push(TenantSpec {
                token: None,
                name: "anon".to_string(),
            });
            continue;
        }
        let (token, name) = part
            .split_once(':')
            .ok_or(format!("tenant `{part}` is not `token:name` (or `anon`)"))?;
        if token.is_empty() || name.is_empty() {
            return Err(format!("tenant `{part}` has an empty token or name"));
        }
        if name == ANON_TENANT || name == FLEET_TENANT {
            return Err(format!("tenant `{part}`: the name `{name}` is reserved"));
        }
        tenants.push(TenantSpec {
            token: Some(token.to_string()),
            name: name.to_string(),
        });
    }
    if tenants.is_empty() {
        return Err("--tenants needs at least one lane".to_string());
    }
    Ok(tenants)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        node_counts: vec![1, 3],
        addrs: None,
        clients: 12,
        requests: 40,
        seed: 42,
        zipf_s: 1.1,
        tenants: parse_tenants("tok-a:team-a,tok-b:team-b").expect("default tenants"),
        quota_rate: 200.0,
        quota_burst: 400.0,
        fleet_seed: 42,
        // Short on purpose: under full benchmark load the owner of a
        // hot digest is often busy, and a peer fetch that falls back
        // to local compute after 2 s beats one that stalls for the
        // service default of 30 s — the p99 would otherwise measure
        // the timeout, not the fleet.
        peer_timeout_ms: 2_000,
        kill_node_at: None,
        restart_node_at: None,
        out: None,
        assert_peer_hits: false,
        assert_fairness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--nodes" => {
                let v = value("--nodes")?;
                args.node_counts = v
                    .split(',')
                    .map(|n| {
                        n.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or(format!("--nodes needs positive integers, got `{v}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--addrs" => {
                args.addrs = Some(
                    value("--addrs")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--clients" => {
                let v = value("--clients")?;
                args.clients = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--clients needs a positive integer, got `{v}`"))?;
            }
            "--requests" => {
                let v = value("--requests")?;
                args.requests = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--requests needs a positive integer, got `{v}`"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got `{v}`"))?;
            }
            "--zipf-s" => {
                let v = value("--zipf-s")?;
                args.zipf_s = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--zipf-s needs a non-negative number, got `{v}`"))?;
            }
            "--tenants" => args.tenants = parse_tenants(&value("--tenants")?)?,
            "--quota-rate" => {
                let v = value("--quota-rate")?;
                args.quota_rate = v
                    .parse()
                    .ok()
                    .filter(|r: &f64| r.is_finite() && *r >= 0.0)
                    .ok_or(format!("--quota-rate needs a non-negative number, got `{v}`"))?;
            }
            "--quota-burst" => {
                let v = value("--quota-burst")?;
                args.quota_burst = v
                    .parse()
                    .ok()
                    .filter(|b: &f64| b.is_finite() && *b > 0.0)
                    .ok_or(format!("--quota-burst needs a positive number, got `{v}`"))?;
            }
            "--fleet-seed" => {
                let v = value("--fleet-seed")?;
                args.fleet_seed = v
                    .parse()
                    .map_err(|_| format!("--fleet-seed needs an integer, got `{v}`"))?;
            }
            "--peer-timeout-ms" => {
                let v = value("--peer-timeout-ms")?;
                args.peer_timeout_ms = v
                    .parse()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .ok_or(format!("--peer-timeout-ms needs a positive integer, got `{v}`"))?;
            }
            "--kill-node-at" => {
                let v = value("--kill-node-at")?;
                args.kill_node_at = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("--kill-node-at needs a positive integer, got `{v}`"))?,
                );
            }
            "--restart-node-at" => {
                let v = value("--restart-node-at")?;
                args.restart_node_at = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!(
                            "--restart-node-at needs a positive integer, got `{v}`"
                        ))?,
                );
            }
            "--out" => args.out = Some(value("--out")?),
            "--assert-peer-hits" => args.assert_peer_hits = true,
            "--assert-fairness" => {
                let v = value("--assert-fairness")?;
                args.assert_fairness = Some(
                    v.parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite() && *f >= 1.0)
                        .ok_or(format!("--assert-fairness needs a number ≥ 1, got `{v}`"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: roofd_loadgen [--nodes 1,3 | --addrs HOST:PORT,...]\n\
                     \x20                    [--clients N] [--requests N] [--seed N]\n\
                     \x20                    [--zipf-s F] [--tenants tok:name,...|anon]\n\
                     \x20                    [--quota-rate F] [--quota-burst F]\n\
                     \x20                    [--fleet-seed N] [--peer-timeout-ms N]\n\
                     \x20                    [--kill-node-at N] [--restart-node-at N]\n\
                     \x20                    [--out FILE] [--assert-peer-hits]\n\
                     \x20                    [--assert-fairness F]\n\
                     defaults: --nodes 1,3 --clients 12 --requests 40 --seed 42\n\
                     \x20         --zipf-s 1.1 --tenants tok-a:team-a,tok-b:team-b\n\
                     \x20         --quota-rate 200 --quota-burst 400 --peer-timeout-ms 2000\n\
                     churn (spawn mode): --kill-node-at N shuts the last node down after\n\
                     \x20  N issued requests; --restart-node-at M rebinds it after M"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let total = (args.clients * args.requests) as u64;
    match (args.kill_node_at, args.restart_node_at) {
        (None, Some(_)) => {
            return Err("--restart-node-at needs --kill-node-at".to_string());
        }
        (Some(kill), _) if args.addrs.is_some() => {
            return Err(format!(
                "--kill-node-at {kill} only works in spawn mode; churn an external \
                 fleet by killing the roofd process itself"
            ));
        }
        (Some(kill), restart) => {
            // The thresholds are issued-request counts, so both must be
            // reachable or the churn controller would wait forever.
            if kill >= total {
                return Err(format!(
                    "--kill-node-at {kill} is never reached: the workload issues {total} requests"
                ));
            }
            if let Some(restart) = restart {
                if restart <= kill {
                    return Err(format!(
                        "--restart-node-at {restart} must be after --kill-node-at {kill}"
                    ));
                }
                if restart >= total {
                    return Err(format!(
                        "--restart-node-at {restart} is never reached: the workload issues \
                         {total} requests"
                    ));
                }
            }
        }
        (None, None) => {}
    }
    Ok(args)
}

/// One spawned fleet: addresses, shutdown handles, serve threads.
struct SpawnedFleet {
    addrs: Vec<String>,
    handles: Vec<ShutdownHandle>,
    threads: Vec<thread::JoinHandle<std::io::Result<()>>>,
}

/// Everything needed to boot (or re-boot, after a churn kill) one node
/// of a spawned fleet: the same address, peers, auth, and fleet tuning
/// every time, so a restarted node is indistinguishable from the
/// original to its surviving peers.
#[derive(Clone)]
struct NodeRecipe {
    addr: String,
    addrs: Vec<String>,
    auth: AuthConfig,
    fleet_seed: u64,
    peer_timeout_ms: u64,
}

impl NodeRecipe {
    fn engine(&self) -> Engine {
        let cfg = EngineConfig {
            cache_dir: None,
            auth: self.auth.clone(),
            fleet: (self.addrs.len() > 1).then(|| {
                // The spawned nodes live and die inside this process, so
                // the membership secret is derived, not configured —
                // it never leaves the process and the bench numbers do
                // not depend on it.
                let secret = format!("loadgen-fleet-{}", self.fleet_seed);
                let mut fleet = FleetConfig::new(
                    self.addr.clone(),
                    self.addrs.clone(),
                    self.fleet_seed,
                    secret,
                );
                fleet.io_timeout = Duration::from_millis(self.peer_timeout_ms);
                fleet
            }),
            ..EngineConfig::default()
        };
        Engine::new(cfg)
    }

    fn serve_on(
        &self,
        listener: TcpListener,
    ) -> (ShutdownHandle, thread::JoinHandle<std::io::Result<()>>) {
        let server = Server::from_listener(listener, self.engine(), ServerConfig::default());
        let handle = server.shutdown_handle();
        (handle, thread::spawn(move || server.serve()))
    }
}

fn build_auth(args: &Args) -> AuthConfig {
    let mut auth = AuthConfig::default();
    for t in &args.tenants {
        if let Some(token) = &t.token {
            auth = auth.with_token(token, &t.name, 1.0);
        }
    }
    auth.anon_weight = roofline_service::auth::DEFAULT_ANON_WEIGHT;
    auth.quota = Some(QuotaConfig {
        rate_per_s: args.quota_rate,
        burst: args.quota_burst,
    });
    auth
}

fn spawn_fleet(args: &Args, n: usize) -> Result<SpawnedFleet, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("could not bind a fleet listener: {e}"))?;
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("could not read a bound address: {e}"))?;
    let auth = build_auth(args);

    let mut handles = Vec::new();
    let mut threads = Vec::new();
    for (listener, addr) in listeners.into_iter().zip(&addrs) {
        let recipe = NodeRecipe {
            addr: addr.clone(),
            addrs: addrs.clone(),
            auth: auth.clone(),
            fleet_seed: args.fleet_seed,
            peer_timeout_ms: args.peer_timeout_ms,
        };
        let (handle, thread) = recipe.serve_on(listener);
        handles.push(handle);
        threads.push(thread);
    }
    Ok(SpawnedFleet {
        addrs,
        handles,
        threads,
    })
}

/// The churn controller: a thread that kills the victim node once the
/// fleet has issued `kill_at` requests, and (optionally) rebinds the
/// same address with the same recipe at `restart_at`. Returns the
/// restarted node's handle and serve thread so the caller can shut it
/// down with the rest of the fleet.
fn churn_controller(
    progress: Arc<AtomicU64>,
    kill_at: u64,
    restart_at: Option<u64>,
    victim_handle: ShutdownHandle,
    victim_thread: thread::JoinHandle<std::io::Result<()>>,
    recipe: NodeRecipe,
) -> thread::JoinHandle<Option<(ShutdownHandle, thread::JoinHandle<std::io::Result<()>>)>> {
    thread::spawn(move || {
        let wait_for = |threshold: u64| {
            while progress.load(Ordering::Relaxed) < threshold {
                thread::sleep(Duration::from_millis(5));
            }
        };
        wait_for(kill_at);
        eprintln!(
            "loadgen: churn: killing {} after {kill_at} issued request(s)",
            recipe.addr
        );
        victim_handle.trigger();
        // Join before rebinding: the port must actually be released.
        let _ = victim_thread.join();
        let restart_at = restart_at?;
        wait_for(restart_at);
        // The OS can lag a moment between the accept loop exiting and
        // the port becoming bindable again; retry briefly.
        let mut listener = TcpListener::bind(&recipe.addr);
        for _ in 0..50 {
            if listener.is_ok() {
                break;
            }
            thread::sleep(Duration::from_millis(20));
            listener = TcpListener::bind(&recipe.addr);
        }
        match listener {
            Ok(listener) => {
                eprintln!(
                    "loadgen: churn: restarting {} after {restart_at} issued request(s)",
                    recipe.addr
                );
                Some(recipe.serve_on(listener))
            }
            Err(e) => {
                eprintln!(
                    "loadgen: churn: could not rebind {}: {e} — the node stays dead",
                    recipe.addr
                );
                None
            }
        }
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = |addrs: Vec<String>, progress: Option<Arc<AtomicU64>>| {
        let mut cfg = WorkloadConfig::new(addrs, args.seed);
        cfg.clients = args.clients;
        cfg.requests_per_client = args.requests;
        cfg.zipf_s = args.zipf_s;
        cfg.tenants = args.tenants.clone();
        cfg.progress = progress;
        run_workload(&cfg)
    };

    let mut fleets = Vec::new();
    match &args.addrs {
        Some(addrs) => {
            eprintln!(
                "loadgen: driving external fleet of {} node(s): {}",
                addrs.len(),
                addrs.join(", ")
            );
            fleets.push(workload(addrs.clone(), None));
        }
        None => {
            for &n in &args.node_counts {
                eprintln!("loadgen: spawning in-process fleet of {n} node(s)");
                let mut fleet = spawn_fleet(args, n)?;

                // Arm the churn controller: the victim is the last node,
                // so its handle and serve thread pop off cleanly.
                let mut controller = None;
                match args.kill_node_at {
                    Some(kill_at) if n > 1 => {
                        let progress = Arc::new(AtomicU64::new(0));
                        let victim_handle = fleet.handles.pop().expect("victim handle");
                        let victim_thread = fleet.threads.pop().expect("victim thread");
                        let recipe = NodeRecipe {
                            addr: fleet.addrs[n - 1].clone(),
                            addrs: fleet.addrs.clone(),
                            auth: build_auth(args),
                            fleet_seed: args.fleet_seed,
                            peer_timeout_ms: args.peer_timeout_ms,
                        };
                        controller = Some(churn_controller(
                            Arc::clone(&progress),
                            kill_at,
                            args.restart_node_at,
                            victim_handle,
                            victim_thread,
                            recipe,
                        ));
                        fleets.push(workload(fleet.addrs.clone(), Some(progress)));
                    }
                    Some(_) => {
                        eprintln!(
                            "loadgen: churn skipped for the 1-node fleet (nothing to fail over to)"
                        );
                        fleets.push(workload(fleet.addrs.clone(), None));
                    }
                    None => fleets.push(workload(fleet.addrs.clone(), None)),
                }

                if let Some(controller) = controller {
                    if let Some((handle, thread)) =
                        controller.join().expect("churn controller panicked")
                    {
                        fleet.handles.push(handle);
                        fleet.threads.push(thread);
                    }
                }
                for handle in &fleet.handles {
                    handle.trigger();
                }
                for t in fleet.threads {
                    let _ = t.join();
                }
            }
        }
    }

    let report = Report {
        seed: args.seed,
        zipf_s: args.zipf_s,
        fleets,
    };
    for f in &report.fleets {
        eprintln!(
            "loadgen: {} node(s): served {}/{} (quota {}, errors {}), \
             p50 {} ms, p99 {} ms, peer-hit share {:.3}, fairness {:.2}{}",
            f.nodes,
            f.served,
            f.requests,
            f.quota_rejected,
            f.errors,
            f.p50_ms,
            f.p99_ms,
            f.peer_hit_share,
            f.fairness_ratio,
            if f.starved.is_empty() {
                String::new()
            } else {
                format!(", STARVED: {}", f.starved.join(", "))
            },
        );
    }

    let text = report.render();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| format!("could not write {path}: {e}"))?;
            eprintln!("loadgen: wrote {path}");
        }
        None => print!("{text}"),
    }

    let mut failures = Vec::new();
    if args.assert_peer_hits {
        let peer_hits: u64 = report
            .fleets
            .iter()
            .filter(|f| f.nodes > 1)
            .flat_map(|f| f.per_node.iter().map(|n| n.peer_hits))
            .sum();
        if peer_hits == 0 {
            failures.push("no multi-node fleet answered any request via a peer fetch".to_string());
        }
    }
    if let Some(bound) = args.assert_fairness {
        for f in &report.fleets {
            // A starved lane is the loudest unfairness there is — it
            // fails by name, not by an inflated ratio.
            if !f.starved.is_empty() {
                failures.push(format!(
                    "{}-node fleet starved tenant lane(s) {}: zero requests served",
                    f.nodes,
                    f.starved.join(", ")
                ));
            }
            // NaN must fail the bound, so compare in the failing
            // direction rather than negating `<=`.
            if f.fairness_ratio > bound || f.fairness_ratio.is_nan() {
                failures.push(format!(
                    "{}-node fleet fairness ratio {:.2} exceeds the {bound:.2} bound",
                    f.nodes, f.fairness_ratio
                ));
            }
        }
    }
    for f in &report.fleets {
        if f.errors > 0 {
            failures.push(format!(
                "{}-node fleet lost {} request(s) to non-quota errors",
                f.nodes, f.errors
            ));
        }
    }
    for failure in &failures {
        eprintln!("error: {failure}");
    }
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tenants_accepts_lanes_and_refuses_reserved_names() {
        let lanes = parse_tenants("tok-a:team-a, anon").expect("valid lanes");
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].token.as_deref(), Some("tok-a"));
        assert_eq!(lanes[1].token, None);
        assert_eq!(lanes[1].name, "anon");
        for bad in ["tok:anon", "tok:fleet", "tok-a", ":team-a", ""] {
            assert!(parse_tenants(bad).is_err(), "`{bad}` must be refused");
        }
    }
}
