//! `roofctl` — command-line client for the `roofd` service.
//!
//! ```text
//! roofctl [--addr HOST:PORT] [--token TOKEN] [--retries N]
//!         [--retry-base-ms N] [--retry-seed N] [--timeout-ms N] <command>
//!
//! commands:
//!   run -e <E1..E19> [-p SPEC] [-f quick|full] [--out DIR]   request one analysis
//!   list [-f quick|full]        print the experiment registry (no server needed)
//!   stats                       print the server's counters
//!   purge                       drop the server's memory and disk caches
//!   ping                        health check
//!   join <HOST:PORT>            add a node to the fleet member list
//!   leave <HOST:PORT>           remove a node from the fleet member list
//!   drain                       stop new computes ahead of a leave
//!   shutdown                    ask the server to stop gracefully
//! ```
//!
//! `run` prints one summary line, e.g.
//! `E1 status=pass cache=miss source=computed elapsed_ms=12 budget_ms=15000`,
//! and with `--out` writes the returned artifact tree to a directory —
//! byte-identical to what `repro -e <id>` produces after snapshot
//! normalization. Requests are validated client-side against the same
//! experiment registry the server uses, so a typo fails before it
//! touches the wire.
//!
//! `--retries N` retries `run` up to N extra times on transient
//! failures (`busy` backpressure, `timeout` deadlines, `quota`
//! rejections, connection resets) with seeded jittered exponential
//! backoff — deterministic for a given `--retry-seed`, so scripted
//! sweeps stay reproducible. `--timeout-ms` bounds each attempt's
//! connect/read/write.
//!
//! `--token TOKEN` authenticates the connection against the server's
//! token file; the request is then accounted to that tenant's
//! fair-share quota instead of the anonymous allowance. `stats` prints
//! the per-tenant block as `tenant.<name>.<counter>=<value>` lines.
//!
//! `join`, `leave`, and `drain` are the fleet-admin commands; they need
//! `--fleet-secret` (or `ROOFD_FLEET_SECRET`), the same shared secret
//! the nodes were started with. `join`/`leave` edit the contacted
//! node's member list — its probes gossip the new list to the rest of
//! the fleet — and `drain` makes the node refuse fresh computes (cache
//! hits still serve) so it can be `leave`d and shut down without
//! failing in-flight work.

use experiments::platforms::{platform_names, try_config_by_name, Fidelity};
use experiments::registry::{registry_table, Experiment};
use roofline_service::cli::{int, positive, value};
use roofline_service::client::{run_with_retries, Client, RetryPolicy, RunOpts};
use roofline_service::DEFAULT_ADDR;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

enum Command {
    Run {
        experiment: Experiment,
        platform: String,
        fidelity: Fidelity,
        out_dir: Option<PathBuf>,
    },
    List {
        fidelity: Fidelity,
    },
    Stats,
    Purge,
    Ping,
    Join { peer: String },
    Leave { peer: String },
    Drain,
    Shutdown,
}

struct Args {
    addr: String,
    command: Command,
    token: Option<String>,
    fleet_secret: Option<String>,
    retries: u32,
    retry_base_ms: u64,
    retry_seed: u64,
    timeout: Option<Duration>,
}

fn parse_fidelity(v: &str) -> Result<Fidelity, String> {
    match v {
        "quick" => Ok(Fidelity::Quick),
        "full" => Ok(Fidelity::Full),
        other => Err(format!("unknown fidelity `{other}` (expected quick or full)")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut command = None;
    let mut experiment = None;
    let mut platform = "snb".to_string();
    let mut fidelity = Fidelity::Quick;
    let mut out_dir = None;

    let mut token = None;
    let mut fleet_secret = std::env::var("ROOFD_FLEET_SECRET").ok();
    let mut peer_arg: Option<String> = None;
    let mut retries = 0u32;
    let mut retry_base_ms = 100u64;
    let mut retry_seed = 0x5eedu64;
    let mut timeout = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let it = &mut it;
        let flag = arg.as_str();
        match flag {
            "--addr" | "-a" => addr = value(it, "--addr")?,
            "--token" | "-t" => token = Some(value(it, "--token")?),
            "run" | "list" | "stats" | "purge" | "ping" | "join" | "leave" | "drain"
            | "shutdown"
                if command.is_none() =>
            {
                command = Some(arg);
            }
            "--fleet-secret" => {
                let v = value(it, flag)?;
                if v.is_empty() {
                    return Err("--fleet-secret must not be empty".to_string());
                }
                fleet_secret = Some(v);
            }
            "--experiment" | "-e" => {
                let v = value(it, "--experiment")?;
                experiment = Some(v.parse().map_err(|e| format!("{e}"))?);
            }
            "--platform" | "-p" => platform = value(it, "--platform")?,
            "--fidelity" | "-f" => fidelity = parse_fidelity(&value(it, "--fidelity")?)?,
            "--out" | "-o" => out_dir = Some(PathBuf::from(value(it, "--out")?)),
            "--retries" => retries = int(it, flag)?,
            "--retry-base-ms" => retry_base_ms = positive(it, flag)?,
            "--retry-seed" => retry_seed = int(it, flag)?,
            "--timeout-ms" => {
                timeout = Some(Duration::from_millis(positive(it, flag)?))
            }
            "--help" | "-h" => {
                println!(
                    "usage: roofctl [--addr HOST:PORT] [--token TOKEN] [--retries N]\n\
                     \x20              [--retry-base-ms N] [--retry-seed N] [--timeout-ms N]\n\
                     \x20              <run|list|stats|purge|ping|join|leave|drain|shutdown>\n\
                     \x20 run -e E1..E19 [-p SPEC] [-f quick|full] [--out DIR]\n\
                     \x20 list [-f quick|full]\n\
                     \x20 join HOST:PORT / leave HOST:PORT / drain  (need --fleet-secret or\n\
                     \x20   ROOFD_FLEET_SECRET, the secret the fleet's nodes were started with)\n\
                     default address: {DEFAULT_ADDR}\n\
                     --token TOKEN authenticates as that token's tenant (fair-share quotas)\n\
                     --retries N retries run on busy/timeout/quota/disconnect with seeded\n\
                     \x20           jittered exponential backoff (default 0: fail fast)"
                );
                std::process::exit(0);
            }
            other
                if peer_arg.is_none()
                    && !other.starts_with('-')
                    && matches!(command.as_deref(), Some("join" | "leave")) =>
            {
                peer_arg = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let command = match command.as_deref() {
        Some("run") => {
            let experiment = experiment.ok_or("run needs --experiment <E1..E19>")?;
            // Validate the platform spec locally (same resolver the server
            // uses) so a typo fails here, with the valid list, instead of
            // after a round trip.
            try_config_by_name(&platform).map_err(|e| {
                format!("{e}\nvalid platforms: {}, test", platform_names().join(", "))
            })?;
            Command::Run {
                experiment,
                platform,
                fidelity,
                out_dir,
            }
        }
        Some("list") => Command::List { fidelity },
        Some("stats") => Command::Stats,
        Some("purge") => Command::Purge,
        Some("ping") => Command::Ping,
        Some("join") => Command::Join {
            peer: peer_arg.ok_or("join needs a peer address, e.g. `roofctl join 10.0.0.4:47130`")?,
        },
        Some("leave") => Command::Leave {
            peer: peer_arg
                .ok_or("leave needs a peer address, e.g. `roofctl leave 10.0.0.4:47130`")?,
        },
        Some("drain") => Command::Drain,
        Some("shutdown") => Command::Shutdown,
        _ => {
            return Err(
                "missing command (run, list, stats, purge, ping, join, leave, drain, or shutdown)"
                    .to_string(),
            )
        }
    };
    Ok(Args {
        addr,
        command,
        token,
        fleet_secret,
        retries,
        retry_base_ms,
        retry_seed,
        timeout,
    })
}

fn run(args: Args) -> Result<ExitCode, String> {
    // `list` is offline: the client binary embeds the same registry the
    // server consults, budgets included.
    if let Command::List { fidelity } = args.command {
        print!("{}", registry_table(fidelity));
        return Ok(ExitCode::SUCCESS);
    }

    let connect = |addr: &str| -> Result<Client, String> {
        let mut client = Client::connect_with(addr, args.timeout)
            .map_err(|e| format!("could not connect to roofd at {addr}: {e}"))?;
        if let Some(token) = &args.token {
            let (tenant, _weight) = client.auth(token).map_err(|e| e.to_string())?;
            eprintln!("authenticated as tenant {tenant}");
        }
        Ok(client)
    };
    let secret = |what: &str| {
        args.fleet_secret.as_deref().ok_or(format!(
            "{what} needs --fleet-secret (or ROOFD_FLEET_SECRET): the secret the \
             fleet's nodes were started with"
        ))
    };
    match args.command {
        Command::List { .. } => unreachable!("handled offline above"),
        Command::Ping => {
            connect(&args.addr)?.ping().map_err(|e| e.to_string())?;
            println!("pong from {}", args.addr);
            Ok(ExitCode::SUCCESS)
        }
        Command::Stats => {
            let reply = connect(&args.addr)?.stats_raw().map_err(|e| e.to_string())?;
            for (name, v) in &reply.fields {
                if let Some(v) = v.as_u64() {
                    println!("{name}={v}");
                }
            }
            if let Some(tenants) = reply.get("tenants").and_then(|t| t.as_obj()) {
                for (tenant, counters) in tenants {
                    if let Some(counters) = counters.as_obj() {
                        for (name, v) in counters {
                            if let Some(v) = v.as_u64() {
                                println!("tenant.{tenant}.{name}={v}");
                            }
                        }
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Purge => {
            let (mem, disk) = connect(&args.addr)?.purge().map_err(|e| e.to_string())?;
            println!("purged {mem} memory entries, {disk} disk entries");
            Ok(ExitCode::SUCCESS)
        }
        Command::Join { ref peer } | Command::Leave { ref peer } => {
            let secret = secret("join/leave")?;
            let mut client = connect(&args.addr)?;
            let (verb, reply) = if matches!(args.command, Command::Join { .. }) {
                ("joined", client.join(secret, peer).map_err(|e| e.to_string())?)
            } else {
                ("left", client.leave(secret, peer).map_err(|e| e.to_string())?)
            };
            println!(
                "{peer} {verb}{} epoch={} version={} members={}",
                if reply.changed { "" } else { " (no change)" },
                reply.epoch,
                reply.version,
                reply.peers.join(",")
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::Drain => {
            connect(&args.addr)?
                .drain(secret("drain")?)
                .map_err(|e| e.to_string())?;
            println!(
                "roofd at {} is draining: cache hits still serve, new computes are refused",
                args.addr
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::Shutdown => {
            connect(&args.addr)?.shutdown().map_err(|e| e.to_string())?;
            println!("roofd at {} is shutting down", args.addr);
            Ok(ExitCode::SUCCESS)
        }
        Command::Run {
            experiment,
            platform,
            fidelity,
            out_dir,
        } => {
            let policy = RetryPolicy {
                attempts: args.retries.saturating_add(1),
                base_ms: args.retry_base_ms,
                cap_ms: 5_000,
                seed: args.retry_seed,
            };
            let opts = RunOpts {
                token: args.token.clone(),
                ..RunOpts::new(experiment, &platform, fidelity)
            };
            let reply = run_with_retries(args.addr.as_str(), &opts, &policy, args.timeout, None)
                .map_err(|e| e.to_string())?;
            let mut summary = format!(
                "{} status={} cache={} source={} elapsed_ms={} budget_ms={}",
                experiment.id(),
                reply.status,
                if reply.cache_hit { "hit" } else { "miss" },
                reply.source,
                reply.elapsed_ms,
                reply.budget_ms,
            );
            if let Some(ms) = reply.compute_ms {
                summary.push_str(&format!(" compute_ms={ms}"));
            }
            if reply.over_budget {
                summary.push_str(" over_budget=true");
            }
            println!("{summary}");
            for verdict in &reply.integrity {
                println!("integrity: {verdict}");
            }
            if let Some(detail) = &reply.detail {
                if reply.status == "failed" {
                    eprintln!("detail: {detail}");
                }
            }
            if let Some(dir) = out_dir {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
                for (name, contents) in &reply.artifacts {
                    std::fs::write(dir.join(name), contents)
                        .map_err(|e| format!("could not write {name}: {e}"))?;
                }
                eprintln!(
                    "wrote {} artifact file(s) to {}",
                    reply.artifacts.len(),
                    dir.display()
                );
            }
            Ok(if reply.status == "failed" {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
