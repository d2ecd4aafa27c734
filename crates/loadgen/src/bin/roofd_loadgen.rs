//! `roofd_loadgen` — drives a seeded zipf workload against a running
//! roofd fleet and checks what it served.
//!
//! ```text
//! roofd_loadgen --addrs HOST:PORT,... [--clients N] [--requests N]
//!               [--seed N] [--zipf-s F] [--tenants tok:name,... | anon]
//!               [--assert-peer-hits] [--assert-fairness F]
//! ```
//!
//! The fleet is started outside the generator (one `roofd` process per
//! node); `--addrs` lists its nodes. Tenant tokens must match the
//! servers' token file. To churn the fleet, kill and restart a `roofd`
//! process while a burst runs: clients fail over to the surviving nodes
//! on connection errors.
//!
//! The run ends with a one-line summary on standard error: requests
//! served, quota-rejected and lost, the peer-hit share and the tenant
//! fairness ratio. Latency is measured by roofbench's `fleet_cold` and
//! `roofd_warm` workloads, not here.
//!
//! `--assert-peer-hits` fails (exit 1) if the fleet has one node or no
//! node answered any request via a cache-peer fetch;
//! `--assert-fairness F` fails if the max/min served ratio across tenant
//! lanes exceeds `F` **or** any tenant lane was starved outright. Any
//! request lost to a non-quota error also fails the run. CI's
//! service-fleet job runs with both assertions.

use roofline_loadgen::{run_workload, TenantSpec, WorkloadConfig};
use roofline_service::auth::{ANON_TENANT, FLEET_TENANT};
use std::process::ExitCode;

struct Args {
    addrs: Vec<String>,
    clients: usize,
    requests: usize,
    seed: u64,
    zipf_s: f64,
    tenants: Vec<TenantSpec>,
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

/// Parses the command line (without the program name).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addrs: Vec::new(),
        clients: 12,
        requests: 40,
        seed: 42,
        zipf_s: 1.1,
        tenants: parse_tenants("tok-a:team-a,tok-b:team-b").expect("default tenants"),
        assert_peer_hits: false,
        assert_fairness: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--addrs" => {
                args.addrs = value("--addrs")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
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
                    "usage: roofd_loadgen --addrs HOST:PORT,... [--clients N] [--requests N]\n\
                     \x20                    [--seed N] [--zipf-s F]\n\
                     \x20                    [--tenants tok:name,...|anon]\n\
                     \x20                    [--assert-peer-hits] [--assert-fairness F]\n\
                     defaults: --clients 12 --requests 40 --seed 42 --zipf-s 1.1\n\
                     \x20         --tenants tok-a:team-a,tok-b:team-b"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.addrs.is_empty() {
        return Err("--addrs is required: list the running fleet's nodes as HOST:PORT,...".into());
    }
    Ok(args)
}

fn run(args: &Args) -> ExitCode {
    eprintln!(
        "loadgen: driving external fleet of {} node(s): {}",
        args.addrs.len(),
        args.addrs.join(", ")
    );
    let mut cfg = WorkloadConfig::new(args.addrs.clone(), args.seed);
    cfg.clients = args.clients;
    cfg.requests_per_client = args.requests;
    cfg.zipf_s = args.zipf_s;
    cfg.tenants = args.tenants.clone();
    let f = run_workload(&cfg);
    eprintln!(
        "loadgen: {} node(s): served {}/{} (quota {}, errors {}), \
         peer-hit share {:.3}, fairness {:.2}{}",
        f.nodes,
        f.served,
        f.requests,
        f.quota_rejected,
        f.errors,
        f.peer_hit_share,
        f.fairness_ratio,
        if f.starved.is_empty() {
            String::new()
        } else {
            format!(", STARVED: {}", f.starved.join(", "))
        },
    );

    let mut failures = Vec::new();
    if args.assert_peer_hits && (f.nodes < 2 || f.peer_hits == 0) {
        failures.push("no multi-node fleet answered any request via a peer fetch".to_string());
    }
    if let Some(bound) = args.assert_fairness {
        // A starved lane is the loudest unfairness there is — it fails
        // by name, not by an inflated ratio.
        if !f.starved.is_empty() {
            failures.push(format!(
                "{}-node fleet starved tenant lane(s) {}: zero requests served",
                f.nodes,
                f.starved.join(", ")
            ));
        }
        // NaN must fail the bound, so compare in the failing direction
        // rather than negating `<=`.
        if f.fairness_ratio > bound || f.fairness_ratio.is_nan() {
            failures.push(format!(
                "{}-node fleet fairness ratio {:.2} exceeds the {bound:.2} bound",
                f.nodes, f.fairness_ratio
            ));
        }
    }
    if f.errors > 0 {
        failures.push(format!(
            "{}-node fleet lost {} request(s) to non-quota errors",
            f.nodes, f.errors
        ));
    }
    for failure in &failures {
        eprintln!("error: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

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

    #[test]
    fn both_ci_command_lines_parse() {
        const FLEET: &str = "127.0.0.1:47131,127.0.0.1:47132,127.0.0.1:47133";
        let burst = parse(&format!(
            "--addrs {FLEET} --tenants tok-a:team-a,tok-b:team-b --seed 42 \
             --assert-peer-hits --assert-fairness 2.0"
        ))
        .expect("the fleet-gate burst parses");
        assert_eq!(burst.addrs.len(), 3);
        assert_eq!(burst.tenants.len(), 2);
        assert_eq!((burst.clients, burst.requests, burst.seed), (12, 40, 42));
        assert!(burst.assert_peer_hits);
        assert_eq!(burst.assert_fairness, Some(2.0));

        let churn = parse(&format!(
            "--addrs {FLEET} --tenants tok-a:team-a,tok-b:team-b --seed 99 \
             --clients 16 --requests 600"
        ))
        .expect("the churn burst parses");
        assert_eq!((churn.clients, churn.requests, churn.seed), (16, 600, 99));
        assert!(!churn.assert_peer_hits);
        assert_eq!(churn.assert_fairness, None);
    }

    #[test]
    fn addrs_is_required() {
        for line in ["", "--seed 42", "--addrs ,"] {
            let err = parse(line).err().expect("no fleet to drive");
            assert!(err.contains("--addrs is required"), "`{line}`: {err}");
        }
    }

    #[test]
    fn removed_flags_are_unknown_arguments() {
        for flag in [
            "--nodes",
            "--quota-rate",
            "--quota-burst",
            "--fleet-seed",
            "--peer-timeout-ms",
            "--kill-node-at",
            "--restart-node-at",
            "--out",
        ] {
            let err = parse(&format!("--addrs 127.0.0.1:1 {flag} 1"))
                .err()
                .expect("removed flag");
            assert_eq!(err, format!("unknown argument `{flag}`"));
        }
    }
}
