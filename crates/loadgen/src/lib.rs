//! Load generation for `roofd` fleets: seeded zipf request mixes and
//! concurrent client sessions, summarized in one [`FleetReport`].
//!
//! The generator drives hundreds of concurrent roofctl-protocol
//! sessions against one or more roofd nodes. The request mix is a
//! **zipf distribution over the experiment registry** (rank 1 is the
//! hottest experiment, `P(rank k) ∝ 1/kˢ`), which is what real serving
//! traffic looks like: a handful of hot tuples served from cache and a
//! long tail forcing computes and — in a fleet — cache-peer fetches.
//! Every random choice flows from one seed through a [`Rng`] stream per
//! client, so two runs with the same seed issue byte-identical request
//! sequences.
//!
//! The report ([`FleetReport`]) carries what CI's fleet drills assert
//! on: requests served and lost, the share of requests answered by peer
//! fetches, and per-tenant fairness (max/min served ratio across
//! tenants). Latency is measured by roofbench, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use roofline_service::client::{run_with_retries, Client, ClientError, RetryPolicy, RunOpts};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A seeded xorshift64* stream — the same generator the service's
/// retry jitter and fault lottery use, so the whole repo shares one
/// reproducibility idiom.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream for `seed` (zero is remapped; the stream must move).
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed | 1,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A decorrelated child stream — one per client thread, so adding a
    /// client never perturbs the others' request sequences.
    pub fn fork(&self, lane: u64) -> Rng {
        Rng::new(
            self.state ^ lane
                .wrapping_add(1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
    }
}

/// A zipf sampler over ranks `0..n`: `P(rank k) ∝ 1/(k+1)ˢ`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (`s = 0` is uniform;
    /// larger `s` concentrates mass on the low ranks).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One tenant lane of the workload: the token it authenticates with
/// (`None` runs anonymous) and the name stats are expected under.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Bearer token for the `auth` command.
    pub token: Option<String>,
    /// Tenant name (for the report; must match the server's token file).
    pub name: String,
}

/// Per-attempt I/O bound of every request and `stats` read.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Attempts per request; transient failures back off with the client's
/// seeded jitter.
const ATTEMPTS: u32 = 3;

/// Everything one workload run needs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// The fleet's node addresses; client sessions round-robin over
    /// them.
    pub addrs: Vec<String>,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Requests each session issues.
    pub requests_per_client: usize,
    /// Master seed; every per-client stream forks from it.
    pub seed: u64,
    /// Zipf exponent of the experiment popularity distribution.
    pub zipf_s: f64,
    /// Tenant lanes; sessions round-robin over them.
    pub tenants: Vec<TenantSpec>,
}

impl WorkloadConfig {
    /// A workload against `addrs` with bench defaults: 16 clients ×
    /// 50 requests, zipf 1.1, one anonymous tenant lane.
    pub fn new(addrs: Vec<String>, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            addrs,
            clients: 16,
            requests_per_client: 50,
            seed,
            zipf_s: 1.1,
            tenants: vec![TenantSpec {
                token: None,
                name: "anon".to_string(),
            }],
        }
    }
}

/// What one client session observed.
#[derive(Debug, Clone, Default)]
pub struct ClientOutcome {
    /// Requests answered with a result.
    pub served: u64,
    /// Requests still quota-rejected after all retry attempts.
    pub quota_rejected: u64,
    /// Requests lost to any other error after all retry attempts.
    pub errors: u64,
    /// The tenant lane this session ran as.
    pub tenant: String,
}

/// The summary of one workload run against a fleet.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Nodes in this fleet.
    pub nodes: usize,
    /// Requests issued (clients × requests-per-client).
    pub requests: usize,
    /// Requests answered with a result.
    pub served: u64,
    /// Requests lost to quota rejection after retries.
    pub quota_rejected: u64,
    /// Requests lost to other errors after retries.
    pub errors: u64,
    /// Requests the nodes answered by fetching from the owning peer,
    /// summed over the fleet.
    pub peer_hits: u64,
    /// Share of completions answered by peer fetches, fleet-wide.
    pub peer_hit_share: f64,
    /// max/min served ratio across the tenant lanes that were served at
    /// all (1.0 is perfectly fair; the CI gate bounds it). Always
    /// finite: lanes served nothing are listed in `starved` instead of
    /// collapsing the ratio to infinity.
    pub fairness_ratio: f64,
    /// Tenant lanes served **zero** requests while a sibling lane was
    /// served — the explicit starvation signal `--assert-fairness`
    /// fails loudly on.
    pub starved: Vec<String>,
}

/// max/min of per-tenant served counts, over the lanes that were served
/// at all. A lane with zero served is **starved** — it is reported by
/// [`starved_tenants`] instead of collapsing the ratio to infinity, so
/// the ratio is always finite and starvation is an explicit field
/// rather than a `999.0` sentinel buried in a float.
pub fn fairness_ratio(served: &[u64]) -> f64 {
    let nonzero: Vec<u64> = served.iter().copied().filter(|&s| s > 0).collect();
    match (nonzero.iter().max(), nonzero.iter().min()) {
        (Some(&max), Some(&min)) if nonzero.len() >= 2 => max as f64 / min as f64,
        _ => 1.0,
    }
}

/// Tenant lanes served nothing while at least one sibling lane was
/// served. All-zero across the board is not starvation (nothing ran —
/// the error counters carry that story), so it reports empty.
pub fn starved_tenants(tenants: &[(String, u64)]) -> Vec<String> {
    if tenants.iter().all(|(_, served)| *served == 0) {
        return Vec::new();
    }
    tenants
        .iter()
        .filter(|(_, served)| *served == 0)
        .map(|(name, _)| name.clone())
        .collect()
}

/// Runs the workload: spawns `clients` sessions, each issuing its zipf
/// request sequence with retries, and aggregates the outcomes plus each
/// node's post-run counters into a [`FleetReport`].
pub fn run_workload(cfg: &WorkloadConfig) -> FleetReport {
    assert!(!cfg.addrs.is_empty(), "workload needs at least one node");
    assert!(!cfg.tenants.is_empty(), "workload needs at least one tenant lane");
    let zipf = Zipf::new(Experiment::ALL.len(), cfg.zipf_s);
    let master = Rng::new(cfg.seed);
    let cfg = Arc::new(cfg.clone());
    let mut handles = Vec::new();
    for c in 0..cfg.clients {
        let cfg = Arc::clone(&cfg);
        let zipf = zipf.clone();
        let mut rng = master.fork(c as u64);
        handles.push(thread::spawn(move || {
            let mut addr_idx = c % cfg.addrs.len();
            let tenant = cfg.tenants[c % cfg.tenants.len()].clone();
            let policy = RetryPolicy {
                attempts: ATTEMPTS,
                base_ms: 20,
                cap_ms: 500,
                seed: cfg.seed ^ (c as u64),
            };
            let mut out = ClientOutcome {
                tenant: tenant.name.clone(),
                ..ClientOutcome::default()
            };
            for _ in 0..cfg.requests_per_client {
                let experiment = Experiment::ALL[zipf.sample(&mut rng)];
                let opts = RunOpts {
                    token: tenant.token.clone(),
                    ..RunOpts::new(experiment, "snb", Fidelity::Quick)
                };
                let mut result = run_with_retries(
                    cfg.addrs[addr_idx].as_str(),
                    &opts,
                    &policy,
                    Some(TIMEOUT),
                    None,
                );
                // A dead pinned node must cost latency, not correctness:
                // on a socket-level failure rotate through the other
                // nodes and stick with the first one that answers, so a
                // churned fleet serves every request some survivor can.
                let mut rotations = 1;
                while matches!(result, Err(ClientError::Io(_))) && rotations < cfg.addrs.len() {
                    addr_idx = (addr_idx + 1) % cfg.addrs.len();
                    result = run_with_retries(
                        cfg.addrs[addr_idx].as_str(),
                        &opts,
                        &policy,
                        Some(TIMEOUT),
                        None,
                    );
                    rotations += 1;
                }
                match result {
                    Ok(_) => out.served += 1,
                    Err(ClientError::Server { code, .. }) if code == "quota" => {
                        out.quota_rejected += 1;
                    }
                    Err(_) => out.errors += 1,
                }
            }
            out
        }));
    }
    let outcomes: Vec<ClientOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    let mut tenants: Vec<(String, u64)> = cfg
        .tenants
        .iter()
        .map(|t| (t.name.clone(), 0))
        .collect();
    for out in &outcomes {
        if let Some(t) = tenants.iter_mut().find(|(name, _)| *name == out.tenant) {
            t.1 += out.served;
        }
    }

    let (mut completed, mut peer_hits) = (0, 0);
    for addr in &cfg.addrs {
        let (c, p) = read_node_counters(addr);
        completed += c;
        peer_hits += p;
    }

    FleetReport {
        nodes: cfg.addrs.len(),
        requests: cfg.clients * cfg.requests_per_client,
        served: outcomes.iter().map(|o| o.served).sum(),
        quota_rejected: outcomes.iter().map(|o| o.quota_rejected).sum(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
        peer_hits,
        peer_hit_share: if completed == 0 {
            0.0
        } else {
            peer_hits as f64 / completed as f64
        },
        fairness_ratio: fairness_ratio(
            &tenants.iter().map(|(_, served)| *served).collect::<Vec<_>>(),
        ),
        starved: starved_tenants(&tenants),
    }
}

/// Reads one node's `completed` and `peer_hits` counters; a vanished
/// node reports zeros rather than sinking the whole report.
fn read_node_counters(addr: &str) -> (u64, u64) {
    let Ok(mut client) = Client::connect_with(addr, Some(TIMEOUT)) else {
        return (0, 0);
    };
    let Ok(reply) = client.stats_raw() else {
        return (0, 0);
    };
    let get = |name: &str| {
        reply
            .get(name)
            .and_then(roofline_core::json::Json::as_u64)
            .unwrap_or(0)
    };
    (get("completed"), get("peer_hits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_forks_decorrelate() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let master = Rng::new(42);
        let mut f0 = master.fork(0);
        let mut f1 = master.fork(1);
        assert_ne!(
            (0..8).map(|_| f0.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| f1.next_u64()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn uniform_draws_land_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let zipf = Zipf::new(19, 1.1);
        let mut rng = Rng::new(1234);
        let mut counts = [0usize; 19];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[9] && counts[0] > counts[18],
            "rank 0 must dominate: {counts:?}"
        );
        assert!(counts[0] > 2_000, "zipf 1.1 rank-0 share too low: {counts:?}");
        // Every rank is reachable — E19 included in the mix.
        assert!(
            counts[18] > 0,
            "the tail rank must appear in 10k draws: {counts:?}"
        );
    }

    #[test]
    fn zipf_samples_are_seed_deterministic() {
        let zipf = Zipf::new(19, 1.1);
        let seq = |seed: u64| -> Vec<usize> {
            let mut rng = Rng::new(seed);
            (0..32).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(seq(99), seq(99));
        assert_ne!(seq(99), seq(100));
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = Rng::new(5);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_600..2_400).contains(&c), "uniform-ish expected: {counts:?}");
        }
    }

    #[test]
    fn fairness_ratio_handles_edges() {
        assert_eq!(fairness_ratio(&[100, 50]), 2.0);
        assert_eq!(fairness_ratio(&[70]), 1.0);
        assert_eq!(fairness_ratio(&[0, 0]), 1.0);
        // A starved lane no longer poisons the ratio: it is excluded
        // here and reported through `starved_tenants` instead.
        assert_eq!(fairness_ratio(&[10, 0]), 1.0);
        assert_eq!(fairness_ratio(&[30, 10, 0]), 3.0);
    }

    #[test]
    fn starvation_is_an_explicit_list_not_a_ratio() {
        let lanes = |counts: &[u64]| -> Vec<(String, u64)> {
            counts
                .iter()
                .enumerate()
                .map(|(i, &served)| (format!("team-{i}"), served))
                .collect()
        };
        // Served lanes only: nobody starved.
        assert!(starved_tenants(&lanes(&[5, 3])).is_empty());
        // One lane served nothing while a sibling was served: named.
        assert_eq!(starved_tenants(&lanes(&[5, 0])), vec!["team-1"]);
        assert_eq!(
            starved_tenants(&lanes(&[0, 4, 0])),
            vec!["team-0", "team-2"]
        );
        // Nothing served at all is an error story, not starvation.
        assert!(starved_tenants(&lanes(&[0, 0])).is_empty());
    }


}
