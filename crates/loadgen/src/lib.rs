//! Load generation for `roofd` fleets: seeded zipf request mixes,
//! concurrent client sessions, and the `BENCH_roofd.json` report.
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
//! The report ([`Report`]) captures what the roadmap's fleet bench
//! gates: p50/p99 client-observed latency, per-node hit rates, the
//! share of requests answered by peer fetches, and per-tenant fairness
//! (max/min served ratio across tenants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use roofline_service::client::{run_with_retries, Client, ClientError, RetryPolicy, RunOpts};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
    /// Client-observed end-to-end latency of each served request, ms.
    pub latencies_ms: Vec<u64>,
    /// Requests answered with a result.
    pub served: u64,
    /// Requests still quota-rejected after all retry attempts.
    pub quota_rejected: u64,
    /// Requests lost to any other error after all retry attempts.
    pub errors: u64,
    /// The tenant lane this session ran as.
    pub tenant: String,
}

/// One node's counter snapshot after the run, read via `stats`.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Stable node label (`node0`, `node1`, …) — ports are ephemeral.
    pub node: String,
    /// Requests answered with a result.
    pub completed: u64,
    /// Memory + disk cache hits.
    pub hits: u64,
    /// Local computations.
    pub misses: u64,
    /// Duplicate requests coalesced onto an in-flight computation.
    pub coalesced: u64,
    /// Requests answered by fetching from the owning peer.
    pub peer_hits: u64,
    /// Peer fetches that fell back to local compute.
    pub peer_misses: u64,
    /// Fresh computes this node pushed to its replica successor.
    pub replica_pushes: u64,
    /// Replicas this node installed on behalf of an owner.
    pub replica_installs: u64,
    /// Peer fetches answered by a replica after the owner went dark.
    pub replica_hits: u64,
    /// Quota rejections.
    pub quota_rejections: u64,
}

impl NodeStats {
    /// Answered-without-local-compute share: hits, coalesced joins, and
    /// peer fetches over everything completed.
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced + self.peer_hits) as f64 / self.completed as f64
    }
}

/// The per-fleet summary the bench report carries.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Nodes in this fleet.
    pub nodes: usize,
    /// Client sessions driven.
    pub clients: usize,
    /// Requests issued (clients × requests-per-client).
    pub requests: usize,
    /// Requests answered with a result.
    pub served: u64,
    /// Requests lost to quota rejection after retries.
    pub quota_rejected: u64,
    /// Requests lost to other errors after retries.
    pub errors: u64,
    /// Median client-observed latency, ms.
    pub p50_ms: u64,
    /// 99th-percentile client-observed latency, ms.
    pub p99_ms: u64,
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
    /// Per-node counters.
    pub per_node: Vec<NodeStats>,
    /// Served count per tenant lane, in lane order.
    pub tenants: Vec<(String, u64, u64)>,
}

/// Percentile over `sorted` (ascending), nearest-rank.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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
pub fn starved_tenants(tenants: &[(String, u64, u64)]) -> Vec<String> {
    if tenants.iter().all(|(_, served, _)| *served == 0) {
        return Vec::new();
    }
    tenants
        .iter()
        .filter(|(_, served, _)| *served == 0)
        .map(|(name, _, _)| name.clone())
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
                let start = Instant::now();
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
                    Ok(_) => {
                        out.served += 1;
                        out.latencies_ms
                            .push(start.elapsed().as_millis() as u64);
                    }
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

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    latencies.sort_unstable();

    let mut tenants: Vec<(String, u64, u64)> = cfg
        .tenants
        .iter()
        .map(|t| (t.name.clone(), 0, 0))
        .collect();
    for out in &outcomes {
        if let Some(t) = tenants.iter_mut().find(|(name, _, _)| *name == out.tenant) {
            t.1 += out.served;
            t.2 += out.quota_rejected;
        }
    }

    let per_node: Vec<NodeStats> = cfg
        .addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| read_node_stats(addr, &format!("node{i}")))
        .collect();
    let completed: u64 = per_node.iter().map(|n| n.completed).sum();
    let peer_hits: u64 = per_node.iter().map(|n| n.peer_hits).sum();

    FleetReport {
        nodes: cfg.addrs.len(),
        clients: cfg.clients,
        requests: cfg.clients * cfg.requests_per_client,
        served: outcomes.iter().map(|o| o.served).sum(),
        quota_rejected: outcomes.iter().map(|o| o.quota_rejected).sum(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
        p50_ms: pct(&latencies, 50.0),
        p99_ms: pct(&latencies, 99.0),
        peer_hit_share: if completed == 0 {
            0.0
        } else {
            peer_hits as f64 / completed as f64
        },
        fairness_ratio: fairness_ratio(
            &tenants.iter().map(|(_, served, _)| *served).collect::<Vec<_>>(),
        ),
        starved: starved_tenants(&tenants),
        per_node,
        tenants,
    }
}

/// Reads one node's counters; a vanished node reports zeros rather than
/// sinking the whole report.
fn read_node_stats(addr: &str, label: &str) -> NodeStats {
    let mut stats = NodeStats {
        node: label.to_string(),
        ..NodeStats::default()
    };
    let Ok(mut client) = Client::connect_with(addr, Some(TIMEOUT)) else {
        return stats;
    };
    let Ok(reply) = client.stats_raw() else {
        return stats;
    };
    let get = |name: &str| {
        reply
            .get(name)
            .and_then(roofline_core::json::Json::as_u64)
            .unwrap_or(0)
    };
    stats.completed = get("completed");
    stats.hits = get("hits");
    stats.misses = get("misses");
    stats.coalesced = get("coalesced");
    stats.peer_hits = get("peer_hits");
    stats.peer_misses = get("peer_misses");
    stats.replica_pushes = get("replica_pushes");
    stats.replica_installs = get("replica_installs");
    stats.replica_hits = get("replica_hits");
    stats.quota_rejections = get("quota_rejections");
    stats
}

/// The whole bench document: one [`FleetReport`] per fleet size.
#[derive(Debug, Clone)]
pub struct Report {
    /// The master seed the workloads ran with.
    pub seed: u64,
    /// The zipf exponent.
    pub zipf_s: f64,
    /// One entry per fleet size measured.
    pub fleets: Vec<FleetReport>,
}

impl Report {
    /// Renders the committed `BENCH_roofd.json` document: stable field
    /// order, two-decimal rates, node labels instead of ephemeral
    /// ports — diff-friendly across regenerations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str("  \"name\": \"BENCH_roofd\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"zipf_s\": {:.2},\n", self.zipf_s));
        out.push_str("  \"fleets\": [\n");
        for (i, f) in self.fleets.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"nodes\": {},\n", f.nodes));
            out.push_str(&format!("      \"clients\": {},\n", f.clients));
            out.push_str(&format!("      \"requests\": {},\n", f.requests));
            out.push_str(&format!("      \"served\": {},\n", f.served));
            out.push_str(&format!("      \"quota_rejected\": {},\n", f.quota_rejected));
            out.push_str(&format!("      \"errors\": {},\n", f.errors));
            out.push_str(&format!("      \"p50_ms\": {},\n", f.p50_ms));
            out.push_str(&format!("      \"p99_ms\": {},\n", f.p99_ms));
            out.push_str(&format!(
                "      \"peer_hit_share\": {:.3},\n",
                f.peer_hit_share
            ));
            // The ratio is finite by construction; starvation is the
            // explicit `starved` list, not a sentinel ratio value.
            out.push_str(&format!(
                "      \"fairness_ratio\": {:.2},\n",
                f.fairness_ratio
            ));
            let starved: Vec<String> =
                f.starved.iter().map(|t| format!("\"{t}\"")).collect();
            out.push_str(&format!("      \"starved\": [{}],\n", starved.join(", ")));
            out.push_str("      \"per_node\": [\n");
            for (j, n) in f.per_node.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"node\": \"{}\", \"completed\": {}, \"hits\": {}, \
                     \"misses\": {}, \"coalesced\": {}, \"peer_hits\": {}, \
                     \"peer_misses\": {}, \"replica_pushes\": {}, \
                     \"replica_installs\": {}, \"replica_hits\": {}, \
                     \"hit_rate\": {:.3}}}{}\n",
                    n.node,
                    n.completed,
                    n.hits,
                    n.misses,
                    n.coalesced,
                    n.peer_hits,
                    n.peer_misses,
                    n.replica_pushes,
                    n.replica_installs,
                    n.replica_hits,
                    n.hit_rate(),
                    if j + 1 < f.per_node.len() { "," } else { "" },
                ));
            }
            out.push_str("      ],\n");
            out.push_str("      \"tenants\": [\n");
            for (j, (name, served, quota)) in f.tenants.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"tenant\": \"{name}\", \"served\": {served}, \
                     \"quota_rejected\": {quota}}}{}\n",
                    if j + 1 < f.tenants.len() { "," } else { "" },
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.fleets.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
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
        let lanes = |counts: &[u64]| -> Vec<(String, u64, u64)> {
            counts
                .iter()
                .enumerate()
                .map(|(i, &served)| (format!("team-{i}"), served, 0))
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

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&sorted, 50.0), 50);
        assert_eq!(pct(&sorted, 99.0), 99);
        assert_eq!(pct(&[], 50.0), 0);
    }

    #[test]
    fn report_renders_parseable_stable_json() {
        let report = Report {
            seed: 42,
            zipf_s: 1.1,
            fleets: vec![FleetReport {
                nodes: 1,
                clients: 2,
                requests: 10,
                served: 9,
                quota_rejected: 1,
                errors: 0,
                p50_ms: 3,
                p99_ms: 40,
                peer_hit_share: 0.0,
                fairness_ratio: 1.25,
                starved: vec![],
                per_node: vec![NodeStats {
                    node: "node0".to_string(),
                    completed: 9,
                    hits: 6,
                    misses: 3,
                    coalesced: 0,
                    peer_hits: 0,
                    peer_misses: 0,
                    replica_pushes: 0,
                    replica_installs: 0,
                    replica_hits: 0,
                    quota_rejections: 1,
                }],
                tenants: vec![
                    ("team-a".to_string(), 5, 0),
                    ("team-b".to_string(), 4, 1),
                ],
            }],
        };
        let text = report.render();
        let doc = roofline_core::json::Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("name").and_then(|v| v.as_str()),
            Some("BENCH_roofd")
        );
        let fleets = doc.get("fleets").and_then(|v| v.as_arr()).expect("fleets");
        assert_eq!(fleets.len(), 1);
        assert_eq!(fleets[0].get("nodes").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            fleets[0]
                .get("per_node")
                .and_then(|v| v.as_arr())
                .and_then(|nodes| nodes[0].get("node"))
                .and_then(|v| v.as_str()),
            Some("node0"),
            "node labels must be stable, not ports"
        );
        // Same input, same bytes — the committed file is diff-friendly.
        assert_eq!(text, report.render());
    }

    #[test]
    fn starved_lanes_render_explicitly_and_the_ratio_stays_finite() {
        let report = Report {
            seed: 1,
            zipf_s: 1.0,
            fleets: vec![FleetReport {
                nodes: 1,
                clients: 1,
                requests: 2,
                served: 1,
                quota_rejected: 1,
                errors: 0,
                p50_ms: 1,
                p99_ms: 1,
                peer_hit_share: 0.0,
                fairness_ratio: fairness_ratio(&[1, 0]),
                starved: starved_tenants(&[
                    ("team-a".to_string(), 1, 0),
                    ("team-b".to_string(), 0, 1),
                ]),
                per_node: vec![],
                tenants: vec![
                    ("team-a".to_string(), 1, 0),
                    ("team-b".to_string(), 0, 1),
                ],
            }],
        };
        let doc = roofline_core::json::Json::parse(&report.render()).expect("valid JSON");
        let fleets = doc.get("fleets").and_then(|v| v.as_arr()).expect("fleets");
        // No 999.0 sentinel: the ratio is an honest finite number and
        // the starved lane is named where a gate (and a human) sees it.
        assert_eq!(
            fleets[0].get("fairness_ratio").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        let starved = fleets[0]
            .get("starved")
            .and_then(|v| v.as_arr())
            .expect("starved array");
        assert_eq!(starved.len(), 1);
        assert_eq!(starved[0].as_str(), Some("team-b"));
    }
}
