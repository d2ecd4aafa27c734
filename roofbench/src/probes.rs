//! Layer probes every traced run ends with, whatever its workload: the
//! six simulator microbenchmarks of `bench::harness`, the engine's cached
//! hit, and a short wire probe against one warm node.
//!
//! The microbenchmarks follow the paper's protocol: one unmeasured
//! warm-up, then `TRIALS` measured trials summarized by their median and
//! coefficient of variation.

use crate::exec::{execute, Call, Lane};
use crate::nodes::{Nodes, TENANTS};
use crate::requests::Tuple;
use crate::trace::Tracer;
use bench::harness;
use experiments::registry::Experiment;
use perfmon::stats::Summary;
use std::path::Path;
use std::sync::Arc;

/// Measured trials per probe, after one warm-up.
pub const TRIALS: usize = 5;

/// Op count of the heaviest simulator probe (`bench::harness`'s `scale`).
pub const SIM_SCALE: u64 = 200_000;

/// Cached hits per engine-probe trial.
pub const ENGINE_HITS: u64 = 20_000;

/// Requests per client of the wire probe.
pub const WIRE_REQUESTS: usize = 100;

/// The simulator probe ids, in the order they run.
pub const SIM_PROBES: [&str; 6] = [
    "l1_hit_stream",
    "dram_stream",
    "dram_stream_noprefetch",
    "store_stream",
    "frontend_only",
    "fp_ports",
];

/// Warm-up plus `TRIALS` runs of `probe`, summarized (Mops/s).
fn trials(probe: impl Fn() -> harness::MicroResult) -> Summary {
    probe();
    let rates: Vec<f64> = (0..TRIALS).map(|_| probe().mops_per_s).collect();
    Summary::from_samples(&rates)
}

/// Each simulator probe's rate summary, in `SIM_PROBES` order.
pub fn simx86() -> Vec<Summary> {
    let n = SIM_SCALE;
    vec![
        trials(|| harness::bench_l1_hit_stream(4 * n)),
        trials(|| harness::bench_dram_stream(n)),
        trials(|| harness::bench_dram_stream_noprefetch(n / 2)),
        trials(|| harness::bench_store_stream(n)),
        trials(|| harness::bench_frontend_only(4 * n)),
        trials(|| harness::bench_fp_ports(4 * n)),
    ]
}

/// Median µs per `Engine::submit` cached hit.
pub fn engine_hit_us() -> f64 {
    1.0 / trials(|| harness::bench_service_cached_hits(ENGINE_HITS, false)).median()
}

/// Two clients send `WIRE_REQUESTS` requests each for one warm tuple to a
/// single node; returns every call.
///
/// # Errors
///
/// A node that cannot bind, or a warm-up that fails.
pub fn wire(cache: &Path, seed: u64) -> Result<Vec<Call>, String> {
    let tracer = Arc::new(Tracer::default());
    let nodes = Nodes::spawn(1, cache, &tracer).map_err(|e| e.to_string())?;
    let tuple = Tuple {
        experiment: Experiment::E1,
        platform: "snb",
    };
    let ok = |_: &Tuple, _: &roofline_service::client::RunReply| Ok(());
    let warm = execute(
        &nodes.addrs(),
        &[Lane {
            token: None,
            requests: vec![tuple],
        }],
        seed,
        &tracer,
        &ok,
    );
    if let Some(e) = warm.iter().flatten().find_map(|c| c.error.clone()) {
        return Err(format!("wire probe warm-up: {e}"));
    }
    let lanes: Vec<Lane> = TENANTS
        .iter()
        .map(|(token, _)| Lane {
            token: Some(token),
            requests: vec![tuple; WIRE_REQUESTS],
        })
        .collect();
    Ok(execute(&nodes.addrs(), &lanes, seed, &tracer, &ok)
        .into_iter()
        .flatten()
        .collect())
}
