//! The service workloads: `roofd_warm` reads a warm cache over the wire,
//! `fleet_cold` fills three empty nodes of a rendezvous fleet.
//!
//! Both run two closed-loop clients, one per tenant, on the executor in
//! [`crate::exec`]; an operation is one request.

use super::{direct_tree, golden_diffs, load_goldens, Ctx, Layers, Outcome, Round, Tree};
use crate::exec::{execute, Call, Lane};
use crate::nodes::{Nodes, TENANTS};
use crate::requests::{cold_lists, seeded, service_experiments, warm_lists, Tuple};
use roofline_service::client::RunReply;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Requests each `roofd_warm` client sends per round.
pub const WARM_PER_ROUND: usize = 100;

/// Fleet size of `fleet_cold`.
pub const FLEET_NODES: usize = 3;

/// `fleet_cold` tuples compared against a direct `sweep::run_one` per run,
/// besides the golden-covered ones.
pub const COLD_DIRECT_SAMPLES: usize = 3;

/// One lane per tenant over the given request lists.
fn lanes(lists: Vec<Vec<Tuple>>) -> Vec<Lane> {
    lists
        .into_iter()
        .zip(TENANTS)
        .map(|(requests, (token, _))| Lane {
            token: Some(token),
            requests,
        })
        .collect()
}

/// Every reply must pass.
fn check_pass(reply: &RunReply) -> Result<(), String> {
    if reply.status == "pass" {
        Ok(())
    } else {
        Err(format!(
            "status {} ({})",
            reply.status,
            reply.detail.as_deref().unwrap_or("no detail")
        ))
    }
}

/// The `roofd_warm` reply check: after warm-up every reply passes, comes
/// from the memory cache and carries the tree the warm-up computed.
pub fn check_warm_reply(reply: &RunReply, reference: Option<&Tree>) -> Result<(), String> {
    check_pass(reply)?;
    if reply.source != "mem" {
        return Err(format!(
            "source {} after warm-up, expected mem",
            reply.source
        ));
    }
    match reference {
        Some(tree) if *tree == reply.artifacts => Ok(()),
        Some(_) => Err("served tree differs from the warm-up tree".to_string()),
        None => Err("tuple was not warmed".to_string()),
    }
}

/// Folds the calls of a traced round into the layer counts.
fn count_calls(layers: &mut Layers, calls: &[Vec<Call>]) {
    for call in calls.iter().flatten() {
        if !call.source.is_empty() {
            *layers.sources.entry(call.source.clone()).or_default() += 1;
        }
        layers.retries += u64::from(call.retries);
        layers.busy += u64::from(call.busy);
    }
}

/// Latencies and errors of a round's calls.
fn settle(calls: &[Vec<Call>], errors: &mut Vec<String>) -> Vec<Option<f64>> {
    calls
        .iter()
        .flatten()
        .map(|call| {
            errors.extend(call.error.clone());
            call.latency_us.map(|us| us / 1e3)
        })
        .collect()
}

/// Compares served trees against the golden snapshots they cover and
/// against a direct `sweep::run_one` of each tuple in `direct`.
fn check_trees(
    ctx: &Ctx,
    served: &BTreeMap<Tuple, Tree>,
    direct: &[Tuple],
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let goldens = load_goldens()?;
    for (tuple, tree) in served {
        if tuple.platform == "snb" {
            if let Some(golden) = goldens.get(tuple.experiment.id()) {
                errors.extend(golden_diffs(tuple.experiment.id(), golden, tree));
            }
        }
    }
    for tuple in direct {
        let Some(tree) = served.get(tuple) else {
            errors.push(format!("{} was never served", tuple.label()));
            continue;
        };
        errors.extend(experiments::snapshot::diff_trees(
            "served",
            tree,
            &format!("run_one {}", tuple.label()),
            &direct_tree(ctx, tuple)?,
        ));
    }
    Ok(())
}

/// `roofd_warm`: one node with a disk cache and token auth, warmed by
/// one request per `snb` tuple; rounds of zipf requests then only read.
///
/// # Errors
///
/// A node that cannot bind.
pub fn run_warm(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let warm_set: Vec<Tuple> = service_experiments()
        .into_iter()
        .map(|experiment| Tuple {
            experiment,
            platform: "snb",
        })
        .collect();
    let mut errors = Vec::new();
    let (setup_s, (nodes, reference)) = ctx.time_setups(|i| {
        let nodes = Nodes::spawn(1, &ctx.fresh_dir(&format!("warm{i}"))?, tracer)
            .map_err(|e| e.to_string())?;
        let served = Mutex::new(BTreeMap::new());
        let check = |tuple: &Tuple, reply: &RunReply| {
            check_pass(reply)?;
            served
                .lock()
                .expect("tree lock")
                .insert(*tuple, reply.artifacts.clone());
            Ok(())
        };
        let calls = execute(
            &nodes.addrs(),
            &lanes(vec![warm_set.clone()]),
            ctx.seed,
            tracer,
            &check,
        );
        settle(&calls, &mut errors);
        Ok((nodes, served.into_inner().expect("tree lock")))
    })?;

    let mut layers = Layers::default();
    let check = |tuple: &Tuple, reply: &RunReply| check_warm_reply(reply, reference.get(tuple));
    let rounds = ctx.rounds(|i| {
        let lists = warm_lists(ctx.seed, i, TENANTS.len(), WARM_PER_ROUND);
        let before = nodes.stats();
        let t = Instant::now();
        let calls = execute(
            &nodes.addrs(),
            &lanes(lists.clone()),
            ctx.seed,
            tracer,
            &check,
        );
        let wall_s = t.elapsed().as_secs_f64();
        if tracer.is_on() {
            count_calls(&mut layers, &calls);
            layers.add_node_stats(Some(&before[0]), &nodes.stats()[0]);
            layers.distinct_tuples += lists.iter().flatten().collect::<BTreeSet<_>>().len() as u64;
        }
        Ok(Round {
            wall_s,
            latencies_ms: settle(&calls, &mut errors),
            ..Round::default()
        })
    })?;
    drop(nodes);
    check_trees(ctx, &reference, &warm_set, &mut errors)?;
    Ok(Outcome {
        setup_s,
        rounds,
        errors,
        layers,
    })
}

/// `fleet_cold`: each round spawns three empty nodes (the set-up that is
/// timed) and both clients request every tuple once, rotating over the
/// nodes, so the fleet should compute each tuple once and serve its
/// second request by coalescing, a peer fetch or a memory hit.
///
/// # Errors
///
/// A fleet that cannot bind.
pub fn run_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let mut errors = Vec::new();
    let mut setup_s = Vec::new();
    let mut layers = Layers::default();
    let served: Mutex<BTreeMap<Tuple, Tree>> = Mutex::new(BTreeMap::new());
    let check = |tuple: &Tuple, reply: &RunReply| {
        check_pass(reply)?;
        let mut served = served.lock().expect("tree lock");
        match served.get(tuple) {
            Some(tree) if *tree != reply.artifacts => Err(format!(
                "{} tree differs from an earlier reply",
                reply.source
            )),
            Some(_) => Ok(()),
            None => {
                served.insert(*tuple, reply.artifacts.clone());
                Ok(())
            }
        }
    };
    let rounds = ctx.rounds(|i| {
        let dir = ctx.fresh_dir(&format!("fleet{i}"))?;
        let t = Instant::now();
        let nodes = Nodes::spawn(FLEET_NODES, &dir, tracer).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        let lists = cold_lists(ctx.seed, i, TENANTS.len());
        let t = Instant::now();
        let calls = execute(
            &nodes.addrs(),
            &lanes(lists.clone()),
            ctx.seed,
            tracer,
            &check,
        );
        let wall_s = t.elapsed().as_secs_f64();
        if tracer.is_on() {
            count_calls(&mut layers, &calls);
            for s in nodes.stats() {
                layers.add_node_stats(None, &s);
            }
            layers.distinct_tuples += lists.iter().flatten().collect::<BTreeSet<_>>().len() as u64;
        }
        drop(nodes);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Round {
            wall_s,
            latencies_ms: settle(&calls, &mut errors),
            ..Round::default()
        })
    })?;
    let served = served.into_inner().expect("tree lock");
    let mut rng = seeded(ctx.seed);
    let keys: Vec<Tuple> = served.keys().copied().collect();
    let direct: Vec<Tuple> = (0..COLD_DIRECT_SAMPLES)
        .map(|_| keys[(rng.next_u64() % keys.len() as u64) as usize])
        .collect();
    check_trees(ctx, &served, &direct, &mut errors)?;
    Ok(Outcome {
        setup_s,
        rounds,
        errors,
        layers,
    })
}
