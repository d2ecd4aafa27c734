//! The four workloads and the round protocol they share.
//!
//! Every workload sets up `SETUPS` times and reports the median set-up
//! time, then runs rounds of its unit of work until the next round would
//! end past `--seconds` (always at least one round; two in a traced run,
//! which alternates untraced and traced rounds to measure the tracing
//! overhead).

pub mod kernels;
pub mod service;
pub mod sweep;

use crate::stats::median;
use crate::trace::Tracer;
use experiments::snapshot::{diff_trees, read_tree};
use roofline_service::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["sweep_quick", "kernels_full", "roofd_warm", "fleet_cold"];

/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 3;

/// A normalized artifact tree: file name → contents.
pub type Tree = BTreeMap<String, String>;

/// What every workload gets from the command line and the process.
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether odd rounds are traced.
    pub trace: bool,
    /// The span store.
    pub tracer: Arc<Tracer>,
    /// A private directory for artifacts and disk caches.
    pub scratch: PathBuf,
}

/// One round of a workload's unit of work.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the measured part, s.
    pub wall_s: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Latency of each operation (a sweep, a kernel pass or a request),
    /// ms; `None` for a failed one.
    pub latencies_ms: Vec<Option<f64>>,
}

/// Counts from the traced rounds, by layer. A layer the workload does not
/// reach keeps its zero.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Exact simulated `InstRetired` delta of one `measure` call, by kernel.
    pub sim_instr: BTreeMap<&'static str, u64>,
    /// Summed simulated instructions and host seconds of `measure` calls.
    pub sim_total: (u64, f64),
    /// Replies by `source`.
    pub sources: BTreeMap<String, u64>,
    /// Request attempts beyond the first.
    pub retries: u64,
    /// Attempts answered `busy` or `quota`.
    pub busy: u64,
    /// Node counters summed over nodes, by name.
    pub node: BTreeMap<&'static str, u64>,
    /// Distinct request tuples sent.
    pub distinct_tuples: u64,
}

/// Reads one node counter from a snapshot.
pub type Counter = fn(&StatsSnapshot) -> u64;

/// The node counters summed into `Layers::node`, by name.
pub const NODE_COUNTERS: [(&str, Counter); 10] = [
    ("completed", |s| s.completed),
    ("hits", StatsSnapshot::hits),
    ("misses", |s| s.misses),
    ("coalesced", |s| s.coalesced),
    ("peer_hits", |s| s.peer_hits),
    ("peer_misses", |s| s.peer_misses),
    ("replica_pushes", |s| s.replica_pushes),
    ("replica_installs", |s| s.replica_installs),
    ("shed", |s| s.shed),
    ("timeouts", |s| s.timeouts),
];

impl Layers {
    /// Adds one node's counters, less an earlier snapshot of the same node.
    pub fn add_node_stats(&mut self, before: Option<&StatsSnapshot>, after: &StatsSnapshot) {
        for (name, get) in NODE_COUNTERS {
            *self.node.entry(name).or_default() += get(after) - before.map_or(0, get);
        }
    }
}

/// A finished workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Each set-up's wall time, s.
    pub setup_s: Vec<f64>,
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// Failed correctness checks; empty means correct.
    pub errors: Vec<String>,
    /// Per-layer counts from the traced rounds.
    pub layers: Layers,
}

impl Ctx {
    /// A fresh, empty directory under the scratch root.
    ///
    /// # Errors
    ///
    /// The filesystem error, as text.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Runs `setup` `SETUPS` times, timing each; returns the times and
    /// the last set-up's state. Each earlier state is dropped outside the
    /// timed region.
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn time_setups<T>(
        &self,
        mut setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<(Vec<f64>, T), String> {
        let mut times = Vec::new();
        let mut last = None;
        for i in 0..SETUPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup(i)?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok((times, last.expect("SETUPS is positive")))
    }

    /// Runs rounds until the next one would end past `seconds`. The
    /// closure gets the round index and returns the round with its own
    /// wall time, so per-round set-up and teardown stay outside it.
    ///
    /// # Errors
    ///
    /// The first round error.
    pub fn rounds(
        &self,
        mut round: impl FnMut(usize) -> Result<Round, String>,
    ) -> Result<Vec<Round>, String> {
        let min_rounds = if self.trace { 2 } else { 1 };
        let start = Instant::now();
        let mut rounds = Vec::new();
        let mut spans_s = Vec::new();
        loop {
            let traced = self.trace && rounds.len() % 2 == 1;
            self.tracer.set_on(traced);
            let t = Instant::now();
            let result = round(rounds.len());
            self.tracer.set_on(false);
            let mut r = result?;
            spans_s.push(t.elapsed().as_secs_f64());
            r.traced = traced;
            eprintln!(
                "roofline_bench: round {} {}: {:.4} s, {} operation(s)",
                rounds.len(),
                if traced { "traced" } else { "untraced" },
                r.wall_s,
                r.latencies_ms.len()
            );
            rounds.push(r);
            if rounds.len() >= min_rounds
                && start.elapsed().as_secs_f64() + median(&spans_s) > self.seconds
            {
                return Ok(rounds);
            }
        }
    }
}

/// Directory of the committed golden snapshots.
pub fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// Every golden snapshot, by experiment id, read-only.
///
/// # Errors
///
/// A missing or unreadable snapshot directory.
pub fn load_goldens() -> Result<BTreeMap<String, Tree>, String> {
    let root = golden_root();
    let entries =
        std::fs::read_dir(&root).map_err(|e| format!("cannot read {}: {e}", root.display()))?;
    let mut goldens = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            let id = path
                .file_name()
                .expect("a directory entry has a name")
                .to_string_lossy()
                .into_owned();
            goldens.insert(
                id,
                read_tree(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?,
            );
        }
    }
    if goldens.is_empty() {
        return Err(format!("no golden snapshots under {}", root.display()));
    }
    Ok(goldens)
}

/// Differences between a golden snapshot and the same files of `tree`.
/// The manifest is left out: a multi-experiment sweep writes one manifest
/// for all of them.
pub fn golden_diffs(id: &str, golden: &Tree, tree: &Tree) -> Vec<String> {
    let golden: Tree = golden
        .iter()
        .filter(|(k, _)| *k != "manifest.json")
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let actual: Tree = golden
        .keys()
        .filter_map(|k| Some((k.clone(), tree.get(k)?.clone())))
        .collect();
    diff_trees("actual", &actual, &format!("golden {id}"), &golden)
}

/// The artifact tree `sweep::run_one` writes for one tuple, read back in
/// normalized form.
///
/// # Errors
///
/// A sweep or filesystem error, as text.
pub fn direct_tree(ctx: &Ctx, tuple: &crate::requests::Tuple) -> Result<Tree, String> {
    let dir = ctx.fresh_dir(&format!("direct-{}", tuple.label()))?;
    experiments::sweep::run_one(
        tuple.experiment,
        tuple.platform,
        crate::requests::Tuple::FIDELITY,
        &dir,
    )
    .map_err(|e| format!("{}: {e}", tuple.label()))?;
    let tree = read_tree(&dir).map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    tree
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown name, or a set-up or round that could not run at all.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "sweep_quick" => sweep::run(ctx),
        "kernels_full" => kernels::run(ctx),
        "roofd_warm" => service::run_warm(ctx),
        "fleet_cold" => service::run_cold(ctx),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}
