//! `sweep_quick`: the reproduction command users run — all 19
//! experiments on `snb` at quick fidelity, one worker, artifacts written.
//!
//! Set-up reads the golden snapshots and runs E12 once as a warm-up,
//! checked against its golden. A round is one sweep into a fresh
//! directory, and it is also the operation a user waits for; the time
//! of each experiment is a per-layer number, from the traced rounds.

use super::{golden_diffs, load_goldens, Ctx, Outcome, Round, Tree};
use experiments::manifest::RunStatus;
use experiments::platforms::Fidelity;
use experiments::registry::{run_experiment, Experiment};
use experiments::snapshot::{diff_trees, read_tree};
use experiments::sweep::{run_one, run_sweep_with, SweepConfig};
use std::time::Instant;

/// Runs the workload.
///
/// # Errors
///
/// A sweep that could not run at all.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, goldens) = ctx.time_setups(|i| {
        let goldens = load_goldens()?;
        let dir = ctx.fresh_dir(&format!("warmup{i}"))?;
        run_one(Experiment::E12, "snb", Fidelity::Quick, &dir).map_err(|e| e.to_string())?;
        let tree = read_tree(&dir).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        let golden = goldens.get("E12").ok_or("no E12 golden snapshot")?;
        let diffs = diff_trees("warm-up E12", &tree, "golden E12", golden);
        if !diffs.is_empty() {
            return Err(diffs.join("; "));
        }
        Ok(goldens)
    })?;

    let tracer = &ctx.tracer;
    let mut errors = Vec::new();
    let mut first: Option<Tree> = None;
    let rounds = ctx.rounds(|i| {
        let dir = ctx.fresh_dir(&format!("round{i}"))?;
        let mut config = SweepConfig::new(Experiment::ALL.to_vec(), "snb", Fidelity::Quick);
        config.out_dir = Some(dir.clone());
        let t = Instant::now();
        let sweep = tracer.span("sweep", None, None);
        let parent = sweep.as_ref().map(|g| g.id());
        let outcome = run_sweep_with(&config, |e, platform, fidelity| {
            let _span = tracer.span(format!("experiment.{}", e.id()), parent, None);
            run_experiment(e, platform, fidelity)
        })
        .map_err(|e| e.to_string())?;
        drop(sweep);
        let wall_s = t.elapsed().as_secs_f64();

        let mut passed = true;
        for entry in outcome
            .manifest
            .entries
            .iter()
            .filter(|e| e.status != RunStatus::Pass)
        {
            passed = false;
            errors.push(format!("round {i}: {} is {:?}", entry.id, entry.status));
        }
        let tree = read_tree(&dir).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        match &first {
            None => {
                for (id, golden) in &goldens {
                    errors.extend(golden_diffs(id, golden, &tree));
                }
                first = Some(tree);
            }
            Some(first) => {
                errors.extend(diff_trees("round 0", first, &format!("round {i}"), &tree))
            }
        }
        Ok(Round {
            wall_s,
            latencies_ms: vec![passed.then_some(wall_s * 1e3)],
            ..Round::default()
        })
    })?;
    Ok(Outcome {
        setup_s,
        rounds,
        errors,
        ..Outcome::default()
    })
}
