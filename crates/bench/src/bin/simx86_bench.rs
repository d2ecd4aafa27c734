//! `simx86-bench` — the simulator perf-trajectory harness.
//!
//! Measures memory-system microbenchmark rates and end-to-end sweep wall
//! times, and writes `BENCH_simx86.json` (see EXPERIMENTS.md, appendix
//! "Performance of the harness").
//!
//! ```text
//! simx86-bench [--quick-only] [--scale N] [--out PATH]
//! ```
//!
//! `--quick-only` skips the full-fidelity sweep (CI's perf-smoke mode);
//! `--scale` sets the op count of the heaviest microbench (default
//! 300000); `--out` defaults to `BENCH_simx86.json` in the current
//! directory.

use std::io::Write as _;
use std::process::ExitCode;

use bench::harness;
use experiments::platforms::Fidelity;

/// Pre-PR serial sweep baselines (ms), measured before the fast paths
/// landed: the fixed reference point of the perf trajectory.
const PRE_PR_FULL_MS: u64 = 112_570;
const PRE_PR_QUICK_MS: u64 = 14_627;

struct Args {
    quick_only: bool,
    scale: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick_only: false,
        scale: 300_000,
        out: "BENCH_simx86.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick-only" => args.quick_only = true,
            "--scale" => {
                args.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
            }
            "--out" | "-o" => {
                args.out = it.next().ok_or("--out needs a value")?;
            }
            "--help" | "-h" => {
                return Err("usage: simx86-bench [--quick-only] [--scale N] [--out PATH]"
                    .to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.scale < 1000 {
        return Err("--scale must be at least 1000".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    eprintln!("simx86-bench: microbenchmarks (scale {})", args.scale);
    let micro = harness::run_micro_suite(args.scale);
    for r in &micro {
        eprintln!("  {:<24} {:>10.2} Mops/s  ({} ops)", r.id, r.mops_per_s, r.ops);
    }

    eprintln!("simx86-bench: roofd cached-hit fast path");
    let service = harness::run_service_suite(args.scale / 10);
    for r in &service {
        eprintln!("  {:<32} {:>10.2} Mops/s  ({} ops)", r.id, r.mops_per_s, r.ops);
    }

    eprintln!(
        "simx86-bench: quick sweep ({} experiments, serial, no artifacts)",
        experiments::registry::Experiment::ALL.len()
    );
    let mut sweeps = vec![harness::bench_sweep(Fidelity::Quick)];
    eprintln!(
        "  quick: {} ms ({:.2}x vs pre-PR {} ms)",
        sweeps[0].wall_ms,
        PRE_PR_QUICK_MS as f64 / sweeps[0].wall_ms.max(1) as f64,
        PRE_PR_QUICK_MS
    );
    if !args.quick_only {
        eprintln!("simx86-bench: full sweep (this takes a while)");
        let full = harness::bench_sweep(Fidelity::Full);
        eprintln!(
            "  full: {} ms ({:.2}x vs pre-PR {} ms)",
            full.wall_ms,
            PRE_PR_FULL_MS as f64 / full.wall_ms.max(1) as f64,
            PRE_PR_FULL_MS
        );
        sweeps.push(full);
    }

    let json = harness::render_json(&micro, &service, &sweeps, PRE_PR_FULL_MS, PRE_PR_QUICK_MS);
    if let Err(e) =
        std::fs::File::create(&args.out).and_then(|mut f| f.write_all(json.as_bytes()))
    {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out);
    ExitCode::SUCCESS
}
