//! `roofline_bench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! roofline_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` (the default) the last line of standard output is a
//! JSON object with the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics and the spans are written as JSON lines next to the
//! executable. Without `--workload` all four run, one after another. Each
//! workload runs in a child process of its own, so peak memory is per
//! workload, with glibc's mmap threshold fixed at its 128 KiB default
//! instead of adapting: large buffers are then returned when freed, and
//! peak memory counts live data rather than allocator retention that
//! varies with thread timing. The exit code is 0 only when every
//! correctness check passed.

use roofbench::probes;
use roofbench::report::{end_to_end, per_layer, result_line, LayerInputs};
use roofbench::trace::{to_jsonl, Tracer};
use roofbench::workloads::{self, Ctx, Outcome, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; expected one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive whole number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set in a child process that runs one workload.
const WORKER_ENV: &str = "ROOFBENCH_WORKER";

/// The allocator setting every workload process runs with.
const MALLOC_TUNABLE: &str = "glibc.malloc.mmap_threshold=131072";

/// Runs the requested workloads, each in a child process, forwarding
/// their output; fails if any child fails.
fn run_children(workloads: &[&str], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("roofline_bench: cannot locate the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tunables = match std::env::var("GLIBC_TUNABLES") {
        Ok(t) if !t.is_empty() => format!("{t}:{MALLOC_TUNABLE}"),
        _ => MALLOC_TUNABLE.to_string(),
    };
    let mut ok = true;
    for &w in workloads {
        let status = Command::new(&exe)
            .env(WORKER_ENV, "1")
            .env("GLIBC_TUNABLES", &tunables)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("roofline_bench: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("roofline_bench: cannot start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    // Everything the run writes stays next to the executable, inside the
    // build directory of the checkout.
    let exe_dir: PathBuf = std::env::current_exe()
        .map_err(|e| format!("cannot locate the executable: {e}"))?
        .parent()
        .map(Path::to_path_buf)
        .ok_or("the executable has no parent directory")?;
    let scratch = Scratch(
        exe_dir
            .join("roofbench-scratch")
            .join(format!("{name}-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&scratch.0);
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    // Set before any thread starts: code that stages in the system temp
    // directory stages in the scratch directory instead.
    std::env::set_var("TMPDIR", &scratch.0);

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        tracer: Arc::new(Tracer::default()),
        scratch: scratch.0.clone(),
    };
    let outcome: Outcome = workloads::run(name, &ctx)?;
    let mut metrics = if args.trace {
        let spans = ctx.tracer.spans();
        let trace_dir = exe_dir.join("roofbench-trace");
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
        let trace_file = trace_dir.join(format!("{name}-seed{}.jsonl", args.seed));
        std::fs::write(&trace_file, to_jsonl(&spans))
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
        eprintln!(
            "roofline_bench: {} spans written to {}",
            spans.len(),
            trace_file.display()
        );
        let simx86 = probes::simx86();
        let engine_hit_us = probes::engine_hit_us();
        let wire = probes::wire(&ctx.fresh_dir("wire")?, args.seed)?;
        per_layer(&LayerInputs {
            outcome: &outcome,
            spans: &spans,
            simx86: &simx86,
            engine_hit_us,
            wire: &wire,
        })
    } else {
        end_to_end(&outcome, peak_rss_mb()?)
    };

    let latencies = outcome.rounds.iter().flat_map(|r| &r.latencies_ms);
    let attempted = latencies.clone().count();
    let failed = latencies.filter(|l| l.is_none()).count();
    let mut errors = outcome.errors.clone();
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not finite", m.name));
        m.value = 0.0;
    }
    for e in &errors {
        eprintln!("roofline_bench: CHECK FAILED: {e}");
    }
    for m in &metrics {
        eprintln!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = errors.is_empty() && failed == 0 && attempted > 0;
    let traced = outcome.rounds.iter().filter(|r| r.traced).count();
    println!(
        "# roofline_bench workload={name} seed={} seconds={} trace={} nproc={} setups={} rounds={} traced_rounds={traced} probe_trials={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        workloads::SETUPS,
        outcome.rounds.len(),
        probes::TRIALS,
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("roofline_bench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roofline_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(WORKER_ENV).is_none() {
        return match &args.workload {
            Some(w) => run_children(&[w.as_str()], &args),
            None => run_children(&WORKLOADS, &args),
        };
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("roofline_bench: a worker process needs --workload");
        return ExitCode::from(2);
    };
    match run_one(&name, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("roofline_bench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
