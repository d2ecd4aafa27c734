//! `kernels_full`: `Measurer::measure` with the default protocol over the
//! paper's case-study kernels at full-fidelity top sizes, on `snb`.
//!
//! Set-up builds one machine and kernel per case. A round is one pass
//! over the eight cases and is the operation a user waits for; the time
//! of each `measure` call is a per-layer number. The
//! simulated instruction counts are exact, so they must repeat across
//! passes, and the measured work must equal each kernel's analytic flops.

use super::{Ctx, Outcome, Round};
use experiments::platforms::machine_by_name;
use kernels::blas1::Daxpy;
use kernels::blas2::Dgemv;
use kernels::blas3::{DgemmBlocked, DgemmNaive};
use kernels::fft::Fft;
use kernels::wht::Wht;
use kernels::Kernel;
use perfmon::harness::{CacheProtocol, MeasureConfig, Measurer};
use simx86::pmu::CoreEvent;
use simx86::Machine;
use std::collections::BTreeMap;
use std::time::Instant;

/// One case: a name for metrics, warm (as in E12) or cold, and its kernel.
struct Case {
    name: &'static str,
    warm: bool,
    build: fn(&mut Machine) -> Box<dyn Kernel>,
}

/// The case names, in pass order.
pub const CASES: [&str; 8] = [
    "dgemm_naive_192",
    "dgemm_blocked_192",
    "fft_scalar_2p18",
    "fft_avx_2p18",
    "wht_scalar_2p20",
    "wht_avx_2p20",
    "daxpy_2p22",
    "dgemv_2048",
];

fn cases() -> [Case; 8] {
    let case = |name, warm, build| Case { name, warm, build };
    [
        case(CASES[0], true, |m| Box::new(DgemmNaive::new(m, 192))),
        case(CASES[1], true, |m| Box::new(DgemmBlocked::new(m, 192))),
        case(CASES[2], false, |m| Box::new(Fft::new(m, 1 << 18, false))),
        case(CASES[3], false, |m| Box::new(Fft::new(m, 1 << 18, true))),
        case(CASES[4], false, |m| Box::new(Wht::new(m, 1 << 20, false))),
        case(CASES[5], false, |m| Box::new(Wht::new(m, 1 << 20, true))),
        case(CASES[6], false, |m| Box::new(Daxpy::new(m, 1 << 22))),
        case(CASES[7], false, |m| Box::new(Dgemv::new(m, 2048))),
    ]
}

/// Runs the workload.
///
/// # Errors
///
/// Never at present; the signature matches the other workloads.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, mut built) = ctx.time_setups(|_| {
        Ok(cases()
            .into_iter()
            .map(|case| {
                let mut m = machine_by_name("snb");
                let kernel = (case.build)(&mut m);
                (case, m, kernel)
            })
            .collect::<Vec<_>>())
    })?;

    let tracer = &ctx.tracer;
    let mut outcome = Outcome::default();
    let mut first_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let rounds = ctx.rounds(|i| {
        let t = Instant::now();
        for (case, machine, kernel) in &mut built {
            let cfg = MeasureConfig {
                protocol: if case.warm {
                    CacheProtocol::Warm { priming_runs: 1 }
                } else {
                    CacheProtocol::Cold
                },
                ..MeasureConfig::default()
            };
            let before = machine.core_counters(0).get(CoreEvent::InstRetired);
            let start = Instant::now();
            let measured = {
                let _span = tracer.span(format!("measure.{}", case.name), None, None);
                Measurer::new(machine, cfg).measure(|cpu| kernel.emit(cpu))
            };
            let secs = start.elapsed().as_secs_f64();
            let instr = machine.core_counters(0).get(CoreEvent::InstRetired) - before;

            if measured.work.get() != kernel.flops() {
                outcome.errors.push(format!(
                    "pass {i}: {} measured W = {} but the kernel does {} flops",
                    case.name,
                    measured.work.get(),
                    kernel.flops()
                ));
            }
            match first_counts.get(case.name) {
                None => {
                    first_counts.insert(case.name, instr);
                }
                Some(&first) if first != instr => outcome.errors.push(format!(
                    "pass {i}: {} retired {instr} simulated instructions, pass 0 retired {first}",
                    case.name
                )),
                Some(_) => {}
            }
            if tracer.is_on() {
                outcome.layers.sim_instr.insert(case.name, instr);
                outcome.layers.sim_total.0 += instr;
                outcome.layers.sim_total.1 += secs;
            }
        }
        let wall_s = t.elapsed().as_secs_f64();
        Ok(Round {
            wall_s,
            latencies_ms: vec![Some(wall_s * 1e3)],
            ..Round::default()
        })
    })?;
    outcome.setup_s = setup_s;
    outcome.rounds = rounds;
    Ok(outcome)
}
