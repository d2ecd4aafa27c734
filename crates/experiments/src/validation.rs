//! E5 (work-counter validation) and E6 (traffic-counter validation).

use crate::output::ExperimentOutput;
use crate::platforms::{machine_by_name, Fidelity};
use kernels::blas1::{Daxpy, Dcopy, Dsum, Triad};
use kernels::blas2::Dgemv;
use kernels::blas3::DgemmBlocked;
use kernels::fft::Fft;
use kernels::maxpool::MaxPool1d;
use kernels::wht::Wht;
use kernels::Kernel;
use perfmon::harness::{CacheProtocol, MeasureConfig, Measurer};
use perfmon::validate::ValidationTable;
use simx86::Machine;

fn measure_kernel(
    out: &mut ExperimentOutput,
    platform: &str,
    machine: &mut Machine,
    kernel: &dyn Kernel,
    protocol: CacheProtocol,
) -> perfmon::RegionMeasurement {
    let cfg = MeasureConfig {
        protocol,
        ..MeasureConfig::default()
    };
    let mut measurer = Measurer::new(machine, cfg);
    let r = measurer.measure(|cpu| kernel.emit(cpu));
    // On a platform spec with a fault suffix armed (`snb+drift=…`) the
    // integrity guard trips; record its verdicts as degradations so the
    // run is reported `degraded` with the report attached instead of
    // silently validating corrupt counters. Clean specs are not gated:
    // the guard's bandwidth check transiently fires on legitimate short
    // cold regions at quick sizes, and flagging those would break the
    // byte-identical golden snapshots.
    if platform.contains('+') && !r.integrity.is_clean() {
        let note = format!("{}: {}", kernel.name(), r.integrity.verdict());
        if !out.degradations.contains(&note) {
            out.degrade(note);
        }
    }
    r
}

/// Builds kernel `build(machine, n)` on a fresh machine, measures it cold
/// and pushes its `W` row. The machine is dropped on return, so E5 holds
/// one simulated machine at a time.
fn w_row<K: Kernel>(
    out: &mut ExperimentOutput,
    table: &mut ValidationTable,
    platform: &str,
    n: u64,
    build: impl FnOnce(&mut Machine, u64) -> K,
) -> K {
    let mut m = machine_by_name(platform);
    let k = build(&mut m, n);
    let r = measure_kernel(out, platform, &mut m, &k, CacheProtocol::Cold);
    table.push(k.name(), n, "W [flops]", k.flops(), r.work.get());
    k
}

/// E5 — measured `W` (width-weighted FP counters) against analytic flop
/// counts, across every kernel family. The paper's conclusion — the
/// counters are exact — must reproduce as all-`exact` rows, with the
/// deliberate exception of max-pooling, which the events cannot see.
pub fn run_e5(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E5", format!("Work-counter validation ({platform})"));
    let mut table = ValidationTable::new("W: expected vs PMU-measured [flops]", 0.0, 0.02);

    let sizes = [
        fidelity.scale(1 << 16, 1 << 10),
        fidelity.scale(1 << 18, 1 << 12),
    ];
    for &n in &sizes {
        w_row(&mut out, &mut table, platform, n, Daxpy::new);
        w_row(&mut out, &mut table, platform, n, Dsum::new);
        w_row(&mut out, &mut table, platform, n, |m, n| {
            Triad::new(m, n, false)
        });
    }
    let gemv_n = fidelity.scale(512, 64);
    w_row(&mut out, &mut table, platform, gemv_n, Dgemv::new);
    let gemm_n = fidelity.scale(96, 24);
    w_row(&mut out, &mut table, platform, gemm_n, DgemmBlocked::new);
    let fft_n = fidelity.scale(1 << 14, 1 << 8);
    w_row(&mut out, &mut table, platform, fft_n, |m, n| {
        Fft::new(m, n, true)
    });
    w_row(&mut out, &mut table, platform, fft_n, |m, n| {
        Wht::new(m, n, true)
    });
    // The blind spot: real work, zero counted flops.
    let mp_n = fidelity.scale(1 << 16, 1 << 10);
    let maxpool = w_row(&mut out, &mut table, platform, mp_n, MaxPool1d::new);

    let all_pass = table.all_pass();
    out.finding("all W rows within tolerance", all_pass);
    out.finding("maxpool true ops (invisible to PMU)", maxpool.true_ops());
    out.tables.push(table.render());
    out
}

/// E6 — measured `Q` (IMC counters, cold caches, prefetchers off) against
/// analytic expectations, including the write-allocate adjustment. The
/// acceptance band is 10 %, the slack the paper also grants for boundary
/// lines and residual dirty data.
pub fn run_e6(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E6", format!("Traffic-counter validation ({platform})"));
    let mut table = ValidationTable::new(
        "Q: expected (cold, prefetch off) vs IMC-measured [bytes]",
        0.005,
        0.10,
    );
    // Each buffer must dwarf the LLC, otherwise the written vector's dirty
    // tail never leaves the cache during the run and the writeback term of
    // the expectation goes missing (the same reason the paper streams
    // half-gigabyte buffers). Buffer = 4x (full) / 2x (quick) L3 capacity.
    let l3 = machine_by_name(platform).config().l3.size_bytes;
    let n = match fidelity {
        Fidelity::Full => 4 * l3 / 8,
        Fidelity::Quick => 2 * l3 / 8,
    };

    // (name, expected_q, builder) — expectations per access analysis:
    // reads of inputs + RFO of written lines + writeback of dirty lines.
    struct Case {
        expected: u64,
        kernel: Box<dyn Kernel>,
        machine: Machine,
    }
    let mut cases = Vec::new();
    {
        let mut m = machine_by_name(platform);
        m.set_prefetch(false, false);
        let k = Dsum::new(&mut m, n);
        cases.push(Case {
            expected: 8 * n,
            kernel: Box::new(k),
            machine: m,
        });
    }
    {
        let mut m = machine_by_name(platform);
        m.set_prefetch(false, false);
        let k = Daxpy::new(&mut m, n);
        // x read (8n) + y RFO (8n) + y writeback (8n).
        cases.push(Case {
            expected: 24 * n,
            kernel: Box::new(k),
            machine: m,
        });
    }
    {
        let mut m = machine_by_name(platform);
        m.set_prefetch(false, false);
        let k = Triad::new(&mut m, n, false);
        // b + c read (16n) + a RFO (8n) + a writeback (8n).
        cases.push(Case {
            expected: 32 * n,
            kernel: Box::new(k),
            machine: m,
        });
    }
    {
        let mut m = machine_by_name(platform);
        m.set_prefetch(false, false);
        let k = Triad::new(&mut m, n, true);
        // NT stores: b + c read + a written once, no RFO.
        cases.push(Case {
            expected: 24 * n,
            kernel: Box::new(k),
            machine: m,
        });
    }
    {
        let mut m = machine_by_name(platform);
        m.set_prefetch(false, false);
        let k = Dcopy::new(&mut m, n, false);
        // x read + y RFO + y writeback.
        cases.push(Case {
            expected: 24 * n,
            kernel: Box::new(k),
            machine: m,
        });
    }

    for case in &mut cases {
        let r = measure_kernel(&mut out, platform, &mut case.machine, case.kernel.as_ref(), CacheProtocol::Cold);
        table.push(
            case.kernel.name(),
            case.kernel.param(),
            "Q [bytes]",
            case.expected,
            r.traffic.get(),
        );
    }

    let all_pass = table.all_pass();
    out.finding("all Q rows within 10%", all_pass);
    out.tables.push(table.render());

    // Companion observation: with prefetch ON, IMC traffic stays close to
    // expectation (slight overshoot), but is *attributed* differently —
    // quantified fully in E7.
    let mut m = machine_by_name(platform);
    let k = Dsum::new(&mut m, n);
    let r = measure_kernel(&mut out, platform, &mut m, &k, CacheProtocol::Cold);
    out.finding(
        "dsum Q with prefetch on / analytic",
        format!("{:.3}", r.traffic.get() as f64 / (8 * n) as f64),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_validates_exactly_and_flags_maxpool() {
        let out = run_e5("snb", Fidelity::Quick);
        let table = &out.tables[0];
        assert!(
            !table.contains("MISMATCH"),
            "work counters must validate:\n{table}"
        );
        assert!(table.contains("maxpool1d"));
        assert!(out
            .findings
            .iter()
            .any(|(k, v)| k.contains("all W rows") && v == "true"));
    }

    #[test]
    fn e6_traffic_within_band() {
        // The `test` platform's 16 KiB L3 keeps the working sets small.
        let out = run_e6("test", Fidelity::Quick);
        let table = &out.tables[0];
        assert!(
            !table.contains("MISMATCH"),
            "traffic expectations must hold:\n{table}"
        );
        assert!(table.contains("triad-nt"));
    }
}
