//! The measurement harness: the paper's protocol for producing one
//! trustworthy `(W, Q, T)` triple.
//!
//! The protocol, per repetition:
//!
//! 1. apply the cache protocol (flush for cold, priming runs for warm);
//! 2. snapshot core + uncore counters and the TSC;
//! 3. execute the *instrumented* region: framework prologue, kernel,
//!    framework epilogue (the prologue/epilogue model the benchmarking
//!    framework's own cost, which real measurements inevitably include);
//! 4. snapshot again and subtract.
//!
//! A separate **calibration run** executes the instrumented region with an
//! empty kernel; its counts are subtracted from every measurement, exactly
//! the two-run overhead-removal scheme of the paper. Repetitions are
//! summarized by their median.

use crate::stats::Summary;
use crate::validate::{IntegrityGuard, IntegrityReport};
use roofline_core::hier::HierMeasurement;
use roofline_core::point::Measurement;
use roofline_core::units::{Bytes, Cycles, Flops, Seconds};
use roofline_core::Error;
use simx86::isa::{Precision, Reg, VecWidth};
use simx86::pmu::{CoreEvent, MemLevel, UncoreEvent};
use simx86::{Cpu, Machine, SlicedFn, ThreadProgram};

/// Cache state the kernel should encounter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProtocol {
    /// Flush the entire hierarchy before every repetition.
    Cold,
    /// Execute the region this many times, unmeasured, before measuring.
    Warm {
        /// Number of unmeasured priming executions.
        priming_runs: usize,
    },
}

/// Harness configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConfig {
    /// Measured repetitions (median reported).
    pub repetitions: usize,
    /// Cold or warm caches.
    pub protocol: CacheProtocol,
    /// Core to run single-threaded regions on.
    pub core: usize,
    /// Whether to calibrate and subtract framework overhead.
    pub subtract_overhead: bool,
    /// Instructions of synthetic framework prologue/epilogue wrapped
    /// around the region (models timer/counter read-out code paths).
    pub framework_overhead_instrs: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            repetitions: 3,
            protocol: CacheProtocol::Cold,
            core: 0,
            subtract_overhead: true,
            framework_overhead_instrs: 256,
        }
    }
}

/// One measured region: the `(W, Q, T)` triple plus the secondary counters
/// the pitfall experiments need.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMeasurement {
    /// Width-weighted flops (median over repetitions).
    pub work: Flops,
    /// IMC traffic in bytes (median over repetitions).
    pub traffic: Bytes,
    /// Runtime (median over repetitions).
    pub runtime: Seconds,
    /// Runtime in TSC cycles.
    pub cycles: Cycles,
    /// `CPU_CLK_UNHALTED` cycles summed over the measured cores. Equal to
    /// `cycles` (times thread count) at nominal clock; they diverge under
    /// turbo, clock drift, or dropped PMU samples — which is exactly what
    /// the integrity guard's clock-skew check looks for.
    pub core_cycles: Cycles,
    /// Traffic estimate from LLC demand misses only (`misses * 64`) — the
    /// undercounting method of experiment E7.
    pub llc_miss_traffic: Bytes,
    /// Instructions retired in the region.
    pub instructions: u64,
    /// Per-level byte traffic `[L1, L2, L3, DRAM]` (medians over
    /// repetitions) from the hierarchical PMU bank: core↔L1 accesses,
    /// L1↔L2, L2↔L3 and L3↔DRAM transfers, all at line granularity.
    /// These are the `Q_l` of the hierarchical and time-based rooflines.
    pub level_bytes: [Bytes; 4],
    /// Runtime statistics across repetitions (seconds).
    pub runtime_stats: Summary,
    /// Integrity verdict for this sample, computed automatically by the
    /// harness via [`IntegrityGuard::check`].
    pub integrity: IntegrityReport,
}

impl RegionMeasurement {
    /// Converts to the roofline-model measurement triple.
    ///
    /// # Panics
    ///
    /// Panics if the measured runtime is zero.
    pub fn to_measurement(&self) -> Measurement {
        Measurement::new(self.work, self.traffic, self.runtime)
    }

    /// Converts to a hierarchical measurement with one level per memory
    /// boundary, named `L1`/`L2`/`L3`/`DRAM` to match the roof names of a
    /// hierarchical [`roofline_core::Roofline`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidMeasurement`] if the runtime is not positive.
    pub fn to_hier_measurement(&self, name: impl Into<String>) -> Result<HierMeasurement, Error> {
        let mut h = HierMeasurement::new(name, self.work, self.runtime)?;
        for (level, bytes) in MemLevel::ALL.iter().zip(self.level_bytes) {
            h = h.level(level.label(), bytes)?;
        }
        Ok(h)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RawDelta {
    flops: u64,
    traffic: u64,
    llc_bytes: u64,
    instr: u64,
    cycles: u64,
    level_bytes: [u64; 4],
    tsc: f64,
}

/// The measurement driver, borrowing the machine it instruments.
#[derive(Debug)]
pub struct Measurer<'m> {
    machine: &'m mut Machine,
    cfg: MeasureConfig,
}

impl<'m> Measurer<'m> {
    /// Creates a measurer over `machine` with the given protocol.
    pub fn new(machine: &'m mut Machine, cfg: MeasureConfig) -> Self {
        Self { machine, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MeasureConfig {
        &self.cfg
    }

    fn framework_prologue(cpu: &mut Cpu<'_>, instrs: u64) {
        // Counter read-out and loop management: front-end work plus a few
        // stack-ish memory touches.
        cpu.overhead(instrs);
    }

    fn raw_once<F: FnMut(&mut Cpu<'_>)>(&mut self, region: &mut F, empty: bool) -> RawDelta {
        let core = self.cfg.core;
        let c0 = self.machine.core_counters(core);
        let u0 = self.machine.uncore();
        let h0 = self.machine.hier_counters();
        let t0 = self.machine.tsc();
        let overhead = self.cfg.framework_overhead_instrs;
        self.machine.run(core, |cpu| {
            Self::framework_prologue(cpu, overhead / 2);
            if !empty {
                region(cpu);
            }
            Self::framework_prologue(cpu, overhead / 2);
        });
        let dc = self.machine.core_counters(core).since(&c0);
        let du = self.machine.uncore().since(&u0);
        let dh = self.machine.hier_counters().since(&h0);
        RawDelta {
            flops: dc.flops(Precision::F64),
            traffic: du.get(UncoreEvent::ImcDramDataReads) * 64
                + du.get(UncoreEvent::ImcDramDataWrites) * 64,
            llc_bytes: dc.get(CoreEvent::LlcMiss) * 64,
            instr: dc.get(CoreEvent::InstRetired),
            cycles: dc.get(CoreEvent::ClkUnhalted),
            level_bytes: MemLevel::ALL.map(|l| dh.level_bytes(l)),
            tsc: self.machine.tsc() - t0,
        }
    }

    fn apply_protocol<F: FnMut(&mut Cpu<'_>)>(&mut self, region: &mut F) {
        match self.cfg.protocol {
            CacheProtocol::Cold => self.machine.flush_caches(),
            CacheProtocol::Warm { priming_runs } => {
                let core = self.cfg.core;
                for _ in 0..priming_runs {
                    self.machine.run(core, |cpu| region(cpu));
                }
            }
        }
    }

    /// Measures a single-threaded region per the configured protocol.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero.
    pub fn measure<F: FnMut(&mut Cpu<'_>)>(&mut self, mut region: F) -> RegionMeasurement {
        assert!(self.cfg.repetitions > 0, "need at least one repetition");

        // Calibration: the instrumented harness around an empty kernel.
        let overhead = if self.cfg.subtract_overhead {
            self.raw_once(&mut region, true)
        } else {
            RawDelta::default()
        };

        let mut works = Vec::new();
        let mut traffics = Vec::new();
        let mut llcs = Vec::new();
        let mut instrs = Vec::new();
        let mut core_cycles = Vec::new();
        let mut levels: [Vec<f64>; 4] = Default::default();
        let mut times = Vec::new();
        for _ in 0..self.cfg.repetitions {
            self.apply_protocol(&mut region);
            let raw = self.raw_once(&mut region, false);
            works.push(raw.flops.saturating_sub(overhead.flops) as f64);
            traffics.push(raw.traffic.saturating_sub(overhead.traffic) as f64);
            llcs.push(raw.llc_bytes.saturating_sub(overhead.llc_bytes) as f64);
            instrs.push(raw.instr.saturating_sub(overhead.instr) as f64);
            core_cycles.push(raw.cycles.saturating_sub(overhead.cycles) as f64);
            for (l, acc) in levels.iter_mut().enumerate() {
                acc.push(raw.level_bytes[l].saturating_sub(overhead.level_bytes[l]) as f64);
            }
            times.push((raw.tsc - overhead.tsc).max(0.0) / self.machine.tsc_hz());
        }
        let runtime_stats = Summary::from_samples(&times);
        let med = |v: &[f64]| Summary::from_samples(v).median();
        let tsc_cycles = runtime_stats.median() * self.machine.tsc_hz();
        let mut out = RegionMeasurement {
            work: Flops::new(med(&works).round() as u64),
            traffic: Bytes::new(med(&traffics).round() as u64),
            runtime: Seconds::new(runtime_stats.median().max(f64::MIN_POSITIVE)),
            cycles: Cycles::new(tsc_cycles.round() as u64),
            core_cycles: Cycles::new(med(&core_cycles).round() as u64),
            llc_miss_traffic: Bytes::new(med(&llcs).round() as u64),
            instructions: med(&instrs).round() as u64,
            level_bytes: [
                Bytes::new(med(&levels[0]).round() as u64),
                Bytes::new(med(&levels[1]).round() as u64),
                Bytes::new(med(&levels[2]).round() as u64),
                Bytes::new(med(&levels[3]).round() as u64),
            ],
            runtime_stats,
            integrity: IntegrityReport::clean(),
        };
        out.integrity = IntegrityGuard::for_machine(self.machine, 1).check(&out);
        out
    }

    /// Measures a multi-threaded region: `threads` programs of `slices`
    /// slices each; `body(thread, cpu, slice)` emits one slice. Work and
    /// traffic are summed across cores; runtime is wall-clock (slowest
    /// core). Overhead subtraction is skipped — with all cores busy the
    /// framework share is negligible, matching the paper's practice.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the machine's core count.
    pub fn measure_parallel<F>(
        &mut self,
        threads: usize,
        slices: usize,
        body: F,
    ) -> RegionMeasurement
    where
        F: Fn(usize, &mut Cpu<'_>, usize) + Copy,
    {
        assert!(threads > 0, "need at least one thread");
        let mut works = Vec::new();
        let mut traffics = Vec::new();
        let mut llcs = Vec::new();
        let mut instrs = Vec::new();
        let mut core_cycles = Vec::new();
        let mut levels: [Vec<f64>; 4] = Default::default();
        let mut times = Vec::new();
        for _ in 0..self.cfg.repetitions {
            match self.cfg.protocol {
                CacheProtocol::Cold => self.machine.flush_caches(),
                CacheProtocol::Warm { priming_runs } => {
                    for _ in 0..priming_runs {
                        self.run_threads(threads, slices, body);
                    }
                }
            }
            let c0: Vec<_> = (0..threads).map(|t| self.machine.core_counters(t)).collect();
            let u0 = self.machine.uncore();
            let h0 = self.machine.hier_counters();
            let t0 = self.machine.tsc();
            self.run_threads(threads, slices, body);
            let mut flops = 0u64;
            let mut llc = 0u64;
            let mut instr = 0u64;
            let mut cycles = 0u64;
            for (t, before) in c0.iter().enumerate() {
                let d = self.machine.core_counters(t).since(before);
                flops += d.flops(Precision::F64);
                llc += d.get(CoreEvent::LlcMiss) * 64;
                instr += d.get(CoreEvent::InstRetired);
                cycles += d.get(CoreEvent::ClkUnhalted);
            }
            let du = self.machine.uncore().since(&u0);
            let dh = self.machine.hier_counters().since(&h0);
            works.push(flops as f64);
            traffics.push(
                (du.get(UncoreEvent::ImcDramDataReads) * 64
                    + du.get(UncoreEvent::ImcDramDataWrites) * 64) as f64,
            );
            llcs.push(llc as f64);
            instrs.push(instr as f64);
            core_cycles.push(cycles as f64);
            for (l, acc) in levels.iter_mut().enumerate() {
                acc.push(dh.level_bytes(MemLevel::ALL[l]) as f64);
            }
            times.push((self.machine.tsc() - t0) / self.machine.tsc_hz());
        }
        let runtime_stats = Summary::from_samples(&times);
        let med = |v: &[f64]| Summary::from_samples(v).median();
        let mut out = RegionMeasurement {
            work: Flops::new(med(&works).round() as u64),
            traffic: Bytes::new(med(&traffics).round() as u64),
            runtime: Seconds::new(runtime_stats.median().max(f64::MIN_POSITIVE)),
            cycles: Cycles::new((runtime_stats.median() * self.machine.tsc_hz()).round() as u64),
            core_cycles: Cycles::new(med(&core_cycles).round() as u64),
            llc_miss_traffic: Bytes::new(med(&llcs).round() as u64),
            instructions: med(&instrs).round() as u64,
            level_bytes: [
                Bytes::new(med(&levels[0]).round() as u64),
                Bytes::new(med(&levels[1]).round() as u64),
                Bytes::new(med(&levels[2]).round() as u64),
                Bytes::new(med(&levels[3]).round() as u64),
            ],
            runtime_stats,
            integrity: IntegrityReport::clean(),
        };
        out.integrity = IntegrityGuard::for_machine(self.machine, threads).check(&out);
        out
    }

    fn run_threads<F>(&mut self, threads: usize, slices: usize, body: F)
    where
        F: Fn(usize, &mut Cpu<'_>, usize) + Copy,
    {
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| {
                Box::new(SlicedFn::new(slices, move |cpu: &mut Cpu<'_>, s| {
                    body(t, cpu, s)
                })) as Box<dyn ThreadProgram>
            })
            .collect();
        self.machine.run_parallel(programs);
    }
}

/// Emits a simple AVX triad over `n` f64 elements of three buffers — shared
/// by tests and the validation suite as the canonical known-W region.
pub fn emit_triad_region(
    cpu: &mut Cpu<'_>,
    a: simx86::Buffer,
    b: simx86::Buffer,
    c: simx86::Buffer,
    n: u64,
) {
    let w = VecWidth::Y256;
    let p = Precision::F64;
    let mut i = 0;
    while i + 4 <= n {
        cpu.load(Reg::new(0), b.f64_at(i), w, p);
        cpu.load(Reg::new(1), c.f64_at(i), w, p);
        cpu.fmul(Reg::new(2), Reg::new(1), Reg::new(15), w, p);
        cpu.fadd(Reg::new(3), Reg::new(0), Reg::new(2), w, p);
        cpu.store(a.f64_at(i), Reg::new(3), w, p);
        i += 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::config::test_machine;

    fn triad_setup(machine: &mut Machine, n: u64) -> (simx86::Buffer, simx86::Buffer, simx86::Buffer) {
        (
            machine.alloc(n * 8),
            machine.alloc(n * 8),
            machine.alloc(n * 8),
        )
    }

    #[test]
    fn cold_measurement_reports_full_traffic() {
        let mut m = Machine::new(test_machine());
        m.set_prefetch(false, false);
        let n = 4096u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        assert_eq!(r.work.get(), 2 * n);
        // Cold traffic ~32n (b, c, RFO a, writeback a).
        assert!(r.traffic.get() >= 30 * n, "traffic {}", r.traffic);
        assert!(r.runtime.get() > 0.0);
    }

    #[test]
    fn warm_measurement_of_resident_set_has_tiny_traffic() {
        let mut m = Machine::new(test_machine());
        m.set_prefetch(false, false);
        let n = 256u64; // 6 KiB working set < 16 KiB L3.
        let (a, b, c) = triad_setup(&mut m, n);
        let cfg = MeasureConfig {
            protocol: CacheProtocol::Warm { priming_runs: 2 },
            ..MeasureConfig::default()
        };
        let mut meas = Measurer::new(&mut m, cfg);
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        assert_eq!(r.work.get(), 2 * n);
        assert!(
            r.traffic.get() < 8 * n,
            "warm traffic should be far below cold: {}",
            r.traffic
        );
    }

    #[test]
    fn overhead_subtraction_removes_framework_instructions() {
        let mut m = Machine::new(test_machine());
        let n = 512u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let expected_kernel_instrs = n / 4 * 5;

        let with = {
            let mut meas = Measurer::new(&mut m, MeasureConfig::default());
            meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n))
        };
        assert_eq!(with.instructions, expected_kernel_instrs);

        let without = {
            let cfg = MeasureConfig {
                subtract_overhead: false,
                ..MeasureConfig::default()
            };
            let mut meas = Measurer::new(&mut m, cfg);
            meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n))
        };
        assert_eq!(
            without.instructions,
            expected_kernel_instrs + MeasureConfig::default().framework_overhead_instrs
        );
    }

    #[test]
    fn llc_method_undercounts_with_prefetch_on() {
        let mut m = Machine::new(test_machine());
        m.set_prefetch(true, true);
        let n = 8192u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        assert!(
            r.llc_miss_traffic.get() < r.traffic.get(),
            "LLC-miss counting ({}) must undercount IMC traffic ({})",
            r.llc_miss_traffic,
            r.traffic
        );
    }

    #[test]
    fn to_measurement_round_trip() {
        let mut m = Machine::new(test_machine());
        let n = 1024u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        let point = r.to_measurement();
        assert_eq!(point.work(), r.work);
        assert_eq!(point.traffic(), r.traffic);
    }

    #[test]
    fn repetition_stats_are_populated() {
        let mut m = Machine::new(test_machine());
        let n = 512u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let cfg = MeasureConfig {
            repetitions: 5,
            ..MeasureConfig::default()
        };
        let mut meas = Measurer::new(&mut m, cfg);
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        assert_eq!(r.runtime_stats.count(), 5);
        assert!(r.runtime_stats.min() <= r.runtime_stats.median());
    }

    #[test]
    fn parallel_measurement_sums_work_across_cores() {
        let mut m = Machine::new(test_machine()); // 2 cores
        let n = 2048u64;
        let bufs: Vec<_> = (0..2)
            .map(|_| {
                let (a, b, c) = triad_setup(&mut m, n);
                (a, b, c)
            })
            .collect();
        let bufs_ref = &bufs;
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure_parallel(2, 8, |t, cpu, s| {
            let (a, b, c) = bufs_ref[t];
            let chunk = n / 8;
            let start = s as u64 * chunk;
            let mut i = start;
            while i + 4 <= start + chunk {
                cpu.load(Reg::new(0), b.f64_at(i), VecWidth::Y256, Precision::F64);
                cpu.load(Reg::new(1), c.f64_at(i), VecWidth::Y256, Precision::F64);
                cpu.fmul(Reg::new(2), Reg::new(1), Reg::new(15), VecWidth::Y256, Precision::F64);
                cpu.fadd(Reg::new(3), Reg::new(0), Reg::new(2), VecWidth::Y256, Precision::F64);
                cpu.store(a.f64_at(i), Reg::new(3), VecWidth::Y256, Precision::F64);
                i += 4;
            }
        });
        assert_eq!(r.work.get(), 2 * n * 2, "both threads' flops counted");
    }

    #[test]
    fn level_bytes_bracket_the_hierarchy() {
        let mut m = Machine::new(test_machine());
        m.set_prefetch(false, false);
        let n = 4096u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        // The DRAM level of the hierarchical bank is the same IMC traffic
        // the classic (W, Q, T) triple reports.
        assert_eq!(r.level_bytes[3], r.traffic);
        // A load/store stream touches L1 at least once per access.
        assert!(r.level_bytes[0].get() >= r.work.get() / 2 * 8);
        // With no prefetchers every inner-level byte was demanded through
        // the outer levels: a cold streaming kernel moves comparable
        // volume at L2 and beyond.
        assert!(r.level_bytes[1].get() >= r.level_bytes[3].get() / 2);
    }

    #[test]
    fn hier_measurement_conversion_names_all_levels() {
        let mut m = Machine::new(test_machine());
        m.set_prefetch(false, false);
        let n = 2048u64;
        let (a, b, c) = triad_setup(&mut m, n);
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n));
        let h = r.to_hier_measurement("triad").unwrap();
        assert_eq!(h.levels().len(), 4);
        assert!(h.level_intensity("L1").is_some());
        assert!(h.attained_bandwidth("DRAM").is_some());
        assert_eq!(h.work(), r.work);
        // Cold triad: DRAM intensity is the classic W/Q.
        let classic = r.work.get() as f64 / r.traffic.get() as f64;
        assert!((h.level_intensity("DRAM").unwrap().get() - classic).abs() < 1e-12);
    }

    #[test]
    fn parallel_level_bytes_cover_all_threads() {
        let mut m = Machine::new(test_machine()); // 2 cores
        m.set_prefetch(false, false);
        let n = 2048u64;
        let bufs: Vec<_> = (0..2)
            .map(|_| {
                let (a, b, c) = triad_setup(&mut m, n);
                (a, b, c)
            })
            .collect();
        let bufs_ref = &bufs;
        let mut meas = Measurer::new(&mut m, MeasureConfig::default());
        let r = meas.measure_parallel(2, 8, |t, cpu, s| {
            let (a, b, c) = bufs_ref[t];
            let chunk = n / 8;
            let start = s as u64 * chunk;
            let mut i = start;
            while i + 4 <= start + chunk {
                cpu.load(Reg::new(0), b.f64_at(i), VecWidth::Y256, Precision::F64);
                cpu.load(Reg::new(1), c.f64_at(i), VecWidth::Y256, Precision::F64);
                cpu.fmul(Reg::new(2), Reg::new(1), Reg::new(15), VecWidth::Y256, Precision::F64);
                cpu.fadd(Reg::new(3), Reg::new(0), Reg::new(2), VecWidth::Y256, Precision::F64);
                cpu.store(a.f64_at(i), Reg::new(3), VecWidth::Y256, Precision::F64);
                i += 4;
            }
        });
        assert_eq!(r.level_bytes[3], r.traffic);
        // Both threads' L1 traffic is in the machine-wide bank.
        assert!(r.level_bytes[0].get() >= 2 * n * 8 * 3 / 2);
    }

    #[test]
    #[should_panic(expected = "repetition")]
    fn zero_repetitions_rejected() {
        let mut m = Machine::new(test_machine());
        let cfg = MeasureConfig {
            repetitions: 0,
            ..MeasureConfig::default()
        };
        let mut meas = Measurer::new(&mut m, cfg);
        let _ = meas.measure(|_| {});
    }
}
