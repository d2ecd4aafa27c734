//! Counter validation and measurement-integrity guards.
//!
//! Two layers live here:
//!
//! * **Expected-vs-measured validation** (experiments E5/E6):
//!   [`ValidationTable`] compares measured `W` and `Q` against analytic
//!   expectations and renders verdict tables.
//! * **Integrity guards**: [`IntegrityGuard`] inspects every `(W, Q, T)`
//!   sample for physical impossibilities — non-finite values, performance
//!   above the applicable ceiling, bandwidth above the IMC peak, intensity
//!   blow-ups, and cross-counter inconsistency — and returns a typed
//!   [`IntegrityReport`]. Each check corresponds to a fault class the
//!   [`simx86::fault`] injector can produce, so silent counter corruption
//!   becomes a detected, reportable condition instead of a wrong plot.

use crate::harness::RegionMeasurement;
use crate::stats::relative_error;
use simx86::Machine;
use std::fmt;

/// Outcome of one expected-vs-measured comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the exact-match tolerance.
    Exact,
    /// Within the acceptable tolerance (cache/prefetch artefacts).
    Acceptable,
    /// Outside tolerance — the counter (or the expectation) is wrong.
    Mismatch,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Exact => write!(f, "exact"),
            Verdict::Acceptable => write!(f, "ok"),
            Verdict::Mismatch => write!(f, "MISMATCH"),
        }
    }
}

/// One row of a validation table.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Kernel name.
    pub kernel: String,
    /// Problem size.
    pub param: u64,
    /// Quantity label (e.g. `"W [flops]"`, `"Q [bytes]"`).
    pub quantity: String,
    /// Analytic expectation.
    pub expected: u64,
    /// Measured value.
    pub measured: u64,
}

impl ValidationRow {
    /// Relative error of this row.
    pub fn error(&self) -> f64 {
        relative_error(self.measured as f64, self.expected as f64)
    }

    /// Classifies the row: exact below `exact_tol`, acceptable below
    /// `accept_tol`, otherwise a mismatch.
    pub fn verdict(&self, exact_tol: f64, accept_tol: f64) -> Verdict {
        let e = self.error();
        if e <= exact_tol {
            Verdict::Exact
        } else if e <= accept_tol {
            Verdict::Acceptable
        } else {
            Verdict::Mismatch
        }
    }
}

/// A titled validation table with fixed tolerances.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationTable {
    title: String,
    exact_tol: f64,
    accept_tol: f64,
    rows: Vec<ValidationRow>,
}

impl ValidationTable {
    /// Creates an empty table. `exact_tol` and `accept_tol` are relative
    /// errors (e.g. `0.0` and `0.1`).
    ///
    /// # Panics
    ///
    /// Panics if `accept_tol < exact_tol` or either is negative.
    pub fn new(title: impl Into<String>, exact_tol: f64, accept_tol: f64) -> Self {
        assert!(
            (0.0..=accept_tol).contains(&exact_tol),
            "tolerances must satisfy 0 <= exact <= accept"
        );
        Self {
            title: title.into(),
            exact_tol,
            accept_tol,
            rows: Vec::new(),
        }
    }

    /// Appends a comparison row.
    pub fn push(
        &mut self,
        kernel: impl Into<String>,
        param: u64,
        quantity: impl Into<String>,
        expected: u64,
        measured: u64,
    ) {
        self.rows.push(ValidationRow {
            kernel: kernel.into(),
            param,
            quantity: quantity.into(),
            expected,
            measured,
        });
    }

    /// The rows recorded so far.
    pub fn rows(&self) -> &[ValidationRow] {
        &self.rows
    }

    /// True when no row is a [`Verdict::Mismatch`].
    pub fn all_pass(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.verdict(self.exact_tol, self.accept_tol) != Verdict::Mismatch)
    }

    /// Renders a fixed-width text table (the experiment binaries print
    /// this; EXPERIMENTS.md embeds it).
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&format!(
            "{:<16} {:>10} {:<12} {:>16} {:>16} {:>8}  {}\n",
            "kernel", "param", "quantity", "expected", "measured", "err%", "verdict"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<16} {:>10} {:<12} {:>16} {:>16} {:>7.2}%  {}\n",
                row.kernel,
                row.param,
                row.quantity,
                row.expected,
                row.measured,
                row.error() * 100.0,
                row.verdict(self.exact_tol, self.accept_tol)
            ));
        }
        out
    }
}

/// A physically impossible (or methodology-invalidating) property of one
/// measured `(W, Q, T)` sample.
///
/// Unlike [`crate::lint::Violation`], which inspects machine *state*
/// before measuring, these are detected in the measured *data* afterwards.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IntegrityViolation {
    /// A derived quantity is NaN or infinite.
    NonFinite {
        /// Which quantity (e.g. `"runtime"`, `"performance"`).
        quantity: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Measured runtime is zero or negative.
    NonPositiveRuntime {
        /// The measured runtime in seconds.
        seconds: f64,
    },
    /// Performance exceeds the applicable compute ceiling — the classic
    /// turbo/clock-drift signature (experiment E8's floating point).
    RoofViolation {
        /// Measured performance in GF/s.
        perf_gflops: f64,
        /// The ceiling it should sit under, in GF/s.
        ceiling_gflops: f64,
    },
    /// Apparent memory bandwidth exceeds what the memory controllers can
    /// physically deliver — phantom traffic or a torn counter read.
    BandwidthExceeded {
        /// Apparent bandwidth in GB/s.
        gbps: f64,
        /// Machine peak (all sockets) in GB/s.
        peak_gbps: f64,
    },
    /// Operational intensity is implausibly large while traffic is
    /// nonzero — the signature of a wrapped/undercounting traffic counter.
    /// (`Q = 0` exactly is legitimate: a fully cache-resident region.)
    IntensityBlowup {
        /// Measured intensity in flops/byte.
        intensity: f64,
        /// The configured plausibility limit.
        limit: f64,
    },
    /// Two counters that must be ordered disagree (e.g. LLC demand-miss
    /// traffic exceeding total IMC traffic, or work without instructions).
    CrossCounter {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// Width-weighted flops exceed what the FP ports could retire in the
    /// measured core cycles — the multiplexing-extrapolation signature.
    WorkExceedsCapacity {
        /// Measured width-weighted flops.
        work_flops: f64,
        /// Port capacity over the measured cycles, in flops.
        capacity_flops: f64,
    },
    /// Core-cycle and TSC-cycle counts disagree beyond the tolerance:
    /// dropped PMU samples (low) or a hidden fast clock (high).
    ClockSkew {
        /// Summed `CPU_CLK_UNHALTED` delta across measured cores.
        core_cycles: u64,
        /// Wall-clock cycles at nominal (TSC) frequency.
        tsc_cycles: u64,
        /// `core_cycles / (tsc_cycles * threads)`.
        ratio: f64,
    },
}

impl IntegrityViolation {
    /// Stable short name of the violation class (for manifests and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            IntegrityViolation::NonFinite { .. } => "non-finite",
            IntegrityViolation::NonPositiveRuntime { .. } => "non-positive-runtime",
            IntegrityViolation::RoofViolation { .. } => "roof-violation",
            IntegrityViolation::BandwidthExceeded { .. } => "bandwidth-exceeded",
            IntegrityViolation::IntensityBlowup { .. } => "intensity-blowup",
            IntegrityViolation::CrossCounter { .. } => "cross-counter",
            IntegrityViolation::WorkExceedsCapacity { .. } => "work-exceeds-capacity",
            IntegrityViolation::ClockSkew { .. } => "clock-skew",
        }
    }
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityViolation::NonFinite { quantity, value } => {
                write!(f, "{quantity} is not finite ({value})")
            }
            IntegrityViolation::NonPositiveRuntime { seconds } => {
                write!(f, "runtime is not positive ({seconds} s)")
            }
            IntegrityViolation::RoofViolation {
                perf_gflops,
                ceiling_gflops,
            } => write!(
                f,
                "performance {perf_gflops:.2} GF/s exceeds the {ceiling_gflops:.2} GF/s ceiling (turbo or clock drift?)"
            ),
            IntegrityViolation::BandwidthExceeded { gbps, peak_gbps } => write!(
                f,
                "apparent bandwidth {gbps:.2} GB/s exceeds the {peak_gbps:.2} GB/s IMC peak (phantom traffic?)"
            ),
            IntegrityViolation::IntensityBlowup { intensity, limit } => write!(
                f,
                "operational intensity {intensity:.3e} flops/byte exceeds the plausibility limit {limit:.1e} (wrapped traffic counter?)"
            ),
            IntegrityViolation::CrossCounter { detail } => {
                write!(f, "cross-counter inconsistency: {detail}")
            }
            IntegrityViolation::WorkExceedsCapacity {
                work_flops,
                capacity_flops,
            } => write!(
                f,
                "work {work_flops:.3e} flops exceeds the {capacity_flops:.3e} flop port capacity of the measured cycles (multiplexing error?)"
            ),
            IntegrityViolation::ClockSkew {
                core_cycles,
                tsc_cycles,
                ratio,
            } => write!(
                f,
                "core cycles {core_cycles} vs TSC cycles {tsc_cycles} (ratio {ratio:.3}): dropped samples or a hidden fast clock"
            ),
        }
    }
}

/// The typed result of integrity-checking one measurement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntegrityReport {
    violations: Vec<IntegrityViolation>,
}

impl IntegrityReport {
    /// A report with no violations.
    pub fn clean() -> Self {
        IntegrityReport::default()
    }

    /// True when no violation was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The detected violations, in check order.
    pub fn violations(&self) -> &[IntegrityViolation] {
        &self.violations
    }

    /// Whether a violation of the given [`IntegrityViolation::kind`] is
    /// present.
    pub fn has(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }

    /// Records a violation.
    pub fn push(&mut self, v: IntegrityViolation) {
        self.violations.push(v);
    }

    /// `"ok"`, or `"VIOLATION"` followed by every detected class — the
    /// verdict string experiment tables print.
    pub fn verdict(&self) -> String {
        if self.is_clean() {
            "ok".to_string()
        } else {
            let kinds: Vec<_> = self.violations.iter().map(|v| v.kind()).collect();
            format!("VIOLATION[{}]", kinds.join(","))
        }
    }
}

impl fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "ok");
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Checks measured `(W, Q, T)` samples against the physical limits of a
/// machine configuration.
///
/// Margins default to the tolerances used elsewhere in the reproduction: a
/// 2% roof margin (matching `Efficiency::violates_roof`), a 10% bandwidth
/// margin (short cold regions transiently exceed the sustained IMC rate),
/// 5% clock-skew tolerance, and an intensity plausibility limit of 10^6
/// flops/byte.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityGuard {
    /// Applicable compute ceiling in GF/s (nominal clock, thread-scaled).
    pub peak_gflops: f64,
    /// Machine peak DRAM bandwidth in GB/s (all sockets).
    pub peak_gbps: f64,
    /// Per-core FP port capacity in flops per cycle at full width.
    pub flops_per_cycle: f64,
    /// Threads the sample aggregates over.
    pub threads: usize,
    /// Relative margin on the roof/capacity checks.
    pub roof_margin: f64,
    /// Relative margin on the bandwidth check. Wider than `roof_margin`
    /// because short cold regions can transiently exceed the *sustained*
    /// IMC rate: line-fill-buffer bursts overlap the region boundary and
    /// overhead subtraction shortens the runtime denominator.
    pub bandwidth_margin: f64,
    /// Relative tolerance on core-vs-TSC cycle agreement.
    pub clock_margin: f64,
    /// Intensity above which a sample is considered implausible.
    pub max_intensity: f64,
    /// Minimum TSC cycles before the clock-skew check applies (tiny
    /// regions are all subtraction noise).
    pub min_cycles_for_skew: u64,
}

impl IntegrityGuard {
    /// Builds a guard for double-precision measurements taken on
    /// `machine` aggregated over `threads` cores.
    pub fn for_machine(machine: &Machine, threads: usize) -> Self {
        let cfg = machine.config();
        let fpc = cfg.fp.peak_flops_per_cycle(cfg.fp.max_width, simx86::isa::Precision::F64);
        IntegrityGuard {
            peak_gflops: fpc * cfg.nominal_ghz * threads as f64,
            peak_gbps: cfg.sockets as f64 * cfg.dram_gbps,
            flops_per_cycle: fpc,
            threads: threads.max(1),
            roof_margin: 0.02,
            bandwidth_margin: 0.10,
            clock_margin: 0.05,
            max_intensity: 1e6,
            min_cycles_for_skew: 1_000,
        }
    }

    /// Checks a raw `(W, Q, T)` triple only (no secondary counters).
    pub fn check_triple(&self, work_flops: f64, traffic_bytes: f64, runtime_s: f64) -> IntegrityReport {
        let mut report = IntegrityReport::clean();
        for (quantity, value) in [
            ("work", work_flops),
            ("traffic", traffic_bytes),
            ("runtime", runtime_s),
        ] {
            if !value.is_finite() {
                report.push(IntegrityViolation::NonFinite { quantity, value });
            } else if value < 0.0 {
                report.push(IntegrityViolation::CrossCounter {
                    detail: format!("{quantity} is negative ({value})"),
                });
            }
        }
        if runtime_s.is_finite() && runtime_s <= 0.0 {
            report.push(IntegrityViolation::NonPositiveRuntime { seconds: runtime_s });
            return report;
        }
        if !report.is_clean() {
            return report;
        }

        let perf_gflops = work_flops / runtime_s / 1e9;
        if perf_gflops > self.peak_gflops * (1.0 + self.roof_margin) {
            report.push(IntegrityViolation::RoofViolation {
                perf_gflops,
                ceiling_gflops: self.peak_gflops,
            });
        }
        let gbps = traffic_bytes / runtime_s / 1e9;
        if gbps > self.peak_gbps * (1.0 + self.bandwidth_margin) {
            report.push(IntegrityViolation::BandwidthExceeded {
                gbps,
                peak_gbps: self.peak_gbps,
            });
        }
        if traffic_bytes > 0.0 {
            let intensity = work_flops / traffic_bytes;
            if intensity > self.max_intensity {
                report.push(IntegrityViolation::IntensityBlowup {
                    intensity,
                    limit: self.max_intensity,
                });
            }
        }
        report
    }

    /// Checks a full harness measurement: the `(W, Q, T)` triple plus the
    /// secondary counters (LLC misses, instructions, core cycles).
    pub fn check(&self, m: &RegionMeasurement) -> IntegrityReport {
        let work = m.work.get() as f64;
        let traffic = m.traffic.get() as f64;
        let mut report = self.check_triple(work, traffic, m.runtime.get());

        // Cross-counter ordering: demand LLC-miss traffic is a subset of
        // IMC traffic; a lower total means the IMC counter lost counts.
        // One cache line of slack absorbs boundary effects.
        let llc = m.llc_miss_traffic.get() as f64;
        if llc > traffic * (1.0 + self.roof_margin) + 64.0 {
            report.push(IntegrityViolation::CrossCounter {
                detail: format!(
                    "LLC demand-miss traffic ({llc:.0} B) exceeds total IMC traffic ({traffic:.0} B); IMC counter wrapped?"
                ),
            });
        }
        if m.work.get() > 0 && m.instructions == 0 {
            report.push(IntegrityViolation::CrossCounter {
                detail: format!(
                    "{} flops retired with zero instructions",
                    m.work.get()
                ),
            });
        }

        let cc = m.core_cycles.get();
        if cc > 0 {
            let capacity = self.flops_per_cycle * cc as f64;
            if work > capacity * (1.0 + self.roof_margin) {
                report.push(IntegrityViolation::WorkExceedsCapacity {
                    work_flops: work,
                    capacity_flops: capacity,
                });
            }
        }

        let tsc_cycles = m.cycles.get();
        if tsc_cycles >= self.min_cycles_for_skew {
            let ratio = cc as f64 / (tsc_cycles as f64 * self.threads as f64);
            if ratio > 1.0 + self.clock_margin || ratio < 1.0 - self.clock_margin {
                report.push(IntegrityViolation::ClockSkew {
                    core_cycles: cc,
                    tsc_cycles,
                    ratio,
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_verdict() {
        let row = ValidationRow {
            kernel: "triad".into(),
            param: 100,
            quantity: "W".into(),
            expected: 200,
            measured: 200,
        };
        assert_eq!(row.verdict(0.0, 0.1), Verdict::Exact);
        assert_eq!(row.error(), 0.0);
    }

    #[test]
    fn acceptable_within_band() {
        let row = ValidationRow {
            kernel: "triad".into(),
            param: 100,
            quantity: "Q".into(),
            expected: 1000,
            measured: 1080,
        };
        assert_eq!(row.verdict(0.0, 0.1), Verdict::Acceptable);
    }

    #[test]
    fn mismatch_outside_band() {
        let row = ValidationRow {
            kernel: "triad".into(),
            param: 100,
            quantity: "Q".into(),
            expected: 1000,
            measured: 2000,
        };
        assert_eq!(row.verdict(0.0, 0.1), Verdict::Mismatch);
    }

    #[test]
    fn table_pass_flag_and_render() {
        let mut t = ValidationTable::new("W validation", 0.0, 0.1);
        t.push("daxpy", 1024, "W [flops]", 2048, 2048);
        t.push("dsum", 1024, "W [flops]", 1024, 1030);
        assert!(t.all_pass());
        let rendered = t.render();
        assert!(rendered.contains("W validation"));
        assert!(rendered.contains("daxpy"));
        assert!(rendered.contains("exact"));

        t.push("broken", 1, "W [flops]", 100, 500);
        assert!(!t.all_pass());
        assert!(t.render().contains("MISMATCH"));
    }

    #[test]
    #[should_panic(expected = "tolerances")]
    fn inverted_tolerances_rejected() {
        let _ = ValidationTable::new("bad", 0.2, 0.1);
    }

    #[test]
    fn zero_expected_zero_measured_is_exact() {
        let row = ValidationRow {
            kernel: "maxpool".into(),
            param: 64,
            quantity: "W".into(),
            expected: 0,
            measured: 0,
        };
        assert_eq!(row.verdict(0.0, 0.1), Verdict::Exact);
    }
}
