//! E19 — hierarchical and time-based roofline modes.
//!
//! Extends the cache-aware roofline of E18 from *platform* structure to
//! *kernel* structure: every kernel is measured with the hierarchical PMU
//! bank, yielding one byte count per memory boundary (core↔L1, L1↔L2,
//! L2↔L3, L3↔DRAM) and therefore
//!
//! * a **per-level operational intensity** `I_l = W / Q_l` — the kernel
//!   appears once per level on the roofline, against that level's roof;
//! * a **per-level attained bandwidth** `Q_l / T`, compared against the
//!   warm-sweep roof of the same level — the closest roof names the
//!   bottleneck;
//! * a **time-based breakdown**: each level's lower-bound transfer time
//!   `Q_l / beta_l` and the compute lower bound `W / pi` as fractions of
//!   the measured runtime, which names the bottleneck without a chart and
//!   exposes latency-bound kernels as *slack* (no fraction near 1).
//!
//! The per-level byte counts come from the simulator's transfer counters,
//! whose conservation laws (every L1 miss is an L2 access, LLC misses plus
//! prefetch fills are the only DRAM reads, …) are pinned by the
//! `hierarchy_props` property suite in `simx86`; this experiment re-checks
//! the endpoint identity (DRAM-level bytes == IMC traffic) on every
//! kernel it measures.

use crate::extensions::cache_aware_roofline;
use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{machine_by_name, Fidelity};
use kernels::blas1::Daxpy;
use kernels::blas3::DgemmBlocked;
use kernels::fft::Fft;
use kernels::maxpool::MaxPool1d;
use kernels::wht::Wht;
use kernels::Kernel;
use perfmon::harness::{MeasureConfig, Measurer, RegionMeasurement};
use roofline_core::hier::{HierMeasurement, TimeBreakdown};
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use simx86::pmu::MemLevel;

/// One measured kernel with its hierarchical view.
struct HierSample {
    name: String,
    region: RegionMeasurement,
    hier: HierMeasurement,
}

/// Measures the experiment's kernel family (BLAS1, BLAS3, FFT, WHT,
/// max-pooling) cold at fidelity-scaled sizes.
fn measure_family(platform: &str, fidelity: Fidelity) -> Vec<HierSample> {
    let mut samples = Vec::new();
    let mut push = |name: String, region: RegionMeasurement| {
        let hier = region
            .to_hier_measurement(name.clone())
            .expect("measured runtime is positive");
        samples.push(HierSample { name, region, hier });
    };

    {
        let n = fidelity.scale(1 << 18, 1 << 14);
        let mut m = machine_by_name(platform);
        let k = Daxpy::new(&mut m, n);
        let r = Measurer::new(&mut m, MeasureConfig::default()).measure(|cpu| k.emit(cpu));
        push(k.name(), r);
    }
    {
        let n = fidelity.scale(96, 32);
        let mut m = machine_by_name(platform);
        let k = DgemmBlocked::new(&mut m, n);
        let r = Measurer::new(&mut m, MeasureConfig::default()).measure(|cpu| k.emit(cpu));
        push(k.name(), r);
    }
    {
        let n = fidelity.scale(1 << 13, 1 << 10);
        let mut m = machine_by_name(platform);
        let k = Fft::new(&mut m, n, true);
        let r = Measurer::new(&mut m, MeasureConfig::default()).measure(|cpu| k.emit(cpu));
        push(k.name(), r);
    }
    {
        let n = fidelity.scale(1 << 13, 1 << 10);
        let mut m = machine_by_name(platform);
        let k = Wht::new(&mut m, n, true);
        let r = Measurer::new(&mut m, MeasureConfig::default()).measure(|cpu| k.emit(cpu));
        push(k.name(), r);
    }
    {
        let n = fidelity.scale(1 << 18, 1 << 14);
        let mut m = machine_by_name(platform);
        let k = MaxPool1d::new(&mut m, n);
        let r = Measurer::new(&mut m, MeasureConfig::default()).measure(|cpu| k.emit(cpu));
        push(k.name(), r);
    }
    samples
}

/// E19 — per-level intensities, attained bandwidths, and the time-based
/// breakdown for the kernel family, against the cache-aware roofline.
pub fn run_e19(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "E19",
        format!("Hierarchical and time-based roofline modes ({platform})"),
    );
    let model = cache_aware_roofline(platform, fidelity);
    let samples = measure_family(platform, fidelity);
    let level_names: Vec<&str> = MemLevel::ALL.iter().map(|l| l.label()).collect();

    // Table 1: per-level operational intensity.
    let mut rows = Vec::new();
    for s in &samples {
        let mut row = vec![s.name.clone()];
        for lvl in &level_names {
            row.push(match s.hier.level_intensity(lvl) {
                Some(i) => format!("{:.4}", i.get()),
                None => "inf".to_string(),
            });
        }
        rows.push(row);
    }
    out.tables.push(text_table(
        "per-level operational intensity [flops/B]",
        &["kernel", "L1", "L2", "L3", "DRAM"],
        &rows,
    ));

    // Table 2: attained bandwidth per level, as GB/s and share of the roof.
    let mut rows = Vec::new();
    for s in &samples {
        let mut row = vec![s.name.clone()];
        for lvl in &level_names {
            let attained = s.hier.attained_bandwidth(lvl).expect("level exists").get();
            let roof = model.roof(lvl).expect("roof per level").bandwidth().get();
            row.push(format!("{:.2} ({:.0}%)", attained, attained / roof * 100.0));
        }
        rows.push(row);
    }
    out.tables.push(text_table(
        "attained bandwidth per level [GB/s (share of roof)]",
        &["kernel", "L1", "L2", "L3", "DRAM"],
        &rows,
    ));

    // Table 3: the time-based roofline — runtime shares per term.
    let mut rows = Vec::new();
    let mut breakdowns = Vec::new();
    for s in &samples {
        let b = TimeBreakdown::from_measurement(&s.hier, &model)
            .expect("levels are named after roofs");
        let mut row = vec![s.name.clone()];
        for t in b.terms() {
            row.push(format!("{:.1}%", t.share() * 100.0));
        }
        row.push(b.dominant().label().to_string());
        row.push(format!("{:.1}%", b.slack() * 100.0));
        rows.push(row);
        breakdowns.push(b);
    }
    out.tables.push(text_table(
        "time-based roofline: lower-bound time as share of runtime",
        &["kernel", "compute", "L1", "L2", "L3", "DRAM", "dominant", "slack"],
        &rows,
    ));

    // Figure: the hierarchical point cloud (one point per kernel per
    // level) over the stacked roofline with labeled per-level ridges.
    // Kernels whose PMU-visible work is zero (the paper's min/max quirk:
    // FP_COMP_OPS does not count MIN/MAX, so maxpool retires zero flops)
    // cannot be placed on a log-log plot and are reported as a finding
    // instead.
    let mut spec = PlotSpec::new(
        format!("E19 hierarchical + time-based modes ({platform})"),
        model.clone(),
    )
    .label_ridges();
    let mut invisible = Vec::new();
    for s in &samples {
        if s.region.work.get() == 0 {
            invisible.push(s.name.clone());
            continue;
        }
        for p in s.hier.points() {
            spec = spec.point(p);
        }
    }
    let mut fig = Figure::new(format!("e19_hier_modes_{platform}"));
    fig.ascii = render_ascii(&spec, 76, 28).ok();
    fig.svg = render_svg(&spec, 900, 560).ok();
    out.figures.push(fig);

    // Findings: the per-kernel bottleneck verdicts, and the endpoint
    // conservation identity between the hierarchical bank and the IMC.
    for (s, b) in samples.iter().zip(&breakdowns) {
        out.finding(
            format!("{} bottleneck", s.name),
            format!(
                "{} ({:.0}% of runtime, slack {:.0}%)",
                b.dominant().label(),
                b.dominant().share() * 100.0,
                b.slack() * 100.0
            ),
        );
    }
    if !invisible.is_empty() {
        out.finding(
            "pmu-invisible kernels",
            format!(
                "{} retire zero PMU-visible flops (min/max not counted) — absent from the figure",
                invisible.join(", ")
            ),
        );
    }
    let conserved = samples
        .iter()
        .filter(|s| s.region.level_bytes[3] == s.region.traffic)
        .count();
    out.finding(
        "traffic conservation",
        format!(
            "DRAM-level bytes equal IMC traffic for {conserved}/{} kernels",
            samples.len()
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_tables_cover_family_and_levels() {
        let out = run_e19("snb", Fidelity::Quick);
        assert_eq!(out.tables.len(), 3);
        for t in &out.tables {
            assert!(t.contains("daxpy"), "{t}");
            assert!(t.contains("fft"), "{t}");
            assert!(t.contains("wht"), "{t}");
            assert!(t.contains("maxpool"), "{t}");
            assert!(t.contains("dgemm"), "{t}");
        }
        assert!(out.tables[0].contains("DRAM"));
        assert!(out.tables[2].contains("dominant"));
    }

    #[test]
    fn e19_conservation_holds_for_every_kernel() {
        let out = run_e19("snb", Fidelity::Quick);
        let (_, v) = out
            .findings
            .iter()
            .find(|(k, _)| k == "traffic conservation")
            .expect("conservation finding present");
        assert!(v.contains("5/5"), "{v}");
    }

    #[test]
    fn e19_figure_labels_ridges() {
        let out = run_e19("snb", Fidelity::Quick);
        let fig = &out.figures[0];
        let ascii = fig.ascii.as_ref().unwrap();
        assert!(ascii.contains("roof DRAM"), "{ascii}");
        assert!(ascii.contains("ridge @"), "{ascii}");
        let svg = fig.svg.as_ref().unwrap();
        assert!(svg.contains("ridge"), "svg lacks ridge labels");
    }

    #[test]
    fn e19_intensity_rises_toward_dram() {
        // Streaming daxpy touches more bytes at L1 than at DRAM only when
        // the hierarchy filters traffic; per-level intensity must be
        // non-decreasing outward for every kernel.
        let samples = measure_family("snb", Fidelity::Quick);
        for s in &samples {
            let mut last = 0.0;
            for lvl in MemLevel::ALL {
                if let Some(i) = s.hier.level_intensity(lvl.label()) {
                    assert!(
                        i.get() >= last,
                        "{}: intensity fell from {last} at {}",
                        s.name,
                        lvl.label()
                    );
                    last = i.get();
                }
            }
        }
    }
}
