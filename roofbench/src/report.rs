//! Metric names, units and values, and the one-line JSON result.
//!
//! Every workload prints every metric: a layer a workload does not reach
//! reads zero in its counts and shares, and the time-valued layer metrics
//! come from the probes every traced run ends with.

use crate::exec::{Call, IO_TIMEOUT};
use crate::probes::SIM_PROBES;
use crate::stats::{median, percentile};
use crate::trace::{self_times, Span};
use crate::workloads::kernels::CASES;
use crate::workloads::{Layers, Outcome, NODE_COUNTERS};
use experiments::registry::Experiment;
use perfmon::stats::Summary;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Reply sources counted into `service.source.<name>`.
pub const SOURCES: [&str; 5] = ["mem", "disk", "peer", "computed", "coalesced"];

/// Span names whose self time is reported as a share.
fn span_names() -> Vec<String> {
    let mut names = vec!["sweep".to_string()];
    names.extend(
        Experiment::ALL
            .iter()
            .map(|e| format!("experiment.{}", e.id())),
    );
    names.extend(CASES.iter().map(|k| format!("measure.{k}")));
    names.extend(
        [
            "request",
            "client.connect",
            "client.auth",
            "client.run",
            "server",
        ]
        .map(String::from),
    );
    names
}

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for p in SIM_PROBES {
        names.push((format!("simx86.{p}.mops"), "Mops/s"));
        names.push((format!("simx86.{p}.cv"), "fraction"));
    }
    names.push(("simx86.sim_minstr_per_s".to_string(), "Minstr/s"));
    names.extend(
        CASES
            .iter()
            .map(|k| (format!("perfmon.sim_minstr.{k}"), "Minstr")),
    );
    names.push(("service.engine_hit_us".to_string(), "us"));
    for call in ["connect", "auth", "run"] {
        names.push((format!("wire.{call}_ms.p50"), "ms"));
        names.push((format!("wire.{call}_ms.p90"), "ms"));
    }
    names.push(("wire.wire_ms.p50".to_string(), "ms"));
    names.push(("wire.server_share".to_string(), "fraction"));
    names.push(("trace.overhead".to_string(), "fraction"));
    names.push(("trace.spans".to_string(), "count"));
    names.extend(
        span_names()
            .into_iter()
            .map(|s| (format!("self_share.{s}"), "fraction")),
    );
    names.extend(
        SOURCES
            .iter()
            .map(|s| (format!("service.source.{s}"), "count")),
    );
    names.push(("service.retries".to_string(), "count"));
    names.push(("service.busy".to_string(), "count"));
    names.extend(
        NODE_COUNTERS
            .iter()
            .map(|(c, _)| (format!("service.node.{c}"), "count")),
    );
    names.push(("service.hit_rate".to_string(), "fraction"));
    names.push(("service.hit_rate_base".to_string(), "count"));
    names.push(("service.computes_per_tuple".to_string(), "ratio"));
    names.push(("service.distinct_tuples".to_string(), "count"));
    names
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A latency percentile in ms; a failed request at that rank reads as the
/// client's I/O bound, the limit it missed.
fn pct_ms(samples: &[Option<f64>], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(IO_TIMEOUT.as_secs_f64() * 1e3)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let untraced: Vec<_> = outcome.rounds.iter().filter(|r| !r.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let latencies: Vec<Option<f64>> = untraced
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let completed = latencies.iter().filter(|l| l.is_some()).count();
    let values = [
        median(&outcome.setup_s),
        median(&walls),
        completed as f64 / walls.iter().sum::<f64>(),
        pct_ms(&latencies, 50.0),
        pct_ms(&latencies, 90.0),
        pct_ms(&latencies, 99.0),
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The workload run, traced rounds included.
    pub outcome: &'a Outcome,
    /// Spans of the traced rounds.
    pub spans: &'a [Span],
    /// Simulator probe summaries, in `SIM_PROBES` order.
    pub simx86: &'a [Summary],
    /// Engine cached-hit µs.
    pub engine_hit_us: f64,
    /// Wire probe calls.
    pub wire: &'a [Call],
}

/// Values of the per-layer metrics, by name.
pub fn layer_values(inputs: &LayerInputs<'_>) -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    for (p, s) in SIM_PROBES.iter().zip(inputs.simx86) {
        v.insert(format!("simx86.{p}.mops"), s.median());
        v.insert(format!("simx86.{p}.cv"), s.cv());
    }
    let layers: &Layers = &inputs.outcome.layers;
    let (instr, secs) = layers.sim_total;
    if secs > 0.0 {
        v.insert(
            "simx86.sim_minstr_per_s".to_string(),
            instr as f64 / 1e6 / secs,
        );
    }
    for (k, n) in &layers.sim_instr {
        v.insert(format!("perfmon.sim_minstr.{k}"), *n as f64 / 1e6);
    }
    v.insert("service.engine_hit_us".to_string(), inputs.engine_hit_us);

    type CallTime = fn(&Call) -> f64;
    let ms = |f: CallTime| -> Vec<Option<f64>> {
        inputs
            .wire
            .iter()
            .map(|c| c.latency_us.map(|_| f(c) / 1e3))
            .collect()
    };
    let calls: [(&str, CallTime); 3] = [
        ("connect", |c| c.connect_us),
        ("auth", |c| c.auth_us),
        ("run", |c| c.run_us),
    ];
    for (name, f) in calls {
        v.insert(format!("wire.{name}_ms.p50"), pct_ms(&ms(f), 50.0));
        v.insert(format!("wire.{name}_ms.p90"), pct_ms(&ms(f), 90.0));
    }
    v.insert(
        "wire.wire_ms.p50".to_string(),
        pct_ms(&ms(|c| (c.run_us - c.server_us).max(0.0)), 50.0),
    );
    let run_us: f64 = inputs.wire.iter().map(|c| c.run_us).sum();
    let server_us: f64 = inputs.wire.iter().map(|c| c.server_us.min(c.run_us)).sum();
    if run_us > 0.0 {
        v.insert("wire.server_share".to_string(), server_us / run_us);
    }

    let rounds = &inputs.outcome.rounds;
    let wall = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect()
    };
    let (traced, untraced) = (wall(true), wall(false));
    if !traced.is_empty() && !untraced.is_empty() {
        v.insert(
            "trace.overhead".to_string(),
            median(&traced) / median(&untraced) - 1.0,
        );
    }
    v.insert("trace.spans".to_string(), inputs.spans.len() as f64);
    // Concurrent threads record overlapping spans, so each layer's self
    // time is taken as a share of all recorded self time, not of wall time.
    let self_us = self_times(inputs.spans);
    let total_us: f64 = self_us.values().sum();
    if total_us > 0.0 {
        for (name, us) in self_us {
            v.insert(format!("self_share.{name}"), us / total_us);
        }
    }

    for (s, n) in &layers.sources {
        v.insert(format!("service.source.{s}"), *n as f64);
    }
    v.insert("service.retries".to_string(), layers.retries as f64);
    v.insert("service.busy".to_string(), layers.busy as f64);
    let node = |c: &str| layers.node.get(c).copied().unwrap_or(0);
    for (c, _) in NODE_COUNTERS {
        v.insert(format!("service.node.{c}"), node(c) as f64);
    }
    if node("completed") > 0 {
        let answered = node("hits") + node("coalesced") + node("peer_hits");
        v.insert(
            "service.hit_rate".to_string(),
            answered as f64 / node("completed") as f64,
        );
    }
    v.insert(
        "service.hit_rate_base".to_string(),
        node("completed") as f64,
    );
    if layers.distinct_tuples > 0 {
        v.insert(
            "service.computes_per_tuple".to_string(),
            node("misses") as f64 / layers.distinct_tuples as f64,
        );
    }
    v.insert(
        "service.distinct_tuples".to_string(),
        layers.distinct_tuples as f64,
    );
    v
}

/// The per-layer metrics of a traced run, in `layer_names` order; a
/// layer the workload does not reach reads zero.
pub fn per_layer(inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let values = layer_values(inputs);
    layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// The result line: the last line a run prints on standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Round;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(layer_names().into_iter().map(|(n, _)| n));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() - END_TO_END.len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn every_computed_layer_value_has_a_listed_name() {
        let mut outcome = Outcome {
            rounds: vec![
                Round {
                    wall_s: 1.0,
                    traced: false,
                    latencies_ms: vec![Some(1.0)],
                },
                Round {
                    wall_s: 1.1,
                    traced: true,
                    latencies_ms: vec![Some(1.0)],
                },
            ],
            ..Outcome::default()
        };
        for k in CASES {
            outcome.layers.sim_instr.insert(k, 5_000_000);
        }
        outcome.layers.sim_total = (5_000_000, 0.5);
        for s in SOURCES {
            outcome.layers.sources.insert(s.to_string(), 1);
        }
        outcome.layers.node.insert("completed", 3);
        outcome.layers.distinct_tuples = 2;
        let spans: Vec<Span> = span_names()
            .into_iter()
            .enumerate()
            .map(|(i, name)| Span {
                id: i as u64,
                parent: None,
                name,
                req: None,
                start_us: 0.0,
                end_us: 10.0,
            })
            .collect();
        let sim = vec![Summary::from_samples(&[1.0, 2.0]); SIM_PROBES.len()];
        let wire = vec![Call {
            latency_us: Some(900.0),
            connect_us: 50.0,
            auth_us: 600.0,
            run_us: 250.0,
            ..Call::default()
        }];
        let inputs = LayerInputs {
            outcome: &outcome,
            spans: &spans,
            simx86: &sim,
            engine_hit_us: 0.4,
            wire: &wire,
        };
        let listed: std::collections::BTreeSet<String> =
            layer_names().into_iter().map(|(n, _)| n).collect();
        let values = layer_values(&inputs);
        for name in values.keys() {
            assert!(
                listed.contains(name),
                "computed `{name}` is not a listed metric"
            );
        }
        assert_eq!(
            values.len(),
            listed.len(),
            "every listed metric is computed when its layer runs"
        );
        assert!((values["trace.overhead"] - 0.1).abs() < 1e-9);
        assert_eq!(values["service.hit_rate"], 0.0);
        assert_eq!(values["service.computes_per_tuple"], 0.0);
        assert_eq!(values["perfmon.sim_minstr.dgemm_naive_192"], 5.0);
    }

    #[test]
    fn a_failure_in_the_tail_reads_as_the_io_bound() {
        let mut latencies: Vec<Option<f64>> = (1..=99).map(|v| Some(v as f64)).collect();
        latencies.push(None);
        let mut outcome = Outcome {
            setup_s: vec![0.5],
            rounds: vec![Round {
                wall_s: 2.0,
                traced: false,
                latencies_ms: latencies,
            }],
            ..Outcome::default()
        };
        let m = end_to_end(&outcome, 10.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("latency_p50_ms"), 50.0);
        assert_eq!(get("latency_p99_ms"), 99.0);
        assert_eq!(get("ops_per_s"), 99.0 / 2.0);
        outcome.rounds[0].latencies_ms[0] = None;
        let m = end_to_end(&outcome, 10.0);
        assert_eq!(
            m.iter().find(|x| x.name == "latency_p99_ms").unwrap().value,
            IO_TIMEOUT.as_secs_f64() * 1e3
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "run_s".into(),
                unit: "s",
                value: 1.25,
            }],
        );
        let doc = roofline_core::json::Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("run_s"))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
    }
}
