//! `BENCHMARK.json` at the repository root must name exactly what the
//! benchmark prints: its workloads and every metric with its unit.

use roofbench::report::{layer_names, END_TO_END};
use roofbench::workloads::WORKLOADS;
use roofline_core::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry lacks `{f}`"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_printed_metric_is_listed_with_its_unit() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_and_units(&doc, "per_layer"), layers);
}

#[test]
fn the_workloads_are_the_four_named_ones() {
    let doc = benchmark_json();
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(listed, WORKLOADS);
}
