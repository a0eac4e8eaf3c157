//! `BENCHMARK.json` lists exactly the metrics the benchmark prints.

use pipebench::layers::METRICS;
use pipebench::measure::END_TO_END;
use puftestbed::store::json::{self, JsonValue};

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &JsonValue) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect(key)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn per_layer_metrics_match_the_printed_ones() {
    let listed = names_and_units(manifest().get("per_layer").expect("per_layer"));
    let printed: Vec<(String, String)> = METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(listed, printed);
}

#[test]
fn end_to_end_metrics_match_the_printed_ones() {
    let listed = names_and_units(manifest().get("end_to_end").expect("end_to_end"));
    let printed = END_TO_END.map(|(n, u)| (n.to_string(), u.to_string()));
    assert_eq!(listed, printed);
}

#[test]
fn every_workload_is_listed() {
    let workloads = manifest();
    let names: Vec<&str> = workloads
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["campaign", "assess", "keylife", "repro"]);
}
