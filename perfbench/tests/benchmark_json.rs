//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark prints, with the same units, and its workloads.

use cpg_perfbench::inputs::Workload;
use cpg_perfbench::{END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `(name, unit)` pairs of one metric list, in file order.
fn listed(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &json[start..start + json[start..].find(']').expect("list ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry
                    .find(&format!("\"{key}\": \""))
                    .expect("field present")
                    + key.len()
                    + 5;
                entry[at..at + entry[at..].find('"').expect("string ends")].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(catalog: &[(&str, &str)]) -> Vec<(String, String)> {
    catalog
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn metric_lists_match_the_catalog() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), pairs(&PER_LAYER));
}

#[test]
fn every_workload_is_listed() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
