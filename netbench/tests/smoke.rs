//! Smoke test of the benchmark itself: every workload at tiny scale, with
//! tracing off and on. Each run must exit cleanly, pass every output check,
//! and print exactly the metrics `BENCHMARK.json` lists for its mode, by
//! name and unit.
//!
//! Run from anywhere with
//! `cargo test --release --offline --manifest-path netbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use netband_spec::json::{parse, Json};

const WORKLOADS: [&str; 3] = ["wire-b1", "wire-b32", "sim-paper"];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(benchmark: &Json, key: &str) -> Vec<(String, String)> {
    let field = |entry: &Json, name: &str| -> String {
        let object = entry.as_object().expect("metric entry is an object");
        let (_, value) = object
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("metric entry without {name}"));
        value.as_str().expect("string field").to_owned()
    };
    let object = benchmark.as_object().expect("BENCHMARK.json is an object");
    let (_, list) = object
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn get<'a>(object: &'a [(String, Json)], key: &str) -> &'a Json {
    &object
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("result line has no {key}"))
        .1
}

#[test]
fn every_workload_reports_its_metrics_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("netbench sits in the repo root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_netbench"))
                .current_dir(root)
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
                .args(["--trace", trace])
                .output()
                .expect("run netbench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result = parse(last).expect("the last line is JSON");
            let result = result.as_object().expect("result object");
            let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                get(result, "correct").as_bool(),
                Some(true),
                "{workload} --trace {trace}:\n{stdout}"
            );
            assert_eq!(get(result, "failed").as_u64(), Some(0));
            assert!(get(result, "attempted").as_u64().is_some_and(|n| n >= 1));
            let printed: Vec<(String, String)> = get(result, "metrics")
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let m = m.as_object().expect("metric object");
                    assert!(get(m, "value").as_f64().is_some(), "{name} has no value");
                    let unit = get(m, "unit").as_str().expect("unit string");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            let mut want = listed(&benchmark, key);
            let mut got = printed;
            want.sort();
            got.sort();
            assert_eq!(
                got, want,
                "{workload} --trace {trace} metric names or units"
            );
        }
    }
}
