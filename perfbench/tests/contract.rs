//! The benchmark's own contract: the metric names it prints are the
//! ones `BENCHMARK.json` declares, and the model-time metrics repeat
//! exactly for a fixed seed.
//!
//! These run the release-built benchmark for about a second per run:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use hbsp::obs::json::{parse, Value};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["drain", "collectives", "apps"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Run one benchmark invocation and parse its last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = parse(last).expect("result line is JSON");
    let Value::Obj(top) = &v else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert!(
        matches!(v.get("correct"), Some(Value::Bool(true))),
        "{workload}: {last}"
    );
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    v
}

/// `(name, unit)` of every metric in `result`, in name order.
fn printed(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Obj(m)) = result.get("metrics") else {
        panic!("metrics object")
    };
    m.iter()
        .map(|(name, v)| {
            assert!(
                v.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            (
                name.clone(),
                v.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = spec
        .get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&spec).expect("BENCHMARK.json parses");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in WORKLOADS {
        assert_eq!(
            printed(&run(w, 3, false)),
            declared("end_to_end"),
            "{w} untraced"
        );
        assert_eq!(
            printed(&run(w, 3, true)),
            declared("per_layer"),
            "{w} traced"
        );
    }
}

#[test]
fn model_time_metrics_repeat_for_a_seed() {
    for w in WORKLOADS {
        let a = run(w, 11, false);
        let b = run(w, 11, false);
        for name in ["virtual_time", "model_err", "adapt_gain"] {
            let value = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .expect("metric value")
            };
            assert_eq!(value(&a).to_bits(), value(&b).to_bits(), "{w}: {name}");
            assert!(value(&a) > 0.0, "{w}: {name} is never 0");
        }
    }
}
