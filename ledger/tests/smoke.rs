//! Runs the ledger's smoke mode on every workload, untraced and traced, and
//! checks that each run is correct and reports every metric
//! `BENCHMARK.json` names with a finite value.

use std::process::Command;

use xdata_obs::Json;

const WORKLOADS: [&str; 4] = ["paper_tables", "extended_classes", "grading_pile", "serve_mixed"];

/// The metric names of one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = xdata_obs::parse_json(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = json.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    metrics
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name").to_string())
        .collect()
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Num(s) => s.parse().ok(),
        _ => None,
    }
}

#[test]
fn smoke_reports_every_benchmark_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = benchmark_metrics(section);
        assert!(!names.is_empty());
        for workload in WORKLOADS {
            let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
                .args(["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"])
                .output()
                .expect("run the ledger");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = xdata_obs::parse_json(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {last}");
            assert!(result.get("attempted").and_then(number).is_some_and(|n| n >= 1.0));
            let metrics = result.get("metrics").expect("metrics");
            for name in &names {
                let value = metrics.get(name).and_then(|m| m.get("value")).and_then(number);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} --trace {trace}: `{name}` missing or not finite in {last}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seconds", "0"], &["--bogus"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_ledger")).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
