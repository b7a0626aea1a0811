//! The benchmark's command-line contract: the metric catalogue matches
//! `BENCHMARK.json`, and bad arguments are clean usage errors.

use std::process::Command;

use cpubench::metrics::{END_TO_END, PER_LAYER};
use cpubench::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The JSON array that follows `"key":` in `text`.
fn array<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let open = start + text[start..].find('[').expect("array opens");
    let close = open + text[open..].find(']').expect("array closes");
    &text[open..=close]
}

/// Every string value of `field` in `array`, in order.
fn values(array: &str, field: &str) -> Vec<String> {
    let pattern = format!("\"{field}\": \"");
    array
        .match_indices(&pattern)
        .map(|(i, _)| {
            let rest = &array[i + pattern.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = benchmark_json();
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let section = array(&json, key);
        let names: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
        let units: Vec<&str> = catalogue.iter().map(|(_, u)| *u).collect();
        assert_eq!(values(section, "name"), names, "{key} names");
        assert_eq!(values(section, "unit"), units, "{key} units");
    }
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(values(array(&json, "workloads"), "name"), workloads);
}

#[test]
fn result_line_carries_exactly_the_catalogue() {
    let mut report = cpubench::metrics::Report::default();
    report.attempted = 3;
    report.correct = true;
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        report.set(name, i as f64 + 0.5);
    }
    let line = report.to_json(&END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert_eq!(values(&line, "unit").len(), END_TO_END.len(), "{line}");
    assert!(
        line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
        "{line}"
    );
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "table5-w2k", "--seed", "x1"],
        &["--workload", "table5-w2k", "--seed", "1", "--trace", "yes"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cpubench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: cpubench"), "{args:?}: {stderr}");
    }
}
