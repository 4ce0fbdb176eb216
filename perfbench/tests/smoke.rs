//! Smoke mode: every workload runs once at toy size, untraced and traced,
//! passes its correctness checks, and emits every named metric with its
//! unit. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use ocelot_perfbench::workloads::{Size, NAMES};
use ocelot_perfbench::{run, Options, END_TO_END, PER_LAYER};

fn toy(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.1,
        trace,
        size: Size::Toy,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn assert_emits(workload: &str, trace: bool, expected: &[(&str, &str)]) {
    let outcome = run(&toy(workload, trace)).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(outcome.checks.failed, 0, "{workload} trace={trace}: {:?}", outcome.checks.problems);
    assert!(outcome.checks.attempted > 0);
    let got: Vec<(&str, f64, &str)> = outcome.metrics.iter().collect();
    let names: Vec<&str> = got.iter().map(|(n, _, _)| *n).collect();
    for (name, unit) in expected {
        let found = got.iter().find(|(n, _, _)| n == name);
        let (_, value, u) = found.unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing in {names:?}"));
        assert_eq!(u, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    assert_eq!(got.len(), expected.len(), "{workload} trace={trace}: extra metrics in {names:?}");
}

#[test]
fn every_workload_emits_every_metric_at_toy_size() {
    // One test, so traced runs never install the process-wide globals
    // concurrently. Digests recorded by earlier test runs are stale.
    let _ = std::fs::remove_dir_all(toy("", false).out_dir);
    for workload in NAMES {
        assert_emits(workload, false, &END_TO_END);
        assert_emits(workload, true, &PER_LAYER);
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&toy("no-such-workload", false)).is_err());
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in NAMES {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\"")), "BENCHMARK.json lacks {workload}");
    }
    let declared = json.matches("{\"name\": \"").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + NAMES.len(), "BENCHMARK.json declares other names");
}
