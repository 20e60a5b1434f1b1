//! Keeps the harness alive: every workload runs in `--smoke` mode (tiny
//! grids, one sample), untraced and traced, and what it prints must match
//! what `BENCHMARK.json` declares.  Run with
//! `cargo test --release --manifest-path wse-perf/Cargo.toml` (the binary
//! refuses to measure a debug build).

use std::collections::BTreeMap;
use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The `"name": "..."` strings of the array that follows `"<key>": [`.
fn declared(spec: &str, key: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{key}\": [")).expect("key is declared");
    let body = &spec[start..start + spec[start..].find("\n  ]").expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

/// Runs one workload and returns the metrics of its last output line.
fn run(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let output = Command::new(env!("CARGO_BIN_EXE_wse-perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .env("WSE_SIM_NO_FUSE", "1") // must be ignored: runs are hermetic
        .output()
        .expect("wse-perf starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "bad result line: {last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "operations failed: {last}");
    let metrics = &last[last.find("\"metrics\": {").unwrap() + 12..];
    metrics
        .split("\"}")
        .filter_map(|entry| {
            let name_start = entry.find('"')? + 1;
            let name_end = name_start + entry[name_start..].find('"')?;
            let value_start = entry.find("\"value\": ")? + 9;
            let value_end = value_start + entry[value_start..].find(',')?;
            Some((
                entry[name_start..name_end].to_string(),
                entry[value_start..value_end].to_string(),
            ))
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_what_benchmark_json_declares() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: wse-perf measures optimized builds only (use cargo test --release)");
        return;
    }
    let spec = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    let exact_prefixes = [
        "sim.link.",
        "sim.plan.",
        "sim.perf.wse3",
        "analysis.dag_nodes",
        "analysis.dag_edges",
        "csl.bytes",
        "csl.kernel_loc",
    ];
    for workload in declared(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let names = declared(&spec, key);
            let first = run(&workload, trace);
            let second = run(&workload, trace);
            let printed: Vec<&String> = first.keys().collect();
            let mut wanted: Vec<&String> = names.iter().collect();
            wanted.sort();
            assert_eq!(
                printed, wanted,
                "{workload} --trace {trace} prints other names than declared"
            );
            for name in &names {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(name.len() <= 64 && name.chars().all(ok), "bad metric name {name:?}");
                let exact = ["pe_bytes", "model_err"].contains(&name.as_str())
                    || exact_prefixes.iter().any(|p| name.starts_with(p));
                if exact {
                    assert_eq!(first[name], second[name], "{workload}: {name} must repeat exactly");
                }
            }
        }
    }
}
