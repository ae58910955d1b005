//! Smoke test: every workload, two seeds, both modes, at a small size.
//! Each run must pass all its checks, report `failed: 0` (so
//! `error_rate` is 0) and emit every metric BENCHMARK.json names.

use std::path::Path;
use std::process::Command;

/// The metric names listed under `section` in BENCHMARK.json.
fn names(benchmark: &str, section: &str) -> Vec<String> {
    let start = benchmark
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--tuples",
            "20000",
        ])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} seed {seed}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    for seed in [1, 2] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let line = run(workload, seed, trace);
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            for name in names(&benchmark, section) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {line}"
                );
            }
        }
    }
}

#[test]
fn range_smoke() {
    check("range");
}

#[test]
fn scan_smoke() {
    check("scan");
}

#[test]
fn ingest_smoke() {
    check("ingest");
}
