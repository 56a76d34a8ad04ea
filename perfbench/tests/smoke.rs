//! Tiny-size runs of every workload, end to end and traced, through the
//! real binary against real daemons: every job must pass its verdict check,
//! every mechanism guard must hold, and each run must print exactly the
//! metrics `BENCHMARK.json` declares.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use jsonio::Json;
use std::path::Path;
use std::process::Command;

fn declared(bench: &Json, list: &str) -> Vec<String> {
    bench
        .field(list)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            m.field("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_owned()
        })
        .collect()
}

fn run(root: &Path, workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().unwrap_or("")).expect("last line is JSON");
    assert_eq!(
        result.field("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} trace={trace}:\n{stdout}"
    );
    assert_eq!(result.field("failed").and_then(Json::as_u64), Some(0));
    assert!(
        result
            .field("attempted")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    result
}

fn names(result: &Json) -> Vec<String> {
    match result.field("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn every_workload_runs_end_to_end_and_traced() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads = declared(&bench, "workloads");
    assert_eq!(workloads, ["leak_cold", "edit_warm", "fuzz_sweep"]);
    for w in &workloads {
        let e2e = run(root, w, "0");
        assert_eq!(names(&e2e), declared(&bench, "end_to_end"), "{w}");
        for (name, m) in match e2e.field("metrics") {
            Some(Json::Obj(fields)) => fields.clone(),
            _ => Vec::new(),
        } {
            let v = m.field("value").and_then(Json::as_f64).unwrap_or(0.0);
            assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
        }
        let traced = run(root, w, "1");
        assert_eq!(names(&traced), declared(&bench, "per_layer"), "{w}");
    }
}
