//! Golden diagnostic snapshots: every `tests/diag/*.nl` file runs through
//! the full frontend (`netlist::text::check`) and its rendered report —
//! codes, messages, caret snippets, notes, summary — must match the
//! checked-in `*.expected` sibling byte for byte.
//!
//! This pins the user-facing shape of the diagnostics engine: a change to
//! a message, a span, or the renderer shows up as a readable diff here.
//!
//! Regenerate after an intentional change:
//!
//! ```text
//! SYNTHLC_BLESS=1 cargo test -p netlist --test diag_snapshots
//! ```

use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("diag")
}

fn blessing() -> bool {
    std::env::var_os("SYNTHLC_BLESS").is_some_and(|v| v == "1")
}

/// The full snapshot for one corpus file: the rendered report (with
/// source snippets) followed by the summary line and the shared
/// lint/check exit code.
fn snapshot(path: &Path) -> String {
    let src = std::fs::read_to_string(path).expect("corpus file");
    let file_name = path.file_name().unwrap().to_string_lossy().into_owned();
    let result = netlist::text::check(&src, &file_name);
    format!(
        "{}-- {} (exit {})\n",
        result.report.render_in(&result.source),
        result.report.summary(),
        result.report.exit_code(true)
    )
}

#[test]
fn corpus_matches_expected_output() {
    let mut cases: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/diag/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "nl"))
        .collect();
    cases.sort();
    assert!(cases.len() >= 29, "snapshot corpus shrank: {}", cases.len());
    let mut failures = Vec::new();
    for case in &cases {
        let got = snapshot(case);
        let expected_path = case.with_extension("expected");
        if blessing() {
            std::fs::write(&expected_path, &got).expect("write .expected");
            continue;
        }
        let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(run `SYNTHLC_BLESS=1 cargo test -p netlist --test diag_snapshots`)",
                expected_path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "== {} ==\n--- expected ---\n{want}\n--- got ---\n{got}",
                case.file_name().unwrap().to_string_lossy()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} snapshot(s) drifted (re-bless with SYNTHLC_BLESS=1 if intentional):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_documented_code_appears_in_the_corpus() {
    // The corpus is the executable documentation of the error-code
    // registry: each frontend code must be exercised by at least one file.
    let mut all = String::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/diag/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "nl") {
            all.push_str(&snapshot(&path));
        }
    }
    for code in [
        "E001", "E002", "E003", "E004", "E005", "E006", "E007", "E008", "E009", "E010", "E011",
        "E012", "E013", "W001", "W002",
    ] {
        assert!(
            all.contains(&format!("[{code}]")),
            "no corpus file triggers {code}"
        );
    }
}
