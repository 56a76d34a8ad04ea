//! Integration coverage of the `fuzz` crate's library API (DESIGN.md §9):
//! the same API the `synthlc-cli fuzz` subcommand and the CI
//! `fuzz-smoke` stage call. Heavier sweeps live in CI; this keeps a
//! small deterministic slice in the tier-1 suite.

use fuzz::{run_fuzz, FuzzConfig, OracleKind, SeededBug};

/// Healthy engines must agree on every generated design, and the run
/// must be a pure function of the seed: same seed → byte-identical
/// report (text and JSON), different seed → different designs.
#[test]
fn fuzz_run_is_clean_and_seed_deterministic() {
    let cfg = FuzzConfig {
        seed: 0xA5A5,
        cases: 10,
        ..Default::default()
    };
    let a = run_fuzz(&cfg);
    assert!(
        !a.has_mismatches(),
        "differential mismatch on healthy engines:\n{}",
        a.render()
    );
    assert!(a.completed);
    assert_eq!(a.cases_run, 10);
    let b = run_fuzz(&cfg);
    assert_eq!(a.render(), b.render(), "report text must be reproducible");
    assert_eq!(
        a.to_json().render_compact(),
        b.to_json().render_compact(),
        "report JSON must be reproducible"
    );
    // Every oracle actually exercised at least one case (nothing was
    // silently skipped wholesale).
    for (kind, stats) in &a.stats {
        assert!(
            stats.agree > 0,
            "oracle {} never produced an agreement across 10 cases",
            kind.label()
        );
    }
    let c = run_fuzz(&FuzzConfig {
        seed: 0x5A5A,
        ..cfg.clone()
    });
    assert_ne!(a.render(), c.render(), "seed must steer generation");
}

/// The report `synthlc-cli fuzz --seed 1 --cases 64` prints is pinned:
/// a refactor of the oracles or of what they call may move no count.
#[test]
fn seed_1_report_matches_the_golden() {
    let report = run_fuzz(&FuzzConfig {
        seed: 1,
        cases: 64,
        ..Default::default()
    });
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fuzz_seed1_64.txt");
    let golden = std::fs::read_to_string(&path).expect("tests/golden/fuzz_seed1_64.txt");
    assert_eq!(
        report.render(),
        golden,
        "the seed-1 fuzz report drifted from tests/golden/fuzz_seed1_64.txt"
    );
}

/// End-to-end bug-surfacing drill through the public API: a planted
/// engine defect must be caught, shrunk, and serialized as a repro that
/// replays from its JSON line alone — mismatching with the bug present,
/// clean with the bug removed.
#[test]
fn seeded_bug_yields_shrunk_replayable_repro() {
    let report = run_fuzz(&FuzzConfig {
        seed: 7,
        cases: 24,
        oracles: vec![OracleKind::Sat],
        seeded_bug: Some(SeededBug::DpllBadSat),
        ..Default::default()
    });
    assert!(
        report.has_mismatches(),
        "the planted DPLL bug went unnoticed"
    );
    let repro = &report.mismatches[0];
    let line = repro.encode();
    let parsed = fuzz::Repro::decode(&line).expect("repro line decodes");
    assert!(
        parsed.replay(Some(SeededBug::DpllBadSat)).is_mismatch(),
        "decoded repro must reproduce the mismatch under the bug"
    );
    assert!(
        !parsed.replay(None).is_mismatch(),
        "the same repro must be clean on healthy engines"
    );
}
