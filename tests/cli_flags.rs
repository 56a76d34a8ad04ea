//! The CLI's flag errors, as a user meets them: every value-taking flag
//! of every subcommand reports a missing value as `--X needs a value`,
//! and every numeric flag reports a value it cannot parse as `bad --X`
//! (or its knob's own diagnostic), with exit 1 and nothing on stdout,
//! before any design is loaded, daemon started or file written.

use std::process::Command;

/// Runs `synthlc-cli <args>`, asserts the shared rejection contract
/// (exit 1, empty stdout) and returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_synthlc-cli"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run synthlc-cli");
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

const PATHS: &[&str] = &["paths", "tinycore", "add"];
const FUZZ: &[&str] = &["fuzz"];
const SAT: &[&str] = &["sat"];
const SERVE: &[&str] = &["serve"];
const CLIENT: &[&str] = &["client", "1", "stats"];

/// Each subcommand's argument prefix and every flag it reads a value for.
const VALUE_FLAGS: [(&[&str], &[&str]); 5] = [
    (
        PATHS,
        &[
            "--slots",
            "--bound",
            "--budget",
            "--jobs",
            "--deadline-secs",
            "--journal",
            "--resume",
            "--fault-rate",
            "--retries",
            "--context",
        ],
    ),
    (
        FUZZ,
        &[
            "--seed",
            "--cases",
            "--max-cells",
            "--bound",
            "--deadline-secs",
            "--oracles",
        ],
    ),
    (SAT, &["--budget"]),
    (
        SERVE,
        &[
            "--port",
            "--workers",
            "--queue-cap",
            "--retries",
            "--deadline-secs",
            "--fault-rate",
            "--backoff-ms",
            "--client-budget",
            "--journal",
            "--resume",
        ],
    ),
    (
        CLIENT,
        &[
            "--id",
            "--client",
            "--bound",
            "--budget",
            "--seed",
            "--cases",
            "--source-file",
        ],
    ),
];

#[test]
fn a_flag_without_its_value_is_named() {
    for (prefix, flags) in VALUE_FLAGS {
        for flag in flags {
            let args = [prefix, &[flag]].concat();
            assert_eq!(
                rejected(&args),
                format!("error: {flag} needs a value\n"),
                "{args:?}"
            );
        }
    }
}

#[test]
fn a_numeric_flag_with_a_bad_value_is_named() {
    const DEADLINE: &str = "--deadline-secs must be a positive whole number of seconds, got `x`";
    const FAULT_RATE: &str = "--fault-rate must be a probability in (0, 1], got `x`";
    let cases: [(&[&str], &str, &str); 25] = [
        (PATHS, "--slots", "bad slot `x`"),
        (PATHS, "--bound", "bad --bound"),
        (PATHS, "--budget", "bad --budget"),
        (PATHS, "--jobs", "bad --jobs"),
        (PATHS, "--retries", "bad --retries"),
        (PATHS, "--deadline-secs", DEADLINE),
        (PATHS, "--fault-rate", FAULT_RATE),
        (FUZZ, "--seed", "bad --seed"),
        (FUZZ, "--cases", "bad --cases"),
        (FUZZ, "--max-cells", "bad --max-cells"),
        (FUZZ, "--bound", "bad --bound"),
        (FUZZ, "--deadline-secs", DEADLINE),
        (SAT, "--budget", "bad --budget"),
        (SERVE, "--port", "bad --port"),
        (SERVE, "--workers", "bad --workers"),
        (SERVE, "--queue-cap", "bad --queue-cap"),
        (SERVE, "--retries", "bad --retries"),
        (SERVE, "--backoff-ms", "bad --backoff-ms"),
        (SERVE, "--client-budget", "bad --client-budget"),
        (SERVE, "--deadline-secs", DEADLINE),
        (SERVE, "--fault-rate", FAULT_RATE),
        (CLIENT, "--bound", "bad --bound"),
        (CLIENT, "--budget", "bad --budget"),
        (CLIENT, "--seed", "bad --seed"),
        (CLIENT, "--cases", "bad --cases"),
    ];
    for (prefix, flag, message) in cases {
        let args = [prefix, &[flag, "x"]].concat();
        assert_eq!(rejected(&args), format!("error: {message}\n"), "{args:?}");
    }
    assert_eq!(
        rejected(&["serve", "--queue-cap", "0"]),
        "error: --queue-cap must be at least 1 (a zero-capacity queue sheds every job)\n"
    );
}
