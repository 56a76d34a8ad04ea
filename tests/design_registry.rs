//! The built-in design registry and the shared `<design>` loader, as the
//! front ends see them: every registry name loads, every shipped `.nl`
//! file loads and lints clean, and the `designs` listing is pinned byte
//! for byte.

use std::path::PathBuf;
use std::process::Command;
use uarch::frontend::design_to_text;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_synthlc-cli"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run synthlc-cli")
}

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(format!("{name}.nl"))
        .display()
        .to_string()
}

#[test]
fn every_registry_name_loads_through_the_shared_loader() {
    for (name, build) in uarch::DESIGNS {
        let (design, frontend) = uarch::load_design(name).expect(name);
        assert!(frontend.is_none(), "{name} is a built-in, not a file");
        assert_eq!(design_to_text(&design), design_to_text(&build()), "{name}");
        let (from_file, frontend) = uarch::load_design(&example(name)).expect(name);
        assert!(frontend.is_some_and(|r| r.report.is_clean()), "{name}.nl");
        assert_eq!(
            design_to_text(&from_file),
            design_to_text(&design),
            "{name}.nl"
        );
    }
    let Err(err) = uarch::load_design("no-such-design") else {
        panic!("an unknown name must not load");
    };
    assert_eq!(
        err.message,
        "unknown design `no-such-design` (not a built-in, not a file)"
    );
}

#[test]
fn lint_accepts_nl_files() {
    for (name, _) in uarch::DESIGNS {
        let out = cli(&["lint", &example(name), "--deny-warnings"]);
        assert!(
            out.status.success(),
            "lint {name}.nl: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn designs_listing_is_pinned() {
    let out = cli(&["designs"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "\
minicva6         903 nodes  401 flop bits  13 µFSMs
minicva6-mul     910 nodes  401 flop bits  13 µFSMs
minicva6-op      915 nodes  402 flop bits  13 µFSMs
hardened         881 nodes  401 flop bits  13 µFSMs
tinycore         115 nodes  118 flop bits  3 µFSMs
minicache        603 nodes  417 flop bits  10 µFSMs
"
    );
}

#[test]
fn a_same_named_file_does_not_shadow_a_built_in() {
    // A plain file called `tinycore` in the working directory: the
    // registry name still means the built-in, so the run succeeds instead
    // of parsing the file.
    let dir = std::env::temp_dir().join(format!("synthlc-shadow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tinycore"), "not a design\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_synthlc-cli"))
        .args(["paths", "tinycore", "add"])
        .current_dir(&dir)
        .output()
        .expect("run synthlc-cli");
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("add: 1 µPATH(s)"), "{stdout}");
}

#[test]
fn pls_rejects_the_options_it_ignores() {
    // `pls` runs one checker at `--bound`/`--budget`: every engine,
    // journal, fault and enumeration option is an error there, exit 1,
    // before anything runs or is written.
    let journal = std::env::temp_dir().join(format!("synthlc-pls-{}.jsonl", std::process::id()));
    let journal = journal.to_str().unwrap();
    let ignored: [&[&str]; 9] = [
        &["--slots", "0"],
        &["--context", "solo"],
        &["--jobs", "7"],
        &["--deadline-secs", "1"],
        &["--journal", journal],
        &["--resume", journal],
        &["--fault-rate", "1"],
        &["--retries", "5"],
        &["--fail-on-undetermined"],
    ];
    for opt in ignored {
        let args: Vec<&str> = ["pls", "tinycore", "--bound", "12"]
            .into_iter()
            .chain(opt.iter().copied())
            .collect();
        let out = cli(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{opt:?}: {stderr}");
        assert_eq!(
            stderr,
            format!(
                "error: `{}` applies to `paths`/`leak`; `pls` takes only \
                 --bound, --budget, --lint, --deny-warnings\n",
                opt[0]
            ),
            "{opt:?}"
        );
        assert!(out.stdout.is_empty(), "{opt:?}");
    }
    assert!(
        !std::path::Path::new(journal).exists(),
        "no journal written"
    );
    let out = cli(&[
        "pls",
        "tinycore",
        "--bound",
        "12",
        "--budget",
        "100000",
        "--lint",
        "--deny-warnings",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("performing locations:"), "{stdout}");
}
