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
