//! Golden `.nl` files for every in-tree design (`examples/*.nl`).
//!
//! Each design must (a) emit exactly the checked-in golden text, and
//! (b) survive the full frontend — lex, parse, resolve, lower (which
//! checks widths as it builds the IR), lint — with zero diagnostics, reproducing the in-memory netlist
//! structurally and re-emitting byte-identical text (the canonical-form
//! fixpoint the fuzz `text` oracle checks on random designs).
//!
//! Regenerate the goldens after an intentional emitter/grammar change:
//!
//! ```text
//! SYNTHLC_BLESS=1 cargo test --test frontend_roundtrip
//! ```

use std::path::PathBuf;

use uarch::Design;

fn all_designs() -> Vec<(&'static str, Design)> {
    uarch::DESIGNS
        .iter()
        .map(|&(name, build)| (name, build()))
        .collect()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(format!("{name}.nl"))
}

fn blessing() -> bool {
    std::env::var_os("SYNTHLC_BLESS").is_some_and(|v| v == "1")
}

#[test]
fn goldens_match_and_round_trip() {
    for (name, design) in all_designs() {
        let emitted = uarch::frontend::design_to_text(&design);
        let path = golden_path(name);
        if blessing() {
            std::fs::write(&path, &emitted).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(run `SYNTHLC_BLESS=1 cargo test --test frontend_roundtrip` to create)",
                path.display()
            )
        });
        assert_eq!(
            emitted, golden,
            "{name}: emission drifted from examples/{name}.nl — \
             re-bless with SYNTHLC_BLESS=1 if the change is intentional"
        );

        // The golden file must round-trip with zero diagnostics of any
        // severity: the frontend is the public face of the tool, and the
        // designs we ship must be clean under it.
        let (parsed, result) = uarch::frontend::parse_design(&golden, &format!("{name}.nl"));
        assert!(
            result.report.is_clean(),
            "{name}: golden file not diagnostic-clean:\n{}",
            result.report.render_in(&result.source)
        );
        let parsed = parsed.expect("clean check yields a design");
        design
            .netlist
            .same_structure(&parsed.netlist)
            .unwrap_or_else(|e| panic!("{name}: reparsed netlist differs: {e}"));
        assert_eq!(design.isa, parsed.isa, "{name}");
        assert_eq!(design.type_field, parsed.type_field, "{name}");
        assert_eq!(design.type_values, parsed.type_values, "{name}");
        assert_eq!(design.max_latency, parsed.max_latency, "{name}");
        assert_eq!(design.outputs, parsed.outputs, "{name}");
        assert_eq!(design.rs_fields, parsed.rs_fields, "{name}");
        assert_eq!(
            golden,
            uarch::frontend::design_to_text(&parsed),
            "{name}: re-emission is not a fixpoint"
        );
    }
}

#[test]
fn goldens_have_no_strays() {
    // Every .nl file under examples/ must correspond to an in-tree design
    // (so the CI frontend stage checks exactly the shipped set).
    let known: Vec<String> = all_designs()
        .iter()
        .map(|(n, _)| format!("{n}.nl"))
        .collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    for entry in std::fs::read_dir(dir).expect("examples/") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".nl") {
            assert!(
                known.iter().any(|k| *k == name),
                "examples/{name} does not match any in-tree design"
            );
        }
    }
}
