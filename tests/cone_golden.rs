//! Golden cone fingerprints for every in-tree design (`examples/*.nl`).
//!
//! The cone-granular verdict cache (DESIGN.md §14) is only sound if
//! `netlist::cone::fingerprint` is *stable*: the same design must hash
//! to the same value on every machine, every run, every session —
//! otherwise warm journals silently degrade to cold ones (a perf bug)
//! or, worse, an unstable hash could collide across edits (a soundness
//! bug the fuzz `cone` oracle hunts). This suite pins the fingerprint
//! of every design output's cone, plus the joint all-outputs cone, to
//! checked-in goldens.
//!
//! Regenerate after an intentional change to the canonical form:
//!
//! ```text
//! SYNTHLC_BLESS=1 cargo test --test cone_golden
//! ```
//!
//! A bless is a cache-format change: every journal and daemon store in
//! the wild turns cold (records keyed by the old fingerprints miss).
//! That is the designed degradation mode — misses, never corruption —
//! but bless deliberately, not to quiet a failure you don't understand.

use std::fmt::Write as _;
use std::path::PathBuf;

use netlist::SignalId;
use uarch::Design;

fn all_designs() -> Vec<(&'static str, Design)> {
    uarch::DESIGNS
        .iter()
        .map(|&(name, build)| (name, build()))
        .collect()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("cone_fingerprints.txt")
}

fn blessing() -> bool {
    std::env::var_os("SYNTHLC_BLESS").is_some_and(|v| v == "1")
}

fn target_label(design: &Design, id: SignalId) -> String {
    design
        .netlist
        .name(id)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("sig{}", id.index()))
}

/// The property-like roots of a design: the harness hook signals every
/// µPATH/IFT query observes, plus the externally visible outputs. These
/// are the cones the verdict cache keys on in practice.
fn property_roots(design: &Design) -> Vec<(String, SignalId)> {
    let mut roots = vec![
        ("hook:fetch_fire".to_owned(), design.fetch_fire),
        ("hook:issue_fire".to_owned(), design.issue_fire),
        ("hook:issue_pc".to_owned(), design.issue_pc),
        ("hook:issue_valid".to_owned(), design.issue_valid),
        ("hook:pc".to_owned(), design.pc),
    ];
    if let Some((rs1, rs2)) = design.rs_fields {
        roots.push(("hook:rs1".to_owned(), rs1));
        roots.push(("hook:rs2".to_owned(), rs2));
    }
    for &o in &design.outputs {
        roots.push((format!("out:{}", target_label(design, o)), o));
    }
    roots
}

/// Renders the full fingerprint table: one line per property-root cone,
/// one joint line per design, `design target fp` separated by single
/// spaces.
fn render_table() -> String {
    let mut out = String::new();
    for (name, design) in all_designs() {
        let roots = property_roots(&design);
        for (label, id) in &roots {
            let fp = netlist::cone::fingerprint(&design.netlist, &[*id], &[]);
            writeln!(out, "{name} {label} {fp:016x}").unwrap();
        }
        let ids: Vec<SignalId> = roots.iter().map(|(_, id)| *id).collect();
        let joint = netlist::cone::fingerprint(&design.netlist, &ids, &[]);
        writeln!(out, "{name} all-roots {joint:016x}").unwrap();
    }
    out
}

#[test]
fn cone_fingerprints_match_goldens() {
    let table = render_table();
    let path = golden_path();
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &table).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run `SYNTHLC_BLESS=1 cargo test --test cone_golden` to create)",
            path.display()
        )
    });
    assert_eq!(
        table, golden,
        "cone fingerprints drifted from tests/golden/cone_fingerprints.txt — \
         this invalidates every cached verdict in the wild; re-bless with \
         SYNTHLC_BLESS=1 only if the canonical-form change is intentional"
    );
}

#[test]
fn extraction_is_the_canonical_form_for_every_design_output() {
    // The documented contract of `cone::extract`: fingerprinting the
    // extracted standalone cone (over its own renumbered targets)
    // equals fingerprinting the original in place. Checked here on
    // every real design's property roots, not just the unit-test
    // netlists.
    for (name, design) in all_designs() {
        for (label, id) in property_roots(&design) {
            let whole = netlist::cone::fingerprint(&design.netlist, &[id], &[]);
            let ex = netlist::cone::extract(&design.netlist, &[id]);
            let standalone = netlist::cone::fingerprint(&ex.netlist, &ex.targets, &[]);
            assert_eq!(
                whole, standalone,
                "{name}/{label}: extraction changed the fingerprint"
            );
        }
    }
}

#[test]
fn root_cones_collide_only_when_alpha_equivalent() {
    // Not a soundness requirement (collisions are possible in
    // principle) but a strong canary: if two property-root cones of a
    // shipped design hash equal, their extractions must be structurally
    // identical — otherwise the canonical form lost information.
    for (name, design) in all_designs() {
        let mut seen: Vec<(u64, String, SignalId)> = Vec::new();
        for (label, id) in property_roots(&design) {
            let fp = netlist::cone::fingerprint(&design.netlist, &[id], &[]);
            if let Some((_, plabel, prior)) = seen.iter().find(|(f, _, _)| *f == fp) {
                let a = netlist::cone::extract(&design.netlist, &[id]);
                let b = netlist::cone::extract(&design.netlist, &[*prior]);
                a.netlist.same_structure(&b.netlist).unwrap_or_else(|e| {
                    panic!(
                        "{name}: {label} and {plabel} collide ({fp:016x}) \
                         but their cones differ: {e}"
                    )
                });
            }
            seen.push((fp, label, id));
        }
    }
}
