//! `Unrolling::extend_to` stability: growing an unrolling in place must be
//! indistinguishable from building it at the final bound directly.
//!
//! This is the property the whole incremental-solving layer rests on
//! (DESIGN.md §12): a pooled solver context extends its unrolling when a
//! deeper bound is requested, so the variable numbering of every already-
//! built frame has to stay stable across the extension and the CNF has to
//! grow strictly append-only — otherwise cached activation literals and
//! learnt clauses would silently refer to the wrong time frames.
//!
//! Checked two ways:
//! * structurally — stepwise `extend_to` through several stops yields the
//!   same per-(frame, signal) literals, the same variable count, and the
//!   same clause stream (each intermediate stop a strict prefix) as one
//!   direct build at the final bound;
//! * behaviourally — a `Checker` that solved queries at a shallow bound
//!   and then grew via `ensure_bound` returns the same verdicts as a
//!   fresh checker built at the deep bound.
//!
//! Property-checked over seeded fuzz-generated netlists plus the six
//! in-tree designs. Those six designs' clause streams are also pinned
//! across builds by `tests/golden/clause_streams.txt`.

use fuzz::{build, sample_genome, GenConfig};
use mc::{Checker, InitMode, McConfig, Unrolling};
use netlist::{Netlist, SignalId};
use prng::Rng;
fn in_tree_netlists() -> Vec<(&'static str, Netlist)> {
    uarch::DESIGNS
        .iter()
        .map(|&(name, build)| (name, build().netlist))
        .collect()
}

/// Builds `nl` stepwise through `stops` and directly at the final stop,
/// then asserts variable-mapping identity and clause-stream prefix
/// stability.
fn assert_extension_stable(name: &str, nl: &Netlist, init: InitMode, stops: &[usize]) {
    let k = *stops.last().expect("at least one stop");
    let mut direct = Unrolling::new(nl, init);
    direct.gate().solver().set_clause_log(true);
    direct.extend_to(k);

    let mut step = Unrolling::new(nl, init);
    step.gate().solver().set_clause_log(true);
    let mut prefix_lens = Vec::new();
    for &s in stops {
        step.extend_to(s);
        prefix_lens.push(step.gate().solver_ref().logged_clauses().len());
    }
    assert_eq!(step.num_frames(), k, "{name}: wrong final frame count");
    assert_eq!(
        step.gate().num_vars(),
        direct.gate().num_vars(),
        "{name}: stepwise and direct builds allocated different variables"
    );
    for t in 0..k {
        for i in 0..nl.len() {
            let sig = SignalId(i as u32);
            assert_eq!(
                step.lits(t, sig),
                direct.lits(t, sig),
                "{name}: literal mapping of node {i} at frame {t} drifted"
            );
        }
    }
    let direct_log = direct.gate().solver_ref().logged_clauses().to_vec();
    let step_log = step.gate().solver_ref().logged_clauses().to_vec();
    assert_eq!(
        step_log, direct_log,
        "{name}: stepwise clause stream differs from the direct build"
    );
    // Each intermediate stop's CNF is a strict prefix of the final CNF:
    // extension only ever appends.
    for (&s, &len) in stops.iter().zip(prefix_lens.iter()) {
        assert_eq!(
            &step_log[..len],
            &direct_log[..len],
            "{name}: CNF at stop {s} is not a prefix of the direct build"
        );
    }
}

#[test]
fn in_tree_designs_extend_stably() {
    for (name, nl) in in_tree_netlists() {
        for init in [InitMode::Reset, InitMode::Free] {
            assert_extension_stable(name, &nl, init, &[2, 5, 8]);
        }
    }
}

#[test]
fn fuzz_generated_netlists_extend_stably() {
    let mut rng = Rng::new(0x5eed11);
    for case in 0..40 {
        let genome = sample_genome(&mut rng, &GenConfig::default());
        let d = build(&genome);
        assert_extension_stable(
            &format!("fuzz case {case}"),
            &d.netlist,
            InitMode::Reset,
            &[1, 3, 7],
        );
    }
}

/// A checker grown via `ensure_bound` (after already answering queries at
/// the shallow bound) must agree with a fresh checker built at the deep
/// bound — the verdict-level face of the same stability property.
#[test]
fn grown_checker_agrees_with_fresh_checker() {
    let mut rng = Rng::new(0x5eed22);
    let (shallow, deep) = (3usize, 7usize);
    let mut covered = 0u32;
    for _ in 0..60 {
        let genome = sample_genome(&mut rng, &GenConfig::default());
        let d = build(&genome);
        let cfg = |bound| McConfig {
            bound,
            bound_is_complete: true,
            ..Default::default()
        };
        let mut fresh = Checker::new(&d.netlist, cfg(deep));
        let want = fresh.check_cover(d.cover, &[]);

        let mut grown = Checker::new(&d.netlist, cfg(shallow));
        let at_shallow = grown.check_cover(d.cover, &[]);
        grown.ensure_bound(deep);
        let got = grown.check_cover(d.cover, &[]);
        assert_eq!(
            got.is_reachable(),
            want.is_reachable(),
            "grown checker flipped reachability vs fresh build at bound {deep}"
        );
        assert_eq!(got.is_unreachable(), want.is_unreachable());
        // Monotonicity sanity: growing the bound never loses a witness.
        if at_shallow.is_reachable() {
            assert!(got.is_reachable(), "witness lost by ensure_bound");
        }
        if want.is_reachable() {
            covered += 1;
        }
    }
    assert!(
        covered >= 5,
        "fuzz distribution degenerated: only {covered}/60 reachable covers"
    );
}

/// FNV-1a over a clause stream: each clause contributes its length, then
/// each literal's code, all as little-endian `u32`s.
fn clause_stream_digest(clauses: &[Vec<sat::Lit>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in clauses {
        eat(c.len() as u32);
        for l in c {
            eat(l.code() as u32);
        }
    }
    h
}

/// One golden line: `label init vars clauses digest` for a six-frame
/// unrolling, clause logging on from the first frame.
fn clause_stream_line(label: &str, mut u: Unrolling<'_>, init: InitMode) -> String {
    u.gate().solver().set_clause_log(true);
    u.extend_to(6);
    let vars = u.gate().num_vars();
    let log = u.gate().solver_ref().logged_clauses();
    format!(
        "{label} {init:?} vars={vars} clauses={} fnv={:016x}",
        log.len(),
        clause_stream_digest(log)
    )
}

/// The exact CNF the unroller emits for every in-tree design under both
/// init modes, plus one cone-of-influence-sliced MiniCache unrolling, is
/// pinned to `tests/golden/clause_streams.txt`. Variable numbering and
/// clause order feed solver search, so a change to elaboration or
/// bit-blasting that moves one clause moves every downstream counter;
/// set-up optimisations must keep this file byte-identical. Regenerate
/// only for an intentional encoding change:
///
/// ```text
/// SYNTHLC_BLESS=1 cargo test --test unroll_stability
/// ```
#[test]
fn clause_streams_match_goldens() {
    let mut lines = Vec::new();
    for (name, nl) in in_tree_netlists() {
        for init in [InitMode::Reset, InitMode::Free] {
            lines.push(clause_stream_line(name, Unrolling::new(&nl, init), init));
        }
    }
    let cache = uarch::cache::build_cache();
    let nl = &cache.netlist;
    let target = nl.find("resp_fire_reg").expect("MiniCache response strobe");
    let coi = std::sync::Arc::new(mc::CoiSlice::compute(nl, &[target]));
    assert!(
        coi.kept_nodes < coi.total_nodes,
        "the slice must drop logic"
    );
    let mut sliced = Unrolling::new(nl, InitMode::Reset);
    sliced.set_coi(Some(coi));
    lines.push(clause_stream_line(
        "minicache+coi(resp_fire_reg)",
        sliced,
        InitMode::Reset,
    ));
    let table = lines.join("\n") + "\n";

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/clause_streams.txt");
    if std::env::var_os("SYNTHLC_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &table).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run `SYNTHLC_BLESS=1 cargo test --test unroll_stability` to create)",
            path.display()
        )
    });
    assert_eq!(
        table, golden,
        "the unroller's clause stream drifted from tests/golden/clause_streams.txt"
    );
}
