//! Integration tests for the static-analysis layer: randomized
//! cone-of-influence verdict preservation, golden lint checks for every
//! in-tree design, and reduction-equivalence of the SynthLC pipeline on
//! the cache DUV (COI + static taint prune on vs off).

use mc::{Checker, CoiSlice, Elab, McConfig};
use netlist::{Builder, Netlist, Wire};
use std::sync::Arc;

/// Builds a random 8-bit-datapath netlist: a few inputs, a few registers
/// with random next-state logic drawn from a shared expression pool, and
/// `n_props` named 1-bit property signals `prop<i>` comparing random
/// wires against random constants.
fn random_netlist(rng: &mut prng::Rng, n_props: usize) -> (Netlist, Vec<String>) {
    let mut b = Builder::new();
    let mut wires: Vec<Wire> = Vec::new();
    for i in 0..4 {
        wires.push(b.input(&format!("in{i}"), 8));
    }
    let mut regs: Vec<Wire> = Vec::new();
    for i in 0..6 {
        let r = b.reg(&format!("r{i}"), 8, rng.range(0, 16));
        regs.push(r);
        wires.push(r);
    }
    for _ in 0..30 {
        let a = wires[rng.range_usize(0, wires.len())];
        let c = wires[rng.range_usize(0, wires.len())];
        let w = match rng.range(0, 6) {
            0 => b.add(a, c),
            1 => b.xor(a, c),
            2 => b.and(a, c),
            3 => b.sub(a, c),
            4 => {
                let sel = b.bit(a, 0);
                b.mux(sel, c, a)
            }
            _ => b.or(a, c),
        };
        wires.push(w);
    }
    for &r in &regs {
        let nx = wires[rng.range_usize(0, wires.len())];
        b.set_next(r, nx).unwrap();
    }
    let mut props = Vec::new();
    for i in 0..n_props {
        let w = wires[rng.range_usize(0, wires.len())];
        let p = b.eq_const(w, rng.range(0, 40));
        let name = format!("prop{i}");
        b.name(p, &name);
        props.push(name);
    }
    (b.finish().unwrap(), props)
}

fn outcome_kind(o: &mc::Outcome) -> &'static str {
    if o.is_reachable() {
        "reachable"
    } else if o.is_unreachable() {
        "unreachable"
    } else {
        "undetermined"
    }
}

/// Checks every property of a random netlist twice — once on a plain
/// checker, once on a COI-sliced one — and demands identical verdicts.
fn assert_coi_preserves_verdicts(rng: &mut prng::Rng, cfg: McConfig) -> bool {
    let (nl, props) = random_netlist(rng, 3);
    let elab = Arc::new(Elab::new(&nl));
    let mut any_proper_slice = false;
    for name in &props {
        let p = nl.find(name).unwrap();
        let coi = Arc::new(CoiSlice::compute(&nl, &[p]));
        any_proper_slice |= coi.kept_nodes < coi.total_nodes;
        let mut plain = Checker::with_elab(&nl, cfg, &[], Arc::clone(&elab));
        let mut sliced = Checker::with_coi(&nl, cfg, &[], Arc::clone(&elab), Some(coi));
        let a = plain.check_cover(p, &[]);
        let b = sliced.check_cover(p, &[]);
        assert_eq!(
            outcome_kind(&a),
            outcome_kind(&b),
            "COI slicing changed the verdict of {name}"
        );
    }
    any_proper_slice
}

/// Randomized BMC equivalence: COI-sliced bounded model checking returns
/// the same verdict as the unsliced checker on every property.
#[test]
fn coi_preserves_bmc_verdicts_on_random_netlists() {
    let cfg = McConfig {
        bound: 10,
        ..Default::default()
    };
    let mut proper_slices = 0u32;
    prng::for_each_case("coi_bmc_verdicts", 0x05ee_dc01, 12, |rng| {
        if assert_coi_preserves_verdicts(rng, cfg) {
            proper_slices += 1;
        }
    });
    // Non-vacuity: the generator must exercise real slicing, not just
    // whole-netlist cones.
    assert!(proper_slices > 0, "no case produced a strict slice");
}

/// Randomized k-induction equivalence: with an incomplete bound and
/// induction enabled, sliced and unsliced checkers still agree (including
/// on inductive `Unreachable` proofs).
#[test]
fn coi_preserves_kinduction_verdicts_on_random_netlists() {
    let cfg = McConfig {
        bound: 5,
        bound_is_complete: false,
        try_induction: true,
        induction_depth: 4,
        ..Default::default()
    };
    prng::for_each_case("coi_kinduction_verdicts", 0x05ee_dc02, 8, |rng| {
        assert_coi_preserves_verdicts(rng, cfg);
    });
}

/// Golden lint check: every in-tree design passes the full lint suite with
/// zero errors and zero warnings (the bar `scripts/ci.sh` enforces via
/// `synthlc-cli lint all --deny-warnings`).
#[test]
fn all_designs_lint_clean() {
    for (_, build) in uarch::DESIGNS {
        let design = &build();
        let report = uarch::lint_design(design);
        assert!(
            report.is_clean(),
            "{} has lint findings:\n{}",
            design.name,
            report.render()
        );
    }
}

/// Reduction equivalence on the cache DUV: running SynthLC with COI and
/// the static taint prune enabled yields a byte-identical report to the
/// unreduced run, and the prune discharges at least one pair statically.
#[test]
fn cache_leakage_reductions_preserve_report() {
    use mupath::{ContextMode, SynthConfig};
    use synthlc::{synthesize_leakage, LeakConfig, LeakageReport, TxKind};

    fn fingerprint(r: &LeakageReport) -> String {
        let sigs: Vec<String> = r.signatures.iter().map(|s| s.render()).collect();
        format!(
            "sigs={sigs:?} cand={:?} transponders={:?} transmitters={:?} \
             mupath=({},{},{},{}) ift=({},{},{},{})",
            r.candidate_transponders,
            r.transponders,
            r.transmitters,
            r.mupath_stats.properties,
            r.mupath_stats.reachable,
            r.mupath_stats.unreachable,
            r.mupath_stats.undetermined,
            r.ift_stats.properties,
            r.ift_stats.reachable,
            r.ift_stats.unreachable,
            r.ift_stats.undetermined,
        )
    }

    let design = uarch::cache::build_cache();
    let base = LeakConfig {
        mupath: SynthConfig {
            slots: vec![2],
            context: ContextMode::Any,
            bound: 24,
            conflict_budget: Some(2_000_000),
            max_shapes: 48,
        },
        transmitters: vec![isa::Opcode::Lw],
        kinds: vec![TxKind::Static],
        bound: 24,
        conflict_budget: Some(2_000_000),
        threads: 1,
        budget_pool: None,
        slot_base: 1,
        max_sources: Some(1),
        coi: false,
        static_prune: false,
        robust: Default::default(),
    };
    let plain = synthesize_leakage(&design, &[isa::Opcode::Lw], &base);
    let reduced_cfg = LeakConfig {
        coi: true,
        static_prune: true,
        ..base
    };
    let reduced = synthesize_leakage(&design, &[isa::Opcode::Lw], &reduced_cfg);

    assert_eq!(
        fingerprint(&plain),
        fingerprint(&reduced),
        "reductions changed the leakage report"
    );
    assert_eq!(plain.ift_stats.discharged_static, 0);
    assert!(
        reduced.ift_stats.coi_bits_after < reduced.ift_stats.coi_bits_before,
        "COI produced no reduction on the cache DUV"
    );
}
