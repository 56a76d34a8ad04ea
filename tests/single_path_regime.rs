//! The RTL2µSPEC regime (§I): on a stall-free single-path core, every
//! instruction has exactly one µPATH and there are no candidate
//! transponders — the predecessor tool's single-execution-path assumption
//! holds, and RTL2MµPATH degenerates to it gracefully.

use mupath::{synthesize_isa_with, ContextMode, EngineOptions, SynthConfig};
use uarch::build_tiny;

#[test]
fn tinycore_has_one_mupath_per_instruction() {
    let design = build_tiny();
    let cfg = SynthConfig {
        slots: vec![0, 1],
        context: ContextMode::Any,
        bound: 12,
        conflict_budget: Some(1_000_000),
        max_shapes: 16,
    };
    let result = synthesize_isa_with(
        &design,
        &design.isa.clone(),
        &cfg,
        &EngineOptions::sequential(),
    );
    for instr in &result.instrs {
        assert!(instr.complete, "{}: synthesis incomplete", instr.opcode);
        assert_eq!(
            instr.paths.len(),
            1,
            "{}: expected a single µPATH, got {:?}",
            instr.opcode,
            instr.paths.len()
        );
        assert!(
            instr.decisions.is_empty(),
            "{}: single-path instructions make no decisions",
            instr.opcode
        );
    }
    assert!(
        result.candidate_transponders().is_empty(),
        "no candidate transponders on TinyCore"
    );
}

#[test]
fn tinycore_mupath_is_if_ex_wb() {
    let design = build_tiny();
    let cfg = SynthConfig {
        slots: vec![0],
        context: ContextMode::Solo,
        bound: 10,
        conflict_budget: Some(1_000_000),
        max_shapes: 4,
    };
    let r = mupath::synthesize_instr(&design, isa::Opcode::Add, &cfg);
    assert_eq!(r.paths.len(), 1);
    let p = &r.concrete[0];
    assert_eq!(p.latency(), 3, "IF, EX, WB — one cycle each");
    let pls = r.paths[0]
        .pls
        .iter()
        .map(|&pl| {
            // PL ids follow the µFSM declaration order: IF, EX, WB.
            pl.0
        })
        .collect::<Vec<_>>();
    assert_eq!(pls, vec![0, 1, 2]);
}

#[test]
fn duv_pl_reachability_finds_all_tinycore_pls() {
    let design = build_tiny();
    let cfg = SynthConfig {
        slots: vec![0],
        context: ContextMode::Any,
        bound: 8,
        conflict_budget: Some(1_000_000),
        max_shapes: 4,
    };
    let report = mupath::duv_pl_reachability(&design, &cfg);
    assert_eq!(report.pls.len(), 3);
    assert!(
        report.reachable.iter().all(|&r| r),
        "IF/EX/WB all reachable"
    );
}
