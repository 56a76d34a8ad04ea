//! Unit tests for the textual frontend pipeline.

use super::*;
use crate::ir::Op;

const COUNTER: &str = "\
module counter {
  input en : w1
  reg count : w8 = 0
  const one : w8 = 1
  wire bumped = add count one
  wire next_count = mux en bumped count
  next count <- next_count
}
";

fn codes(r: &Report) -> Vec<&'static str> {
    r.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn compiles_a_counter() {
    let out = compile(COUNTER, "counter.nl");
    assert!(
        out.report.is_clean(),
        "{}",
        out.report.render_in(&out.source)
    );
    let m = out.module.expect("module");
    assert_eq!(m.name, "counter");
    assert_eq!(m.netlist.len(), 5);
    let count = m.netlist.find("count").unwrap();
    assert_eq!(m.netlist.width(count), 8);
    assert_eq!(m.netlist.reg_init(count), 0);
    // Spans point back at the declarations.
    let span = m.span_of(count).unwrap();
    assert_eq!(&COUNTER[span.lo as usize..span.hi as usize], "count");
}

#[test]
fn round_trips_byte_identically() {
    let out = compile(COUNTER, "counter.nl");
    let m = out.module.unwrap();
    let text = emit_module(&ModuleText {
        name: &m.name,
        netlist: &m.netlist,
        annotations: None,
        harness: None,
    });
    let again = compile(&text, "counter.nl");
    assert!(again.report.is_clean(), "{}", again.report.render());
    let m2 = again.module.unwrap();
    m.netlist.same_structure(&m2.netlist).unwrap();
    let text2 = emit_module(&ModuleText {
        name: &m2.name,
        netlist: &m2.netlist,
        annotations: None,
        harness: None,
    });
    assert_eq!(text, text2);
}

#[test]
fn anonymous_names_survive_round_trip() {
    let src = "\
module t {
  input a : w4
  wire _n1 = not a
  wire y = not _n1
}
";
    let out = compile(src, "t.nl");
    assert!(out.report.is_clean(), "{}", out.report.render());
    let m = out.module.unwrap();
    // `_n1` is the reserved anonymous spelling for node 1: no IR name.
    assert!(m.netlist.find("_n1").is_none());
    assert_eq!(m.netlist.name(crate::ir::SignalId(1)), None);
    assert!(m.netlist.find("y").is_some());
}

#[test]
fn misplaced_anonymous_name_warns_w001() {
    let src = "\
module t {
  input a : w4
  wire _n7 = not a
}
";
    let out = compile(src, "t.nl");
    assert_eq!(codes(&out.report), vec!["W001"]);
    assert!(out.module.is_some(), "W001 is a warning, not an error");
}

#[test]
fn duplicate_undefined_and_use_before_declare() {
    let src = "\
module t {
  input a : w4
  input a : w4
  wire x = add a zz
  wire y = not z2
  wire z2 = not a
}
";
    let out = compile(src, "t.nl");
    let c = codes(&out.report);
    assert!(c.contains(&"E003"), "{c:?}");
    assert!(c.contains(&"E004"), "{c:?}");
    assert!(c.contains(&"E005"), "{c:?}");
    assert!(out.module.is_none());
}

#[test]
fn undefined_name_suggests_a_neighbour() {
    let src = "\
module t {
  input count : w4
  wire y = not cout
}
";
    let out = compile(src, "t.nl");
    let d = out.report.errors().next().unwrap();
    assert_eq!(d.code, "E004");
    assert!(
        d.notes.iter().any(|n| n.contains("`count`")),
        "{:?}",
        d.notes
    );
}

#[test]
fn width_errors_have_stable_codes() {
    let src = "\
module t {
  input a : w4
  input b : w8
  wire x = add a b
  wire s = slice a 9 0
  const c : w4 = 300
  reg r : w99 = 0
}
";
    let out = compile(src, "t.nl");
    let c = codes(&out.report);
    assert!(c.contains(&"E007"), "{c:?}");
    assert!(c.contains(&"E008"), "{c:?}");
    assert!(c.contains(&"E009"), "{c:?}");
    assert!(c.contains(&"E006"), "{c:?}");
}

#[test]
fn mem_read_write_sugar_lowers_to_mux_chains() {
    let src = "\
module t {
  input we : w1
  input addr : w2
  input data : w8
  mem m[4] : w8
  wire rd = read m addr
  write m we addr data
}
";
    let out = compile(src, "t.nl");
    assert!(
        out.report.is_clean(),
        "{}",
        out.report.render_in(&out.source)
    );
    let m = out.module.unwrap();
    m.netlist.validate().unwrap();
    // Four words, each a register with a mux-selected next.
    for i in 0..4 {
        let w = m.netlist.find(&format!("m[{i}]")).unwrap();
        assert!(m.netlist.node(w).op.is_reg());
        assert!(matches!(
            m.netlist.node(m.netlist.reg_next(w)).op,
            Op::Mux { .. }
        ));
    }
    let rd = m.netlist.find("rd").unwrap();
    assert_eq!(m.netlist.width(rd), 8);
}

#[test]
fn mem_port_mismatches_are_e010() {
    let src = "\
module t {
  input we : w1
  input addr : w1
  input data : w4
  mem m[4] : w8
  wire rd = read m addr
  write m we addr data
}
";
    let out = compile(src, "t.nl");
    let c = codes(&out.report);
    // Narrow address (twice: read + write) and wrong data width.
    assert!(c.iter().filter(|&&x| x == "E010").count() >= 3, "{c:?}");
}

#[test]
fn next_errors_are_e011() {
    let src = "\
module t {
  input a : w4
  reg r : w4 = 0
  reg s : w4 = 0
  wire w = not a
  next r <- w
  next r <- a
  next w <- a
}
";
    let out = compile(src, "t.nl");
    let c = codes(&out.report);
    // duplicate next, next on a wire, and `s` never connected.
    assert!(c.iter().filter(|&&x| x == "E011").count() >= 3, "{c:?}");
}

#[test]
fn parse_errors_recover_per_line() {
    let src = "\
module t {
  input a w4
  input b : w4
  wire y = frobnicate a b
  wire z = not b
}
";
    let out = compile(src, "t.nl");
    assert!(out.report.has_errors());
    // Both bad lines reported; the good lines still parsed.
    let c = codes(&out.report);
    assert!(c.iter().filter(|&&x| x == "E002").count() >= 2, "{c:?}");
}

#[test]
fn check_runs_the_lint_suite() {
    // `orphan` is undriven-by-roots: stand-alone lint still flags unread
    // inputs (L-codes join the same report).
    let src = "\
module t {
  input used : w1
  input orphan : w8
  reg r : w1 = 0
  next r <- used
}
";
    let out = check(src, "t.nl");
    assert!(out.module.is_some());
    assert!(
        out.report
            .diagnostics
            .iter()
            .any(|d| d.code.starts_with('L')),
        "{}",
        out.report.render()
    );
}

#[test]
fn full_module_with_metadata_round_trips() {
    let src = "\
module tiny {
  input instr : w16
  input fv_in : w1
  reg pc : w4 = 0
  reg ifr : w16 = 0
  reg committed : w1 = 0
  const one : w4 = 1
  wire ff = and fv_in fv_in
  wire pc_next = add pc one
  wire rs1 = slice instr 10 8
  wire rs2 = slice instr 7 5
  next pc <- pc_next
  next ifr <- instr
  next committed <- ff
  annotations {
    ifr ifr
    fetch_valid committed
    fetch_pc pc
    commit committed
    commit_pc pc
    ufsm fetch {
      pcr pc
      vars committed
      idle (0)
      state busy = (1)
    }
  }
  harness {
    fetch_instr_input instr
    fetch_valid_input fv_in
    fetch_fire ff
    issue_fire ff
    issue_pc pc
    issue_valid committed
    rs_fields rs1 rs2
    pc pc
    isa nop add sub
    type_field 15 11
    max_latency 4
    outputs pc_next
  }
}
";
    let out = check(src, "tiny.nl");
    assert!(
        !out.report.has_errors(),
        "{}",
        out.report.render_in(&out.source)
    );
    let m = out.module.unwrap();
    let ann = m.annotations.as_ref().unwrap();
    assert_eq!(ann.ufsms.len(), 1);
    assert_eq!(ann.ufsms[0].idle, vec![crate::annotate::FsmState(vec![0])]);
    let h = m.harness.as_ref().unwrap();
    assert_eq!(h.isa, vec!["nop", "add", "sub"]);
    assert_eq!((h.type_field_hi, h.type_field_lo), (15, 11));

    let text = emit_module(&ModuleText {
        name: &m.name,
        netlist: &m.netlist,
        annotations: m.annotations.as_ref(),
        harness: m.harness.as_ref(),
    });
    let again = compile(&text, "tiny.nl");
    assert!(!again.report.has_errors(), "{}", again.report.render());
    let m2 = again.module.unwrap();
    m.netlist.same_structure(&m2.netlist).unwrap();
    let text2 = emit_module(&ModuleText {
        name: &m2.name,
        netlist: &m2.netlist,
        annotations: m2.annotations.as_ref(),
        harness: m2.harness.as_ref(),
    });
    assert_eq!(text, text2);
}

#[test]
fn missing_required_metadata_fields_are_reported() {
    let src = "\
module t {
  input a : w1
  reg r : w1 = 0
  next r <- a
  annotations {
    ifr r
  }
  harness {
    pc r
  }
}
";
    let out = compile(src, "t.nl");
    let c = codes(&out.report);
    assert!(c.iter().filter(|&&x| x == "E012").count() >= 4, "{c:?}");
    assert!(c.iter().filter(|&&x| x == "E013").count() >= 5, "{c:?}");
}

#[test]
fn undefined_name_suggestion_is_deterministic() {
    // Three declarations one edit from `ad`: the note names the earliest,
    // whatever order the declaration table iterates in.
    let src = "\
module t {
  input ae : w1
  input ab : w1
  input ac : w1
  wire y = not ad
}
";
    let renders: std::collections::BTreeSet<String> = (0..32)
        .map(|_| {
            let out = compile(src, "t.nl");
            out.report.render_in(&out.source)
        })
        .collect();
    assert_eq!(renders.len(), 1, "{renders:#?}");
    let only = renders.into_iter().next().unwrap();
    assert!(only.contains("did you mean `ae`?"), "{only}");
}

#[test]
fn every_operator_mnemonic_parses() {
    use crate::ir::{BinOp, UnOp};
    let mut src = String::from("module t {\n  input a : w4\n");
    for op in UnOp::ALL {
        src += &format!("  wire u_{op} = {op} a\n");
    }
    for op in BinOp::ALL {
        src += &format!("  wire b_{op} = {op} a a\n");
    }
    src += "}\n";
    let out = compile(&src, "t.nl");
    assert!(out.report.is_clean(), "{}", out.report.render());
    assert_eq!(out.module.unwrap().netlist.len(), 1 + 5 + 12);
}
