//! Bridge between the textual netlist frontend and [`Design`]: any
//! in-tree design can be emitted as a `.nl` file, and any checked `.nl`
//! file with `annotations` + `harness` blocks becomes a full [`Design`]
//! that the synthesis and leakage pipelines accept ("bring your own
//! design").
//!
//! The `netlist` crate cannot see the `isa` crate, so its
//! [`HarnessData`] carries ISA mnemonics as strings; this module is where
//! they are resolved to [`isa::Opcode`]s (`E013` on unknown mnemonics).

use netlist::diag::{Diagnostic, Report};
use netlist::text::{self, CompileResult, HarnessData, LoweredModule, ModuleText};

use crate::{Design, TypeField};

/// Emits a design as canonical netlist text (a complete `.nl` module with
/// `annotations` and `harness` blocks).
pub fn design_to_text(design: &Design) -> String {
    text::emit_module(&ModuleText {
        name: &design.name,
        netlist: &design.netlist,
        annotations: Some(&design.annotations),
        harness: Some(&harness_data(design)),
    })
}

/// A design's harness block in netlist-crate terms: hook signals as ids,
/// opcodes as their mnemonics.
pub fn harness_data(design: &Design) -> HarnessData {
    HarnessData {
        fetch_instr_input: design.fetch_instr_input,
        fetch_valid_input: design.fetch_valid_input,
        fetch_fire: design.fetch_fire,
        issue_fire: design.issue_fire,
        issue_pc: design.issue_pc,
        issue_valid: design.issue_valid,
        rs_fields: design.rs_fields,
        pc: design.pc,
        isa: design
            .isa
            .iter()
            .map(|op| op.mnemonic().to_string())
            .collect(),
        type_field_hi: design.type_field.hi,
        type_field_lo: design.type_field.lo,
        type_values: design
            .type_values
            .iter()
            .map(|(op, v)| (op.mnemonic().to_string(), *v))
            .collect(),
        max_latency: design.max_latency,
        outputs: design.outputs.clone(),
    }
}

/// Converts a lowered module into a [`Design`]. Pushes `E013` diagnostics
/// (and returns `None`) when the module lacks the metadata blocks or
/// names an unknown ISA mnemonic.
pub fn design_from_module(module: &LoweredModule, report: &mut Report) -> Option<Design> {
    let Some(annotations) = module.annotations.clone() else {
        report.push(Diagnostic::error(
            "E013",
            "uarch",
            "module has no `annotations` block; cannot build a design",
        ));
        return None;
    };
    let Some(h) = module.harness.clone() else {
        report.push(Diagnostic::error(
            "E013",
            "uarch",
            "module has no `harness` block; cannot build a design",
        ));
        return None;
    };

    let mut ok = true;
    let mut resolve_op = |mn: &str| -> Option<isa::Opcode> {
        let found = isa::Opcode::ALL
            .iter()
            .copied()
            .find(|op| op.mnemonic() == mn);
        if found.is_none() {
            let known: Vec<&str> = isa::Opcode::ALL.iter().map(|op| op.mnemonic()).collect();
            report.push(
                Diagnostic::error("E013", "uarch", format!("unknown ISA mnemonic `{mn}`"))
                    .with_note(format!("known mnemonics: {}", known.join(" "))),
            );
            ok = false;
        }
        found
    };
    let isa: Vec<isa::Opcode> = h.isa.iter().filter_map(|mn| resolve_op(mn)).collect();
    let type_values: Vec<(isa::Opcode, u64)> = h
        .type_values
        .iter()
        .filter_map(|(mn, v)| resolve_op(mn).map(|op| (op, *v)))
        .collect();
    if !ok {
        return None;
    }

    Some(Design {
        name: module.name.clone(),
        netlist: module.netlist.clone(),
        annotations,
        fetch_instr_input: h.fetch_instr_input,
        fetch_valid_input: h.fetch_valid_input,
        fetch_fire: h.fetch_fire,
        issue_fire: h.issue_fire,
        issue_pc: h.issue_pc,
        issue_valid: h.issue_valid,
        rs_fields: h.rs_fields,
        pc: h.pc,
        isa,
        type_field: TypeField {
            hi: h.type_field_hi,
            lo: h.type_field_lo,
        },
        type_values,
        max_latency: h.max_latency,
        outputs: h.outputs,
    })
}

/// Checks netlist text the way every front end does (the CLI's and the
/// daemon's `check`, and [`parse_design`]): the frontend pipeline and
/// `L001`–`L009` lints ([`text::check`]), then, for an error-free module
/// with a `harness` block, its conversion into a [`Design`], which reports
/// `E013` on an unknown ISA mnemonic. The design is `Some` exactly when
/// that conversion ran and succeeded.
pub fn check(src: &str, file_name: &str) -> (Option<Design>, CompileResult) {
    let mut result = text::check(src, file_name);
    let design = match &result.module {
        Some(module) if module.harness.is_some() && !result.report.has_errors() => {
            design_from_module(module, &mut result.report)
        }
        _ => None,
    };
    (design, result)
}

/// Compiles netlist text all the way to a [`Design`]: [`check`], plus the
/// `E013` that an otherwise error-free module without `annotations` and
/// `harness` blocks gets. The design is `None` whenever the combined
/// report has errors.
pub fn parse_design(src: &str, file_name: &str) -> (Option<Design>, CompileResult) {
    let (design, mut result) = check(src, file_name);
    if let (None, Some(module)) = (&design, &result.module) {
        if !result.report.has_errors() {
            design_from_module(module, &mut result.report);
        }
    }
    (design, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_core, build_tiny, CoreConfig};

    #[test]
    fn designs_round_trip_through_text() {
        for design in [
            build_core(&CoreConfig::default()),
            build_tiny(),
            crate::cache::build_cache(),
        ] {
            let nl_text = design_to_text(&design);
            let (parsed, result) = parse_design(&nl_text, "design.nl");
            assert!(
                !result.report.has_errors(),
                "{}: {}",
                design.name,
                result.report.render_in(&result.source)
            );
            let parsed = parsed.expect("design");
            design
                .netlist
                .same_structure(&parsed.netlist)
                .unwrap_or_else(|e| panic!("{}: {e}", design.name));
            assert_eq!(design.isa, parsed.isa);
            assert_eq!(design.type_field, parsed.type_field);
            assert_eq!(design.max_latency, parsed.max_latency);
            assert_eq!(design.outputs, parsed.outputs);
            // Full byte-identical fixpoint.
            assert_eq!(nl_text, design_to_text(&parsed), "{}", design.name);
        }
    }

    #[test]
    fn unknown_mnemonic_is_e013() {
        let design = build_tiny();
        let text = design_to_text(&design).replace("isa nop", "isa frobnicate nop");
        let (parsed, result) = parse_design(&text, "bad.nl");
        assert!(parsed.is_none());
        assert!(result
            .report
            .diagnostics
            .iter()
            .any(|d| d.code == "E013" && d.message.contains("frobnicate")));
    }
}
