//! Processor designs under verification: the reproduction's analogue of the
//! paper's CVA6 SystemVerilog inputs (§VI).
//!
//! * [`build_core`] — MiniCva6, a speculative scoreboard pipeline with the
//!   paper's leakage mechanisms (variable-latency divide, optional zero-skip
//!   multiply and operand packing, store-buffer interactions, branch
//!   squash). Variants via [`CoreConfig`].
//! * [`build_tiny`] — TinyCore, a stall-free 3-stage pipeline with exactly
//!   one µPATH per instruction (the RTL2µSPEC regime).
//! * [`cache::build_cache`] — MiniCache, a standalone L1 data-cache DUV for
//!   the modular-verification experiment (§VII-A2).
//!
//! Every design comes with its [`netlist::annotate::Annotations`] (µFSMs,
//! IFR, commit, operand registers — the Table II metadata).
//!
//! [`DESIGNS`] is the registry of built-in designs the front ends list.
//! [`DesignSource::resolve`] decides what a `<design>` argument names — a
//! registry name or a `.nl` file, read but not compiled — and
//! [`DesignSource::load`] builds or compiles it, for the CLI and the
//! daemon alike ([`load_design`] does both).

pub mod cache;
mod config;
mod core;
pub mod frontend;
mod tiny;

pub use crate::core::build_core;
pub use config::{CoreConfig, DivPolicy, MulPolicy};
pub use tiny::build_tiny;

use netlist::annotate::Annotations;
use netlist::text::CompileResult;
use netlist::{Netlist, SignalId};
use std::io::Read;

/// A built-in design: its registry name and its builder.
pub type Builtin = (&'static str, fn() -> Design);

/// The built-in designs, in listing order.
pub const DESIGNS: &[Builtin] = &[
    ("minicva6", || build_core(&CoreConfig::default())),
    ("minicva6-mul", || build_core(&CoreConfig::cva6_mul())),
    ("minicva6-op", || build_core(&CoreConfig::cva6_op())),
    ("hardened", || build_core(&CoreConfig::hardened())),
    ("tinycore", build_tiny),
    ("minicache", cache::build_cache),
];

/// Why [`load_design`] produced no design.
#[derive(Debug)]
pub struct LoadError {
    /// One line: an unknown name, an unreadable or oversized file, or the
    /// file's diagnostic summary.
    pub message: String,
    /// The rendered diagnostics of a file that compiled with errors;
    /// empty otherwise.
    pub diagnostics: String,
}

/// A resolved `<design>` argument: which design it names, with a file's
/// text already read but not yet compiled.
#[derive(Debug)]
pub enum DesignSource {
    /// The [`DESIGNS`] entry at this index.
    Builtin(usize),
    /// A `.nl` netlist file: its path as given, and its text.
    File {
        /// The path, as the caller spelled it.
        path: String,
        /// The file's contents.
        text: String,
    },
}

impl DesignSource {
    /// Resolves a `<design>` argument: a [`DESIGNS`] name, or else a path
    /// to a `.nl` netlist file ("bring your own design"), which is read
    /// here. A registry name wins over a same-named file, so a built-in
    /// means the same design in every working directory. With
    /// `max_bytes`, a file longer than that is refused unread past the
    /// cap.
    pub fn resolve(spec: &str, max_bytes: Option<usize>) -> Result<DesignSource, LoadError> {
        let fail = |message: String| LoadError {
            message,
            diagnostics: String::new(),
        };
        if let Some(ix) = DESIGNS.iter().position(|(name, _)| *name == spec) {
            return Ok(DesignSource::Builtin(ix));
        }
        if !spec.ends_with(".nl") && !std::path::Path::new(spec).is_file() {
            return Err(fail(format!(
                "unknown design `{spec}` (not a built-in, not a file)"
            )));
        }
        let cap = max_bytes.map_or(u64::MAX, |m| (m as u64).saturating_add(1));
        let mut bytes = Vec::new();
        std::fs::File::open(spec)
            .and_then(|f| f.take(cap).read_to_end(&mut bytes))
            .map_err(|e| fail(format!("{spec}: {e}")))?;
        if let Some(max) = max_bytes.filter(|&m| bytes.len() > m) {
            return Err(fail(format!("{spec}: larger than the {max}-byte size cap")));
        }
        let text = String::from_utf8(bytes).map_err(|e| fail(format!("{spec}: {e}")))?;
        Ok(DesignSource::File {
            path: spec.to_owned(),
            text,
        })
    }

    /// Builds a built-in, or runs a file through the full frontend
    /// ([`frontend::parse_design`]). A file's compile result rides along
    /// with its design so callers can gate on its warnings.
    pub fn load(self) -> Result<(Design, Option<CompileResult>), LoadError> {
        let (path, text) = match self {
            DesignSource::Builtin(ix) => return Ok(((DESIGNS[ix].1)(), None)),
            DesignSource::File { path, text } => (path, text),
        };
        match frontend::parse_design(&text, &path) {
            (Some(design), result) => Ok((design, Some(result))),
            (None, result) => Err(LoadError {
                message: format!("{path}: {}", result.report.summary()),
                diagnostics: result.report.render_in(&result.source),
            }),
        }
    }
}

/// Resolves and loads a `<design>` argument ([`DesignSource::resolve`],
/// uncapped, then [`DesignSource::load`]).
pub fn load_design(spec: &str) -> Result<(Design, Option<CompileResult>), LoadError> {
    DesignSource::resolve(spec, None)?.load()
}

/// Where the instruction-type (opcode) field lives within the value driven
/// on [`Design::fetch_instr_input`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TypeField {
    /// High bit (inclusive).
    pub hi: u8,
    /// Low bit (inclusive).
    pub lo: u8,
}

/// A design under verification: netlist + metadata + harness hook signals.
#[derive(Clone, Debug)]
pub struct Design {
    /// Human-readable design name.
    pub name: String,
    /// The elaborated netlist.
    pub netlist: Netlist,
    /// The §V-A metadata bundle.
    pub annotations: Annotations,
    /// Primary input carrying instruction encodings (the frontend is
    /// black-boxed, as in §VI: the checker drives fetched instructions).
    pub fetch_instr_input: SignalId,
    /// Primary input: instruction valid this cycle.
    pub fetch_valid_input: SignalId,
    /// 1-bit strobe: an instruction is latched into the IFR this cycle.
    pub fetch_fire: SignalId,
    /// 1-bit strobe: the decode stage issues this cycle.
    pub issue_fire: SignalId,
    /// PC register of the instruction at the issue stage (valid when
    /// `issue_fire` is high).
    pub issue_pc: SignalId,
    /// 1-bit: the issue/decode stage holds a valid instruction.
    pub issue_valid: SignalId,
    /// The decoded source-register index fields at the issue/decode stage
    /// (`rs1`, `rs2`), when the design reads an architectural register
    /// file. `None` for request-driven DUVs like the cache.
    pub rs_fields: Option<(SignalId, SignalId)>,
    /// The fetch program counter register.
    pub pc: SignalId,
    /// Instructions implemented by the design.
    pub isa: Vec<isa::Opcode>,
    /// Location of the type field within `fetch_instr_input`.
    pub type_field: TypeField,
    /// Per-opcode type-field values when they differ from
    /// [`isa::Opcode::bits`] (e.g. the cache DUV encodes LW/SW as a 1-bit
    /// read/write flag). Empty = identity encoding.
    pub type_values: Vec<(isa::Opcode, u64)>,
    /// Conservative bound on one instruction's fetch-to-retire latency,
    /// used to size complete BMC bounds.
    pub max_latency: usize,
    /// Externally observable interface signals beyond the harness hooks
    /// (e.g. the cache's response port). Logic feeding only these is live,
    /// not dead — the lint suite roots its dead-logic analysis here.
    pub outputs: Vec<SignalId>,
}

impl Design {
    /// The implemented instruction with this mnemonic (any case).
    pub fn opcode(&self, mnemonic: &str) -> Option<isa::Opcode> {
        self.isa
            .iter()
            .copied()
            .find(|o| o.mnemonic().eq_ignore_ascii_case(mnemonic))
    }

    /// The type-field value that selects `op` on this design's request
    /// input.
    pub fn type_encoding(&self, op: isa::Opcode) -> u64 {
        self.type_values
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, v)| *v)
            .unwrap_or(op.bits() as u64)
    }
}

/// Runs the full lint suite on a design, rooted at its annotation bundle
/// and harness hook signals (so logic feeding only the verification hooks
/// is not reported dead), with the fetch/issue strobes checked for
/// structural constancy.
pub fn lint_design(design: &Design) -> netlist::lint::LintReport {
    let harness = frontend::harness_data(design);
    let ann = Some(&design.annotations);
    let cx = netlist::lint::LintContext::with_harness(&design.netlist, ann, Some(&harness));
    netlist::lint::run(&cx)
}
