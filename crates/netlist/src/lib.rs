//! Word-level synchronous netlist IR: the RTL substrate of the RTL2MµPATH +
//! SynthLC reproduction.
//!
//! This crate plays the role that SystemVerilog sources plus the
//! Verific/Yosys frontends play in the paper: designs under verification are
//! expressed as flat netlists of word-level cells and registers, constructed
//! either through the [`Builder`] DSL or parsed from the textual format in
//! [`text`]. Downstream crates consume the IR:
//!
//! * `sim` — cycle-accurate interpretation,
//! * `mc` — bit-blasting and bounded/inductive model checking,
//! * `ift` — cell-level information-flow-tracking instrumentation,
//! * `mupath`/`synthlc` — the paper's synthesis procedures, driven by the
//!   [`annotate`] metadata (µFSMs, IFR, commit, operand registers).
//!
//! # Examples
//!
//! ```
//! use netlist::{Builder, analysis};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = Builder::new();
//! let x = b.input("x", 8);
//! let acc = b.reg("acc", 8, 0);
//! let sum = b.add(acc, x);
//! b.set_next(acc, sum)?;
//! let nl = b.finish()?;
//! assert_eq!(analysis::stats(&nl).flop_bits, 8);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod annotate;
mod build;
pub mod cone;
pub mod diag;
mod ir;
pub mod lint;
pub mod text;

pub use analysis::CycleError;
pub use build::{Builder, MemArray, Wire};
pub use cone::Fnv;
pub use diag::{Diagnostic, Report, Severity, SourceFile, Span};
pub use ir::{mask, BinOp, Fanin, Netlist, NetlistError, Node, Op, SignalId, UnOp};
