//! SynthLC: synthesizing formally verified leakage signatures and leakage
//! contracts from RTL (the paper's third contribution, §IV and §V-C).
//!
//! The flow (Fig. 6, bottom half):
//!
//! 1. RTL2MµPATH (the `mupath` crate) finds every instruction's µPATHs;
//!    instructions with more than one are *candidate transponders*.
//! 2. The design is instrumented with cell-level IFT (the `ift` crate);
//!    for each candidate transponder decision, [`synthesize_leakage`] asks
//!    the model checker whether the decision can depend on a transmitter's
//!    operand under Assumptions 1/2a/2b/3 (Fig. 7) — intrinsic, dynamic
//!    older/younger, and static transmitter typings.
//! 3. Tagged decisions assemble into [`LeakageSignature`]s (§IV-D), from
//!    which the six leakage contracts of Table I derive
//!    ([`contracts::derive_contracts`]).
//!
//! The [`scsafe`] module provides the executable counterpart of
//! Definition V.1 (hardware side-channel safety) used to validate
//! synthesized leaks empirically.
//!
//! # Examples
//!
//! Classify channels on a report (here built by hand for brevity):
//!
//! ```
//! use synthlc::{LeakageSignature, TypedTransmitter, Operand, TxKind};
//! use std::collections::BTreeSet;
//!
//! let sig = LeakageSignature {
//!     transponder: isa::Opcode::Lw,
//!     src: "ldReq".into(),
//!     inputs: BTreeSet::from([TypedTransmitter {
//!         opcode: isa::Opcode::Sw,
//!         operand: Operand::Rs1,
//!         kind: TxKind::DynamicOlder,
//!     }]),
//!     outputs: vec![],
//!     has_primary: true,
//! };
//! assert!(synthlc::contracts::is_dynamic_channel(&sig));
//! assert!(!synthlc::contracts::is_static_channel(&sig));
//! ```

pub mod contracts;
mod harness;
pub mod journal;
pub mod scsafe;
mod signatures;

pub use harness::{build_leak_harness, LeakHarness, LeakHarnessConfig, Operand, Tracked, TxKind};
pub use journal::Journal;
pub use mupath::RobustOptions;
pub use signatures::{
    audit, synthesize_leakage, Audit, LeakConfig, LeakageReport, LeakageSignature, Tag,
    TypedTransmitter,
};
