//! Bounded/inductive model checking over the `netlist` IR: the reproduction's
//! substitute for the commercial property verifier in the paper's toolflow.
//!
//! The programming model mirrors the paper's SVA usage (§V-B): every query is
//! a **cover** property over a 1-bit signal, optionally constrained by
//! **assume** signals that must hold at every cycle, evaluated from the
//! design's reset state. Outcomes are [`Outcome::Reachable`] (with a witness
//! [`Trace`]), [`Outcome::Unreachable`] (complete-bound or k-induction
//! proof), or [`Outcome::Undetermined`] (budget exhausted) — the same
//! trichotomy JasperGold reports to RTL2MµPATH.
//!
//! # Examples
//!
//! ```
//! use mc::{Checker, McConfig};
//! use netlist::Builder;
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = Builder::new();
//! let c = b.reg("c", 3, 0);
//! let one = b.constant(1, 3);
//! let n = b.add(c, one);
//! b.set_next(c, n)?;
//! let at6 = b.eq_const(c, 6);
//! b.name(at6, "at6");
//! let nl = b.finish()?;
//!
//! let mut checker = Checker::new(&nl, McConfig { bound: 8, ..Default::default() });
//! let outcome = checker.check_cover(nl.find("at6").unwrap(), &[]);
//! assert!(outcome.is_reachable());
//! # Ok(())
//! # }
//! ```

mod cnf;
pub mod coi;
mod elab;
mod engine;
pub mod par;
pub mod supervise;
mod trace;
mod unroll;

pub use cnf::GateBuilder;
pub use coi::{CoiSlice, ConeFingerprint};
pub use elab::{elaborations_on_this_thread, Elab};
pub use engine::{CheckStats, Checker, McConfig, Outcome, UndeterminedReason};
pub use par::{default_threads, run_chains, run_jobs, Retries};
pub use sat::{CancelReason, CancelToken};
pub use supervise::{FaultKind, FaultPlan, JobFailure, JobStore, ServeFault};
pub use trace::Trace;
pub use unroll::{InitMode, Unrolling};
