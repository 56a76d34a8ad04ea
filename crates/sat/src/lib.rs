//! A CDCL SAT solver, standing in for the commercial property verifier
//! (JasperGold) in the paper's toolflow.
//!
//! Features: two-literal watching with a dedicated binary-clause fast
//! path, first-UIP clause learning, VSIDS with phase saving, adaptive
//! (Glucose) restarts, an LBD-tiered learnt-clause database with in-place
//! deletion, root-level inprocessing between queries, incremental solving
//! under assumptions (one unrolled circuit, thousands of per-property
//! queries), and conflict budgets that surface as the paper's
//! *undetermined* property outcomes. Every front end runs the same search:
//! the solver has no heuristic switches.
//!
//! # Examples
//!
//! ```
//! use sat::{Lit, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a | b) & (!a | b)  =>  b
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

mod budget;
mod cancel;
pub mod dimacs;
mod heap;
mod solver;
mod types;

pub use budget::{BudgetPool, ClientBudgets};
pub use cancel::{CancelReason, CancelToken};
pub use solver::{Solver, SolverStats, StopCause};
pub use types::{Lit, SolveResult, Var};
