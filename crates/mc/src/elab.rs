//! Memoized netlist elaboration shared across unrollings.
//!
//! Every [`Unrolling`](crate::Unrolling) needs the netlist validated and a
//! topological order of its combinational logic. Both are pure functions of
//! the netlist, yet historically they were recomputed by every
//! `Unrolling::new` — once per checker, once more per induction step, and
//! once per worker in a parallel fan-out over the same harness. [`Elab`]
//! computes them once; share it with `Arc<Elab>` and construct unrollings /
//! checkers through the `with_elab` constructors.

use netlist::analysis::topo_order;
use netlist::{Netlist, SignalId};
use std::cell::Cell;

thread_local! {
    static ELABORATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many [`Elab`]s the calling thread has built so far. Every solver
/// context starts with one, so a single-threaded run that leaves this
/// count unchanged built no context.
pub fn elaborations_on_this_thread() -> u64 {
    ELABORATIONS.with(Cell::get)
}

/// The elaboration of one netlist: validation performed, topological order
/// computed. Immutable and cheap to share across threads behind an `Arc`.
#[derive(Clone, Debug)]
pub struct Elab {
    len: usize,
    order: Vec<SignalId>,
}

impl Elab {
    /// Validates the netlist and computes its topological order.
    ///
    /// # Panics
    /// Panics if the netlist fails validation (same contract as
    /// `Unrolling::new`).
    pub fn new(nl: &Netlist) -> Self {
        nl.validate().expect("elaborating an invalid netlist");
        ELABORATIONS.with(|n| n.set(n.get() + 1));
        Self {
            len: nl.len(),
            order: topo_order(nl).expect("validated netlist is acyclic"),
        }
    }

    /// The topological evaluation order.
    pub fn order(&self) -> &[SignalId] {
        &self.order
    }

    /// Number of signals in the elaborated netlist; used to sanity-check
    /// that a cached elaboration is paired with the right netlist.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the elaborated netlist was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}
