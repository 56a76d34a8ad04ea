//! Witness traces extracted from SAT models, replayable on the simulator.

use crate::unroll::Unrolling;
use netlist::SignalId;
use std::collections::HashMap;
use std::sync::Arc;

/// A concrete multi-cycle execution witnessing a reachable cover.
///
/// Stores the value of *every* signal at every frame (the designs here are
/// small, and downstream analyses — µPATH extraction in particular — read
/// many signals per frame), plus the primary-input script needed to replay
/// the trace on `sim::Simulator`. Clones share the recorded values, so the
/// covers that one model fires all hold the same witness.
#[derive(Clone, Debug)]
pub struct Trace {
    /// `values[t][sig.index()]` = value of the signal at cycle `t`.
    values: Arc<Vec<Vec<u64>>>,
    /// Input assignments per cycle.
    inputs: Arc<Vec<HashMap<SignalId, u64>>>,
}

impl Trace {
    /// Extracts a trace for `frames` cycles from the unrolling's current SAT
    /// model.
    pub(crate) fn from_model(unroll: &Unrolling<'_>, frames: usize) -> Self {
        let nl = unroll.netlist();
        let input_ids = nl.inputs();
        let mut values = Vec::with_capacity(frames);
        let mut inputs = Vec::with_capacity(frames);
        for t in 0..frames {
            let row: Vec<u64> = (0..nl.len())
                .map(|i| unroll.model_value(t, SignalId(i as u32)))
                .collect();
            let ins = input_ids.iter().map(|&i| (i, row[i.index()])).collect();
            values.push(row);
            inputs.push(ins);
        }
        Self {
            values: Arc::new(values),
            inputs: Arc::new(inputs),
        }
    }

    /// Number of cycles in the trace.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `sig` at cycle `t`.
    ///
    /// # Panics
    /// Panics if `t` or the signal index is out of range.
    pub fn value(&self, t: usize, sig: SignalId) -> u64 {
        self.values[t][sig.index()]
    }

    /// The per-cycle values of one signal.
    pub fn column(&self, sig: SignalId) -> Vec<u64> {
        self.values.iter().map(|row| row[sig.index()]).collect()
    }

    /// The primary-input script, suitable for `sim::replay`.
    pub fn input_script(&self) -> Vec<HashMap<SignalId, u64>> {
        self.inputs.to_vec()
    }
}
