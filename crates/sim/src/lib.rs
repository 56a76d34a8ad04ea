//! Cycle-accurate two-state simulator for the `netlist` IR.
//!
//! Used three ways in the reproduction:
//!
//! * ISA conformance testing of the `uarch` processor designs against the
//!   `isa` golden model,
//! * replaying model-checker witness traces (every `Reachable` outcome in the
//!   test suite is validated by re-simulating the witness),
//! * the SC-Safe (Definition V.1) experiment in `synthlc`, which compares
//!   observation traces of low-equivalent executions.
//!
//! # Examples
//!
//! ```
//! use netlist::Builder;
//! use sim::Simulator;
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = Builder::new();
//! let x = b.input("x", 8);
//! let acc = b.reg("acc", 8, 0);
//! let sum = b.add(acc, x);
//! b.set_next(acc, sum)?;
//! let nl = b.finish()?;
//!
//! let mut simulator = Simulator::new(&nl);
//! let x = nl.find("x").unwrap();
//! let acc = nl.find("acc").unwrap();
//! simulator.set_input(x, 5);
//! simulator.step();
//! simulator.set_input(x, 7);
//! simulator.step();
//! assert_eq!(simulator.value(acc), 12);
//! # Ok(())
//! # }
//! ```

use netlist::analysis::topo_order;
use netlist::{mask, Netlist, Op, SignalId};
use std::collections::HashMap;

/// A cycle-accurate interpreter over a [`Netlist`].
///
/// Protocol per cycle: call [`Simulator::set_input`] for each input, read
/// combinational values with [`Simulator::value`] (evaluation is implicit),
/// then [`Simulator::step`] to advance the clock.
#[derive(Debug)]
pub struct Simulator<'a> {
    nl: &'a Netlist,
    order: Vec<SignalId>,
    values: Vec<u64>,
    dirty: bool,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator in the reset state (registers at their init
    /// values, inputs at 0).
    ///
    /// # Panics
    /// Panics if the netlist is invalid (validate it first).
    pub fn new(nl: &'a Netlist) -> Self {
        nl.validate().expect("simulating an invalid netlist");
        let order = topo_order(nl).expect("validated netlist is acyclic");
        let mut s = Self {
            nl,
            order,
            values: vec![0; nl.len()],
            dirty: true,
        };
        for r in nl.regs() {
            s.values[r.index()] = nl.reg_init(r);
        }
        s
    }

    /// Drives a primary input for the current cycle.
    ///
    /// # Panics
    /// Panics if `id` is not an input or the value does not fit its width.
    pub fn set_input(&mut self, id: SignalId, value: u64) {
        assert!(
            self.nl.node(id).op.is_input(),
            "{} is not an input",
            self.nl.display_name(id)
        );
        let w = self.nl.width(id);
        assert_eq!(value & !mask(w), 0, "input value wider than {w} bits");
        self.values[id.index()] = value;
        self.dirty = true;
    }

    fn eval(&mut self) {
        if !self.dirty {
            return;
        }
        for &id in &self.order {
            let node = self.nl.node(id);
            let v = match &node.op {
                Op::Input | Op::Reg { .. } => continue,
                Op::Const(c) => *c,
                Op::Unary(op, a) => op.eval(self.values[a.index()], self.nl.width(*a)),
                Op::Binary(op, a, b) => op.eval(
                    self.values[a.index()],
                    self.values[b.index()],
                    self.nl.width(*a),
                ),
                Op::Mux { sel, a, b } => {
                    if self.values[sel.index()] != 0 {
                        self.values[a.index()]
                    } else {
                        self.values[b.index()]
                    }
                }
                Op::Slice { src, hi, lo } => (self.values[src.index()] >> lo) & mask(hi - lo + 1),
                Op::Concat { hi, lo } => {
                    let lw = self.nl.width(*lo);
                    (self.values[hi.index()] << lw) | self.values[lo.index()]
                }
            };
            self.values[id.index()] = v;
        }
        self.dirty = false;
    }

    /// Reads the current (combinationally settled) value of a signal.
    pub fn value(&mut self, id: SignalId) -> u64 {
        self.eval();
        self.values[id.index()]
    }

    /// Reads a signal by name.
    ///
    /// # Panics
    /// Panics if no signal has that name.
    pub fn value_of(&mut self, name: &str) -> u64 {
        let id = self
            .nl
            .find(name)
            .unwrap_or_else(|| panic!("no signal named `{name}`"));
        self.value(id)
    }

    /// Overwrites a register's current value (verification/experiment
    /// support: e.g. installing a secret into the architectural state for
    /// the SC-Safe experiment, Definition V.1).
    ///
    /// # Panics
    /// Panics if `id` is not a register or the value does not fit.
    pub fn poke_reg(&mut self, id: SignalId, value: u64) {
        assert!(
            self.nl.node(id).op.is_reg(),
            "{} is not a register",
            self.nl.display_name(id)
        );
        let w = self.nl.width(id);
        assert_eq!(value & !mask(w), 0, "poke value wider than {w} bits");
        self.values[id.index()] = value;
        self.dirty = true;
    }

    /// Advances the clock one cycle: registers latch their next values.
    pub fn step(&mut self) {
        self.eval();
        let regs = self.nl.regs();
        let latched: Vec<(SignalId, u64)> = regs
            .iter()
            .map(|&r| (r, self.values[self.nl.reg_next(r).index()]))
            .collect();
        for (r, v) in latched {
            self.values[r.index()] = v;
        }
        self.dirty = true;
    }
}

/// Replays a per-cycle input script and returns the values of `watch`
/// signals at every cycle *before* each clock edge.
///
/// This is the hook used to validate model-checker witnesses: the `mc` crate
/// produces exactly this input-script shape.
pub fn replay(
    nl: &Netlist,
    script: &[HashMap<SignalId, u64>],
    watch: &[SignalId],
) -> Vec<Vec<u64>> {
    let mut simulator = Simulator::new(nl);
    let mut out = Vec::with_capacity(script.len());
    for inputs in script {
        for (&id, &v) in inputs {
            simulator.set_input(id, v);
        }
        out.push(watch.iter().map(|&s| simulator.value(s)).collect());
        simulator.step();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Builder;

    #[test]
    fn register_latches_on_step_not_eval() {
        let mut b = Builder::new();
        let x = b.input("x", 8);
        let r = b.reg("r", 8, 0);
        b.set_next(r, x).unwrap();
        let nl = b.finish().unwrap();
        let (x, r) = (nl.find("x").unwrap(), nl.find("r").unwrap());
        let mut s = Simulator::new(&nl);
        s.set_input(x, 42);
        assert_eq!(s.value(r), 0, "reg holds init before edge");
        s.step();
        assert_eq!(s.value(r), 42, "reg latched at edge");
    }

    #[test]
    fn mux_and_slices() {
        let mut b = Builder::new();
        let x = b.input("x", 8);
        let sel = b.input("sel", 1);
        let hi = b.slice(x, 7, 4);
        let lo = b.slice(x, 3, 0);
        let m = b.mux(sel, hi, lo);
        let out = b.name(m, "out");
        let _ = out;
        let nl = b.finish().unwrap();
        let mut s = Simulator::new(&nl);
        s.set_input(nl.find("x").unwrap(), 0xa5);
        s.set_input(nl.find("sel").unwrap(), 1);
        assert_eq!(s.value_of("out"), 0xa);
        s.set_input(nl.find("sel").unwrap(), 0);
        assert_eq!(s.value_of("out"), 0x5);
    }

    #[test]
    fn mem_array_reads_writes() {
        let mut b = Builder::new();
        let addr = b.input("addr", 2);
        let data = b.input("data", 8);
        let we = b.input("we", 1);
        let mut mem = netlist::MemArray::new(&mut b, "m", 4, 8);
        let rd = mem.read(&mut b, addr);
        b.name(rd, "rd");
        mem.write(we, addr, data);
        mem.finish(&mut b).unwrap();
        let nl = b.finish().unwrap();
        let mut s = Simulator::new(&nl);
        let (a, d, w) = (
            nl.find("addr").unwrap(),
            nl.find("data").unwrap(),
            nl.find("we").unwrap(),
        );
        for (id, v) in [(a, 2), (d, 99), (w, 1)] {
            s.set_input(id, v);
        }
        s.step();
        s.set_input(d, 0);
        s.set_input(w, 0);
        assert_eq!(s.value_of("rd"), 99);
        s.set_input(a, 1);
        assert_eq!(s.value_of("rd"), 0);
    }

    #[test]
    fn later_mem_writes_take_priority() {
        let mut b = Builder::new();
        let addr = b.input("addr", 2);
        let d0 = b.input("d0", 8);
        let d1 = b.input("d1", 8);
        let en = b.input("en", 1);
        let mut mem = netlist::MemArray::new(&mut b, "m", 4, 8);
        let rd = mem.read(&mut b, addr);
        b.name(rd, "rd");
        mem.write(en, addr, d0);
        mem.write(en, addr, d1); // queued later => wins
        mem.finish(&mut b).unwrap();
        let nl = b.finish().unwrap();
        let mut s = Simulator::new(&nl);
        for (name, v) in [("addr", 0), ("d0", 1), ("d1", 2), ("en", 1)] {
            s.set_input(nl.find(name).unwrap(), v);
        }
        s.step();
        s.set_input(nl.find("en").unwrap(), 0);
        assert_eq!(s.value_of("rd"), 2);
    }

    #[test]
    fn replay_matches_manual_stepping() {
        let mut b = Builder::new();
        let x = b.input("x", 8);
        let acc = b.reg("acc", 8, 0);
        let sum = b.add(acc, x);
        b.set_next(acc, sum).unwrap();
        let nl = b.finish().unwrap();
        let (x, acc) = (nl.find("x").unwrap(), nl.find("acc").unwrap());
        let script: Vec<HashMap<SignalId, u64>> =
            (1..=4).map(|i| HashMap::from([(x, i as u64)])).collect();
        let vals = replay(&nl, &script, &[acc]);
        assert_eq!(
            vals.iter().map(|r| r[0]).collect::<Vec<_>>(),
            vec![0, 1, 3, 6]
        );
    }

    #[test]
    fn shift_ops_match_semantics() {
        let mut b = Builder::new();
        let x = b.input("x", 8);
        let amt = b.input("amt", 4);
        let l = b.shl(x, amt);
        let r = b.shr(x, amt);
        b.name(l, "l");
        b.name(r, "r");
        let nl = b.finish().unwrap();
        let mut s = Simulator::new(&nl);
        s.set_input(nl.find("x").unwrap(), 0x81);
        s.set_input(nl.find("amt").unwrap(), 1);
        assert_eq!(s.value_of("l"), 0x02);
        assert_eq!(s.value_of("r"), 0x40);
        s.set_input(nl.find("amt").unwrap(), 9);
        assert_eq!(s.value_of("l"), 0, "overshift is zero");
        assert_eq!(s.value_of("r"), 0);
    }
}
