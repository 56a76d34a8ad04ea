//! A structural hardware-construction DSL over the IR.
//!
//! [`Builder`] plays the role that SystemVerilog elaboration plays in the
//! paper's toolflow: designs under verification are *constructed* as netlists
//! rather than parsed from text (see `DESIGN.md` for the substitution
//! rationale; a textual format also exists in [`crate::text`]).
//!
//! # Examples
//!
//! A 4-bit counter that wraps:
//!
//! ```
//! use netlist::Builder;
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = Builder::new();
//! let count = b.reg("count", 4, 0);
//! let one = b.constant(1, 4);
//! let next = b.add(count, one);
//! b.set_next(count, next)?;
//! let netlist = b.finish()?;
//! assert_eq!(netlist.regs().len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::ir::{BinOp, Netlist, NetlistError, Node, Op, SignalId, UnOp};

/// A handle to a signal under construction: its id plus width.
///
/// `Wire`s are cheap copies; all operations go through [`Builder`] methods.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Wire {
    /// Signal id in the builder's netlist.
    pub id: SignalId,
    /// Bit width.
    pub width: u8,
}

/// Incrementally constructs a [`Netlist`].
///
/// Registers are declared up front (so feedback loops can reference them) and
/// wired with [`Builder::set_next`] once their next-state logic exists.
/// [`Builder::finish`] validates the result.
#[derive(Debug, Default)]
pub struct Builder {
    nl: Netlist,
}

impl Builder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reopens a finished netlist for extension — used to weave verification
    /// monitors (sticky bits, delay lines, taint covers) into a design
    /// without disturbing existing nodes, exactly as the paper adds
    /// verification-only state next to the DUV (§V-A footnote 2).
    pub fn from_netlist(nl: Netlist) -> Self {
        Self { nl }
    }

    /// A wire handle for an existing signal.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn wire(&self, id: crate::ir::SignalId) -> Wire {
        Wire {
            id,
            width: self.nl.width(id),
        }
    }

    /// A wire handle for an existing named signal.
    ///
    /// # Panics
    /// Panics if no signal has that name.
    pub fn wire_named(&self, name: &str) -> Wire {
        let id = self
            .nl
            .find(name)
            .unwrap_or_else(|| panic!("no signal named `{name}`"));
        self.wire(id)
    }

    /// Read-only access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    fn push(&mut self, name: Option<String>, width: u8, op: Op) -> Wire {
        let id = self
            .nl
            .push(Node { name, width, op })
            .unwrap_or_else(|e| panic!("netlist construction error: {e}"));
        Wire { id, width }
    }

    /// Declares a named primary input of the given width.
    ///
    /// # Panics
    /// Panics on duplicate names or invalid widths; inputs are declared by
    /// design code where such mistakes are programming errors.
    pub fn input(&mut self, name: &str, width: u8) -> Wire {
        self.push(Some(name.to_owned()), width, Op::Input)
    }

    /// Declares a named register with a reset value.
    ///
    /// The returned wire carries the register's *current* value. Wire the
    /// next-state value later with [`Builder::set_next`].
    pub fn reg(&mut self, name: &str, width: u8, init: u64) -> Wire {
        self.push(Some(name.to_owned()), width, Op::Reg { next: None, init })
    }

    /// An anonymous constant.
    pub fn constant(&mut self, value: u64, width: u8) -> Wire {
        self.push(None, width, Op::Const(value))
    }

    /// Convenience: a 1-bit constant 1.
    pub fn one(&mut self) -> Wire {
        self.constant(1, 1)
    }

    /// Convenience: a 1-bit constant 0.
    pub fn zero(&mut self) -> Wire {
        self.constant(0, 1)
    }

    /// Pushes a combinational node as wide as the netlist's width rule says
    /// its operands make it.
    ///
    /// # Panics
    /// Panics if the operands' widths break the rule.
    fn derive(&mut self, name: Option<String>, op: Op) -> Wire {
        let id = self
            .nl
            .push_derived(name, op)
            .unwrap_or_else(|e| panic!("netlist construction error: {e}"));
        self.wire(id)
    }

    /// Attaches a name to an existing signal by inserting a named 1:1 alias
    /// (`Slice` of the full width). Returns the alias wire.
    pub fn name(&mut self, w: Wire, name: &str) -> Wire {
        self.derive(
            Some(name.to_owned()),
            Op::Slice {
                src: w.id,
                hi: w.width - 1,
                lo: 0,
            },
        )
    }

    /// Connects a register's next-state input.
    ///
    /// # Errors
    /// Fails if `reg` is not a register, is already connected, or `next` has
    /// a different width.
    pub fn set_next(&mut self, reg: Wire, next: Wire) -> Result<(), NetlistError> {
        self.nl.set_reg_next(reg.id, next.id)
    }

    /// Validates and returns the finished netlist.
    ///
    /// # Errors
    /// Propagates any [`NetlistError`] found by [`Netlist::validate`].
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        self.nl.validate()?;
        Ok(self.nl)
    }

    // ---- combinational operators -------------------------------------------

    fn binary(&mut self, op: BinOp, a: Wire, b: Wire) -> Wire {
        self.derive(None, Op::Binary(op, a.id, b.id))
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Xor, a, b)
    }

    /// Truncating addition.
    pub fn add(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Sub, a, b)
    }

    /// Truncating multiplication.
    pub fn mul(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Mul, a, b)
    }

    /// Equality comparison (1-bit result).
    pub fn eq(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Eq, a, b)
    }

    /// Inequality comparison (1-bit result).
    pub fn ne(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Ne, a, b)
    }

    /// Unsigned less-than (1-bit result).
    pub fn ult(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Ult, a, b)
    }

    /// Unsigned less-or-equal (1-bit result).
    pub fn ule(&mut self, a: Wire, b: Wire) -> Wire {
        self.binary(BinOp::Ule, a, b)
    }

    /// Logical shift left by a variable amount.
    pub fn shl(&mut self, a: Wire, amount: Wire) -> Wire {
        self.binary(BinOp::Shl, a, amount)
    }

    /// Logical shift right by a variable amount.
    pub fn shr(&mut self, a: Wire, amount: Wire) -> Wire {
        self.binary(BinOp::Shr, a, amount)
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: Wire) -> Wire {
        self.derive(None, Op::Unary(UnOp::Not, a.id))
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: Wire) -> Wire {
        self.derive(None, Op::Unary(UnOp::Neg, a.id))
    }

    /// OR-reduction: 1 iff any bit set.
    pub fn red_or(&mut self, a: Wire) -> Wire {
        self.derive(None, Op::Unary(UnOp::RedOr, a.id))
    }

    /// AND-reduction: 1 iff all bits set.
    pub fn red_and(&mut self, a: Wire) -> Wire {
        self.derive(None, Op::Unary(UnOp::RedAnd, a.id))
    }

    /// XOR-reduction (parity).
    pub fn red_xor(&mut self, a: Wire) -> Wire {
        self.derive(None, Op::Unary(UnOp::RedXor, a.id))
    }

    /// 1 iff the value is zero.
    pub fn is_zero(&mut self, a: Wire) -> Wire {
        let any = self.red_or(a);
        self.not(any)
    }

    /// 2:1 multiplexer: `sel ? a : b`.
    ///
    /// # Panics
    /// Panics if `sel` is not 1 bit wide or `a`/`b` widths differ.
    pub fn mux(&mut self, sel: Wire, a: Wire, b: Wire) -> Wire {
        self.derive(
            None,
            Op::Mux {
                sel: sel.id,
                a: a.id,
                b: b.id,
            },
        )
    }

    /// Bit slice `[hi:lo]` (inclusive).
    ///
    /// # Panics
    /// Panics if the slice is inverted or outside `src`.
    pub fn slice(&mut self, src: Wire, hi: u8, lo: u8) -> Wire {
        self.derive(
            None,
            Op::Slice {
                src: src.id,
                hi,
                lo,
            },
        )
    }

    /// Extracts one bit.
    pub fn bit(&mut self, src: Wire, ix: u8) -> Wire {
        self.slice(src, ix, ix)
    }

    /// Concatenation with `hi` in the upper bits.
    pub fn concat(&mut self, hi: Wire, lo: Wire) -> Wire {
        self.derive(
            None,
            Op::Concat {
                hi: hi.id,
                lo: lo.id,
            },
        )
    }

    /// Zero-extends (or returns unchanged) to `width` bits.
    ///
    /// # Panics
    /// Panics if `width < a.width`.
    pub fn zext(&mut self, a: Wire, width: u8) -> Wire {
        assert!(width >= a.width, "zext target narrower than source");
        if width == a.width {
            a
        } else {
            let zeros = self.constant(0, width - a.width);
            self.concat(zeros, a)
        }
    }

    /// Sign-extends to `width` bits.
    pub fn sext(&mut self, a: Wire, width: u8) -> Wire {
        assert!(width >= a.width, "sext target narrower than source");
        if width == a.width {
            return a;
        }
        let sign = self.bit(a, a.width - 1);
        let ones = self.constant(crate::ir::mask(width - a.width), width - a.width);
        let zeros = self.constant(0, width - a.width);
        let upper = self.mux(sign, ones, zeros);
        self.concat(upper, a)
    }

    /// Truncates to the low `width` bits.
    pub fn trunc(&mut self, a: Wire, width: u8) -> Wire {
        assert!(width <= a.width);
        if width == a.width {
            a
        } else {
            self.slice(a, width - 1, 0)
        }
    }

    /// 1 iff `a == value` (constant comparison).
    pub fn eq_const(&mut self, a: Wire, value: u64) -> Wire {
        let c = self.constant(value & crate::ir::mask(a.width), a.width);
        self.eq(a, c)
    }

    /// AND of many 1-bit wires (1 for the empty list).
    pub fn all(&mut self, xs: &[Wire]) -> Wire {
        let mut acc = self.one();
        for &x in xs {
            acc = self.and(acc, x);
        }
        acc
    }

    /// OR of many 1-bit wires (0 for the empty list).
    pub fn any(&mut self, xs: &[Wire]) -> Wire {
        let mut acc = self.zero();
        for &x in xs {
            acc = self.or(acc, x);
        }
        acc
    }

    /// Priority selector: returns the value paired with the first true
    /// condition, or `default` when none hold.
    ///
    /// # Panics
    /// Panics on width mismatches between arms and default.
    pub fn select(&mut self, arms: &[(Wire, Wire)], default: Wire) -> Wire {
        let mut acc = default;
        for &(cond, value) in arms.iter().rev() {
            acc = self.mux(cond, value, acc);
        }
        acc
    }
}

/// A small register-file / memory helper built from registers and muxes.
///
/// Models the paper's behavioural memory arrays (ARF, AMEM, cache data banks)
/// without a dedicated memory primitive, so the simulator, bit-blaster and
/// IFT pass need no special cases. Writes are accumulated with
/// [`MemArray::write`] and committed by [`MemArray::finish`], which wires
/// every word register's next-state mux chain.
#[derive(Debug)]
pub struct MemArray {
    words: Vec<Wire>,
    /// Pending writes: (enable, address, data), later writes take priority.
    writes: Vec<(Wire, Wire, Wire)>,
    addr_width: u8,
    data_width: u8,
    name: String,
}

impl MemArray {
    /// Declares `len` words of `data_width` bits, each initialised to 0, as
    /// registers named `name[i]`.
    ///
    /// # Panics
    /// Panics if `len` is not a power of two or is 0.
    pub fn new(b: &mut Builder, name: &str, len: usize, data_width: u8) -> Self {
        assert!(len.is_power_of_two() && len > 0, "mem len must be 2^k");
        let addr_width = len.trailing_zeros() as u8;
        let words = (0..len)
            .map(|i| b.reg(&format!("{name}[{i}]"), data_width, 0))
            .collect();
        Self {
            words,
            writes: Vec::new(),
            addr_width: addr_width.max(1),
            data_width,
            name: name.to_owned(),
        }
    }

    /// The word registers (current values).
    pub fn words(&self) -> &[Wire] {
        &self.words
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the array has no words (never true for a constructed array).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Asynchronous (combinational) read port.
    ///
    /// # Panics
    /// Panics if the address is narrower than needed to index every word.
    pub fn read(&self, b: &mut Builder, addr: Wire) -> Wire {
        assert!(
            addr.width >= self.addr_width || self.words.len() == 1,
            "address too narrow for {}",
            self.name
        );
        let mut acc = b.constant(0, self.data_width);
        for (i, &w) in self.words.iter().enumerate() {
            let hit = b.eq_const(addr, i as u64);
            acc = b.mux(hit, w, acc);
        }
        acc
    }

    /// Queues a synchronous write; writes queued later take priority when
    /// multiple enables fire for the same word in one cycle.
    pub fn write(&mut self, en: Wire, addr: Wire, data: Wire) {
        assert_eq!(data.width, self.data_width, "write data width mismatch");
        self.writes.push((en, addr, data));
    }

    /// Wires every word's next-state logic.
    ///
    /// # Errors
    /// Propagates register-wiring errors (double-finish, width mismatch).
    pub fn finish(self, b: &mut Builder) -> Result<(), NetlistError> {
        for (i, &word) in self.words.iter().enumerate() {
            let mut next = word;
            for &(en, addr, data) in &self.writes {
                let hit = b.eq_const(addr, i as u64);
                let strobe = b.and(en, hit);
                next = b.mux(strobe, data, next);
            }
            b.set_next(word, next)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_builds_and_validates() {
        let mut b = Builder::new();
        let c = b.reg("c", 4, 0);
        let one = b.constant(1, 4);
        let next = b.add(c, one);
        b.set_next(c, next).unwrap();
        let nl = b.finish().unwrap();
        assert_eq!(nl.state_bits(), 4);
        assert!(nl.find("c").is_some());
    }

    #[test]
    fn unconnected_reg_rejected() {
        let mut b = Builder::new();
        let _ = b.reg("r", 4, 0);
        assert!(matches!(b.finish(), Err(NetlistError::UnconnectedReg(_))));
    }

    #[test]
    fn double_connect_rejected() {
        let mut b = Builder::new();
        let r = b.reg("r", 4, 0);
        let c = b.constant(3, 4);
        b.set_next(r, c).unwrap();
        assert_eq!(
            b.set_next(r, c),
            Err(NetlistError::RegAlreadyConnected("r".into()))
        );
    }

    #[test]
    fn set_next_of_a_non_register_names_it() {
        let mut b = Builder::new();
        let a = b.input("a", 4);
        let c = b.constant(3, 4);
        assert_eq!(b.set_next(a, c), Err(NetlistError::NotAReg("a".into())));
    }

    #[test]
    fn comb_cycle_detected() {
        // a = a & a is impossible to build through the DSL (ids are created
        // before use), so force one through a register-free feedback by
        // constructing nodes manually.
        let mut nl = Netlist::new();
        let a = nl
            .push(Node {
                name: Some("a".into()),
                width: 1,
                op: Op::Input,
            })
            .unwrap();
        // b = b & a  (self reference)
        let b_id = SignalId(1);
        nl.push(Node {
            name: Some("b".into()),
            width: 1,
            op: Op::Binary(BinOp::And, b_id, a),
        })
        .unwrap();
        assert!(matches!(nl.validate(), Err(NetlistError::CombCycle(_))));

        // x = !q outside the loop p = !q, q = !p: the DFS starts at x and
        // enters the loop at q, so q (not the lower-id p) is named.
        let mut nl = Netlist::new();
        for (name, src) in [("x", 2), ("p", 2), ("q", 1)] {
            nl.push(Node {
                name: Some(name.into()),
                width: 1,
                op: Op::Unary(UnOp::Not, SignalId(src)),
            })
            .unwrap();
        }
        assert_eq!(nl.validate(), Err(NetlistError::CombCycle("q".into())));
    }

    #[test]
    fn sext_zext() {
        let mut b = Builder::new();
        let x = b.input("x", 4);
        let z = b.zext(x, 8);
        let s = b.sext(x, 8);
        assert_eq!(z.width, 8);
        assert_eq!(s.width, 8);
        b.finish().unwrap();
    }

    #[test]
    fn mem_array_wiring() {
        let mut b = Builder::new();
        let addr = b.input("addr", 2);
        let data = b.input("data", 8);
        let we = b.input("we", 1);
        let mut mem = MemArray::new(&mut b, "m", 4, 8);
        let _rd = mem.read(&mut b, addr);
        mem.write(we, addr, data);
        mem.finish(&mut b).unwrap();
        let nl = b.finish().unwrap();
        assert_eq!(nl.state_bits(), 32);
    }

    #[test]
    fn select_priority_shape() {
        let mut b = Builder::new();
        let c0 = b.input("c0", 1);
        let c1 = b.input("c1", 1);
        let v0 = b.constant(1, 4);
        let v1 = b.constant(2, 4);
        let d = b.constant(0, 4);
        let out = b.select(&[(c0, v0), (c1, v1)], d);
        assert_eq!(out.width, 4);
        b.finish().unwrap();
    }
}
