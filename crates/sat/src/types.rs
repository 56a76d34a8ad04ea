//! Variables, literals, and solve outcomes.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Index into per-variable tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `2*var + sign`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a polarity (`true` = positive).
    #[inline]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense encoding, usable as a table index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Decodes from [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// Result of a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found (read it with `Solver::value`).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict/propagation budget was exhausted first.
    Unknown,
}

impl SolveResult {
    /// `true` when the outcome is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// `true` when the outcome is [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }

    /// The SAT-competition answer line for this outcome
    /// (`SATISFIABLE` / `UNSATISFIABLE` / `UNKNOWN`).
    pub fn answer(self) -> &'static str {
        match self {
            SolveResult::Sat => "SATISFIABLE",
            SolveResult::Unsat => "UNSATISFIABLE",
            SolveResult::Unknown => "UNKNOWN",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var(7);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_pos());
        assert!(!n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_code(p.code()), p);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Lit::pos(Var(3)).to_string(), "x3");
        assert_eq!(Lit::neg(Var(3)).to_string(), "!x3");
    }
}
