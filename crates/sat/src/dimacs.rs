//! DIMACS CNF import, the SAT ecosystem's interchange format — lets the
//! solver be exercised against external benchmarks.

use crate::{Lit, Solver, Var};

/// A parsed CNF formula.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Cnf {
    /// Number of variables (1-based in DIMACS, 0-based internally).
    pub num_vars: usize,
    /// Clauses as literal lists.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Loads the formula into a fresh solver.
    pub fn to_solver(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c);
        }
        s
    }
}

/// Errors from [`parse_dimacs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DimacsError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DimacsError {}

/// Parses DIMACS CNF text (`c` comments, one `p cnf V C` header, clauses
/// terminated by `0`, possibly spanning lines).
///
/// # Errors
/// Returns a located [`DimacsError`] on malformed input.
pub fn parse_dimacs(src: &str) -> Result<Cnf, DimacsError> {
    let mut cnf = Cnf::default();
    let mut saw_header = false;
    let mut current: Vec<Lit> = Vec::new();
    for (ix, raw) in src.lines().enumerate() {
        let lineno = ix + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if saw_header {
                return Err(DimacsError {
                    line: lineno,
                    message: "duplicate header".into(),
                });
            }
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() != 3 || toks[0] != "cnf" {
                return Err(DimacsError {
                    line: lineno,
                    message: "expected `p cnf <vars> <clauses>`".into(),
                });
            }
            cnf.num_vars = toks[1].parse().map_err(|_| DimacsError {
                line: lineno,
                message: "bad variable count".into(),
            })?;
            saw_header = true;
            continue;
        }
        if !saw_header {
            return Err(DimacsError {
                line: lineno,
                message: "clause before header".into(),
            });
        }
        for tok in line.split_whitespace() {
            let v: i64 = tok.parse().map_err(|_| DimacsError {
                line: lineno,
                message: format!("bad literal `{tok}`"),
            })?;
            if v == 0 {
                cnf.clauses.push(std::mem::take(&mut current));
            } else {
                let var = v.unsigned_abs() as usize - 1;
                if var >= cnf.num_vars {
                    return Err(DimacsError {
                        line: lineno,
                        message: format!("literal {v} exceeds declared variables"),
                    });
                }
                current.push(Lit::new(Var(var as u32), v > 0));
            }
        }
    }
    if !current.is_empty() {
        cnf.clauses.push(current);
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_solve_round_trip() {
        let src = "c a comment\np cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n";
        let cnf = parse_dimacs(src).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 3);
        let mut s = cnf.to_solver();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unsat_instance() {
        let src = "p cnf 1 2\n1 0\n-1 0\n";
        let mut s = parse_dimacs(src).unwrap().to_solver();
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(parse_dimacs("1 2 0\n").unwrap_err().line, 1);
        assert_eq!(parse_dimacs("p cnf 1 1\n5 0\n").unwrap_err().line, 2);
        assert!(parse_dimacs("p cnf x 1\n").is_err());
    }

    #[test]
    fn multiline_clauses() {
        let src = "p cnf 4 1\n1 2\n3 4 0\n";
        let cnf = parse_dimacs(src).unwrap();
        assert_eq!(cnf.clauses[0].len(), 4);
    }
}
