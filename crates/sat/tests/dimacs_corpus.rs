//! Regression corpus: every DIMACS file under `tests/corpus/` encodes its
//! brute-force-verified status in its filename (`*-sat.cnf` /
//! `*-unsat.cnf`). The solver must reproduce that status, and every Sat
//! verdict must come with a model that satisfies the formula.

use sat::{dimacs, SolveResult, Solver};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn corpus_files() -> Vec<(PathBuf, bool)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir exists") {
        let path = entry.expect("readable entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        let expect_sat = if name.ends_with("-sat.cnf") {
            true
        } else if name.ends_with("-unsat.cnf") {
            false
        } else {
            panic!("corpus file `{name}` must end in -sat.cnf or -unsat.cnf");
        };
        out.push((path, expect_sat));
    }
    out.sort();
    assert!(out.len() >= 8, "corpus unexpectedly small: {}", out.len());
    assert!(
        out.iter().any(|(_, s)| *s) && out.iter().any(|(_, s)| !*s),
        "corpus must mix sat and unsat instances"
    );
    out
}

#[test]
fn corpus_verdicts_match_filenames() {
    for (path, expect_sat) in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let cnf = dimacs::parse_dimacs(&text).expect("corpus file parses");
        let mut s = Solver::new();
        let vars: Vec<_> = (0..cnf.num_vars).map(|_| s.new_var()).collect();
        for c in &cnf.clauses {
            s.add_clause(c);
        }
        let r = s.solve();
        let expected = if expect_sat {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        assert_eq!(r, expected, "{}", path.display());
        if r.is_sat() {
            let ok = cnf.clauses.iter().all(|c| {
                c.iter()
                    .any(|l| s.value(l.var()).is_some_and(|v| v == l.is_pos()))
            });
            assert!(ok, "{}: model does not satisfy the formula", path.display());
            // Models must cover every variable of the file.
            assert!(vars.iter().all(|&v| s.value(v).is_some()));
        }
    }
}

#[test]
fn corpus_solves_incrementally_on_one_solver() {
    // Re-querying one solver with per-file activation literals exercises
    // the incremental path (inprocessing between queries included).
    let files = corpus_files();
    let mut s = Solver::new();
    let mut acts = Vec::new();
    let mut base = 0u32;
    let mut sizes = Vec::new();
    for (path, expect_sat) in &files {
        let text = std::fs::read_to_string(path).expect("corpus file reads");
        let cnf = dimacs::parse_dimacs(&text).expect("corpus file parses");
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        let act = s.new_var();
        for c in &cnf.clauses {
            let mut lits: Vec<sat::Lit> = vec![sat::Lit::neg(act)];
            lits.extend(c.iter().map(|l| {
                let v = sat::Var(l.var().0 + base);
                sat::Lit::new(v, l.is_pos())
            }));
            s.add_clause(&lits);
        }
        acts.push((sat::Lit::pos(act), *expect_sat));
        sizes.push(cnf.num_vars as u32);
        base += cnf.num_vars as u32 + 1;
    }
    // Two rounds so round 2 runs against a learnt-clause database and
    // whatever inprocessing did to it after round 1.
    for round in 0..2 {
        for (i, &(act, expect_sat)) in acts.iter().enumerate() {
            let r = s.solve_assuming(&[act]);
            assert_eq!(
                r.is_sat(),
                expect_sat,
                "round {round}, file {} ({})",
                i,
                files[i].0.display()
            );
        }
    }
}
