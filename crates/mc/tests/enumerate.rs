//! `Checker::enumerate`: the one enumerate-and-block query behind µPATH
//! shape enumeration and revisit-count enumeration.

use mc::{Checker, McConfig};
use netlist::{Builder, SignalId};

/// A free 2-bit register that holds its value: every witness of a
/// constant-true cover ends in one of its four values.
#[test]
fn enumerate_blocks_each_final_value_once_per_guard() {
    let mut b = Builder::new();
    let r = b.reg("r", 2, 0);
    b.set_next(r, r).unwrap();
    let one = b.one();
    let yes = b.name(one, "yes").id;
    let (g1, g2) = (b.name(one, "g1").id, b.name(one, "g2").id);
    let nl = b.finish().unwrap();
    let cfg = McConfig {
        bound: 3,
        ..Default::default()
    };
    let mut chk = Checker::with_free_regs(&nl, cfg, &[r.id]);
    let run = |chk: &mut Checker<'_>, guard: Option<SignalId>, cap: usize| {
        let mut seen = Vec::new();
        let assumes: Vec<SignalId> = guard.into_iter().collect();
        let complete = chk.enumerate(yes, &assumes, &[r.id], guard, cap, |t| {
            seen.push(t.value(2, r.id));
        });
        seen.sort_unstable();
        (complete, seen)
    };
    assert_eq!(run(&mut chk, Some(g1), 9), (true, vec![0, 1, 2, 3]));
    // Blocks scoped under g1 leave g2's enumeration whole.
    assert_eq!(run(&mut chk, Some(g2), 9), (true, vec![0, 1, 2, 3]));
    assert_eq!(run(&mut chk, Some(g1), 9), (true, vec![]));
    // A cap stops the loop with no further query, incomplete.
    let before = chk.stats().properties;
    let (complete, seen) = run(&mut chk, None, 2);
    assert!(!complete);
    assert_eq!(seen.len(), 2);
    assert_eq!(chk.stats().properties, before + 2);
    // The unscoped blocks stay: only the other two values are left.
    let rest: Vec<u64> = (0..4).filter(|v| !seen.contains(v)).collect();
    assert_eq!(run(&mut chk, None, 9), (true, rest));
}
