//! `FaultPlan` purity: whether (and how) job `ix` of a phase faults must
//! be a pure function of `(seed, phase, ix)` — that property is what
//! makes a failing fault-injected CI run replayable from
//! `SYNTHLC_FAULT_SEED` alone, at any worker count and in any job order.

use mc::{FaultKind, FaultPlan};

/// 100 sampled `(seed, phase, ix)` points, each queried repeatedly, out
/// of order, and from an independently constructed same-seed plan: every
/// answer must be identical.
#[test]
fn fault_for_is_pure_across_100_sampled_points() {
    let phases = ["mupath", "ift", "bmc", "fuzz"];
    let mut points = Vec::new();
    let mut rng = prng::Rng::new(0xfa01);
    while points.len() < 100 {
        let seed = rng.next_u64();
        let phase = phases[rng.range(0, phases.len() as u64) as usize];
        let ix = rng.range(0, 10_000) as usize;
        points.push((seed, phase, ix));
    }
    let mut first = Vec::with_capacity(points.len());
    for &(seed, phase, ix) in &points {
        first.push(FaultPlan::new(seed, 0.5).fault_for_attempt(phase, ix, 0));
    }
    // Same plan object, re-queried in reverse order: no hidden state.
    for (i, &(seed, phase, ix)) in points.iter().enumerate().rev() {
        let plan = FaultPlan::new(seed, 0.5);
        assert_eq!(plan.fault_for_attempt(phase, ix, 0), first[i]);
        assert_eq!(
            plan.fault_for_attempt(phase, ix, 0),
            first[i],
            "repeat query at ({seed:#x}, {phase}, {ix}) changed"
        );
    }
    // A fresh same-seed plan is indistinguishable from the original.
    for (i, &(seed, phase, ix)) in points.iter().enumerate() {
        assert_eq!(
            FaultPlan::new(seed, 0.5).fault_for_attempt(phase, ix, 0),
            first[i],
            "fresh plan diverges at ({seed:#x}, {phase}, {ix})"
        );
    }
}

/// The streams are genuinely seed- and phase-sensitive: a rate of 0.5
/// over 100 points plans some faults of every kind, different phases
/// decorrelate, and rate 0 plans nothing.
#[test]
fn fault_streams_decorrelate_by_phase_and_seed() {
    let plan = FaultPlan::new(7, 0.5);
    let a: Vec<_> = (0..100)
        .map(|ix| plan.fault_for_attempt("mupath", ix, 0))
        .collect();
    let b: Vec<_> = (0..100)
        .map(|ix| plan.fault_for_attempt("ift", ix, 0))
        .collect();
    assert_ne!(a, b, "phases must keep independent fault streams");
    let other = FaultPlan::new(8, 0.5);
    let c: Vec<_> = (0..100)
        .map(|ix| other.fault_for_attempt("mupath", ix, 0))
        .collect();
    assert_ne!(a, c, "seeds must decorrelate the same phase");
    for kind in [
        FaultKind::Panic,
        FaultKind::ForceUnknown,
        FaultKind::DeadlineExpired,
    ] {
        assert!(
            a.contains(&Some(kind)),
            "rate 0.5 over 100 jobs should plan at least one {kind:?}"
        );
    }
    let off = FaultPlan::new(7, 0.0);
    assert!(!off.is_active());
    assert!((0..100).all(|ix| off.fault_for_attempt("mupath", ix, 0).is_none()));
}
