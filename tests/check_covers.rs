//! `mc::Checker::check_covers` — one grouped query over a fleet of covers
//! that share an assume list — against one-shot `check_cover` queries on
//! generated designs. Not a fuzz oracle: the designs come from the fuzz
//! generator at fixed seeds, so the `fuzz` campaigns do no extra work.

use fuzz::{build, replay_witness, sample_genome, GenConfig};
use mc::{Checker, McConfig, Outcome, UndeterminedReason};
use netlist::{Netlist, SignalId};
use prng::Rng;
use sat::{BudgetPool, CancelToken};
use std::sync::Arc;
use std::time::Duration;

const DESIGNS: u64 = 256;
const FLEET: usize = 8;
const BOUND: usize = 8;

/// One generated design with its fleet of up to [`FLEET`] one-bit covers
/// (the generator's cover first) and an assume list: on odd seeds, the
/// first one-bit signal outside the fleet, when there is one.
struct Case {
    seed: u64,
    netlist: Netlist,
    covers: Vec<SignalId>,
    assumes: Vec<SignalId>,
}

fn cases() -> impl Iterator<Item = Case> {
    (0..DESIGNS).map(|seed| {
        let d = build(&sample_genome(
            &mut Rng::new(0xC0FE_0000 + seed),
            &GenConfig::default(),
        ));
        let bits: Vec<SignalId> = d
            .netlist
            .iter()
            .filter(|&(id, n)| n.width == 1 && id != d.cover)
            .map(|(id, _)| id)
            .take(FLEET)
            .collect();
        let mut covers = vec![d.cover];
        covers.extend(bits.iter().take(FLEET - 1));
        let assume = bits.get(FLEET - 1).filter(|_| seed % 2 == 1);
        Case {
            seed,
            netlist: d.netlist,
            covers,
            assumes: assume.into_iter().copied().collect(),
        }
    })
}

fn config(conflict_budget: Option<u64>) -> McConfig {
    McConfig::bounded(BOUND, conflict_budget)
}

/// Prepares a fresh checker before its queries (a fault, a spent pool).
type Arm<'a> = &'a dyn Fn(&mut Checker<'_>);

/// An outcome without its witness.
fn verdict(o: &Outcome) -> String {
    match o {
        Outcome::Reachable(_) => "reachable".into(),
        Outcome::Unreachable => "unreachable".into(),
        Outcome::Undetermined(r) => format!("undetermined({})", r.label()),
    }
}

/// Each cover's one-shot verdict on a fresh checker that `arm` prepares.
fn one_shot(case: &Case, cfg: McConfig, arm: Arm<'_>) -> Vec<String> {
    case.covers
        .iter()
        .map(|&c| {
            let mut chk = Checker::new(&case.netlist, cfg);
            arm(&mut chk);
            verdict(&chk.check_cover(c, &case.assumes))
        })
        .collect()
}

/// The grouped verdicts on one fresh checker that `arm` prepares, after
/// checking that each cover counts once in the stats.
fn grouped(case: &Case, cfg: McConfig, arm: Arm<'_>) -> Vec<Outcome> {
    let mut chk = Checker::new(&case.netlist, cfg);
    arm(&mut chk);
    let outcomes = chk.check_covers(&case.covers, &case.assumes);
    let st = chk.stats();
    let n = case.covers.len() as u64;
    assert_eq!(outcomes.len(), case.covers.len());
    assert_eq!(
        st.properties, n,
        "seed {}: each cover counts once",
        case.seed
    );
    assert_eq!(st.reachable + st.unreachable + st.undetermined, n);
    outcomes
}

#[test]
fn grouped_verdicts_match_one_shot_queries_and_witnesses_replay() {
    let (mut groups, mut reachable, mut unreachable) = (0, 0, 0);
    for case in cases() {
        let outcomes = grouped(&case, config(None), &|_| {});
        let got: Vec<String> = outcomes.iter().map(verdict).collect();
        assert_eq!(
            got,
            one_shot(&case, config(None), &|_| {}),
            "seed {}: grouped verdicts differ from one-shot queries",
            case.seed
        );
        for (o, &c) in outcomes.iter().zip(&case.covers) {
            if let Outcome::Reachable(trace) = o {
                replay_witness(&case.netlist, trace, c, None)
                    .unwrap_or_else(|e| panic!("seed {}: {e}", case.seed));
                reachable += 1;
            } else {
                unreachable += 1;
            }
        }
        groups += usize::from(case.covers.len() > 1);
    }
    // The sample exercises both verdicts on real groups.
    assert!(groups > DESIGNS as usize / 2, "{groups} multi-cover fleets");
    assert!(
        reachable > 100 && unreachable > 100,
        "{reachable}/{unreachable}"
    );
}

#[test]
fn forced_degradation_falls_back_to_per_cover_outcomes() {
    let fault = |chk: &mut Checker<'_>| chk.set_fault(UndeterminedReason::FaultInjected);
    let spent = |chk: &mut Checker<'_>| chk.set_budget_pool(Arc::new(BudgetPool::new(Some(0))));
    let expired = |chk: &mut Checker<'_>| {
        chk.set_cancel_token(Arc::new(CancelToken::deadline_in(Duration::ZERO)))
    };
    let legs: [(&str, Arm<'_>); 3] = [
        ("fault", &fault),
        ("exhausted pool", &spent),
        ("expired deadline", &expired),
    ];
    for case in cases() {
        for (leg, arm) in legs {
            let got: Vec<String> = grouped(&case, config(None), arm)
                .iter()
                .map(verdict)
                .collect();
            assert_eq!(
                got,
                one_shot(&case, config(None), arm),
                "seed {}, {leg}: grouped outcomes differ from check_cover's",
                case.seed
            );
        }
    }
}

/// Under a conflict budget of 1 a grouped query may decide covers that a
/// lone query cannot (a disjunction can be satisfied without a conflict
/// where each disjunct alone needs one), so the two agree only up to
/// budget exhaustion: each outcome is the cover's verdict or
/// `undetermined(budget)`, the reason `check_cover` gives, and a cover
/// whose group ran out goes back to its own query.
#[test]
fn a_spent_conflict_budget_only_widens_verdicts() {
    let budget = "undetermined(budget)";
    let (mut decided, mut widened) = (0, 0);
    for case in cases() {
        let exact = one_shot(&case, config(None), &|_| {});
        let got = grouped(&case, config(Some(1)), &|_| {});
        let lone = one_shot(&case, config(Some(1)), &|_| {});
        for ((g, l), want) in got.iter().map(verdict).zip(lone).zip(&exact) {
            for (who, v) in [("grouped", &g), ("one-shot", &l)] {
                assert!(
                    v == want || v == budget,
                    "seed {}: {who} outcome {v} at budget 1, verdict {want}",
                    case.seed
                );
            }
            decided += usize::from(g == *want);
            widened += usize::from(g == budget && *want != budget);
        }
    }
    assert!(
        decided > 0 && widened > 0,
        "{decided} decided, {widened} widened"
    );
}
