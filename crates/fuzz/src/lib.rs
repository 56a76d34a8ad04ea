//! Differential-oracle fuzzing of the verification stack.
//!
//! The paper's soundness story rests on every µPATH and leakage verdict
//! being backed by a formal engine; this crate stress-tests those engines
//! against *independent* implementations on randomly generated designs
//! (see `DESIGN.md` §9). One [`run_fuzz`] call:
//!
//! 1. derives a genome per case from the run seed ([`gen`]),
//! 2. builds it into a lint-clean netlist (asserted every case),
//! 3. runs the design through the configured [`oracle::OracleKind`]s, all
//!    on one shared [`Case`],
//! 4. shrinks any mismatch with [`shrink::shrink`] and serializes a
//!    minimized, replayable [`repro::Repro`],
//! 5. returns a byte-deterministic [`FuzzReport`].
//!
//! Steps 1–3 run on several threads, one case per claim; steps 4–5 fold
//! each case's verdicts into the report in case order. Identical seeds
//! therefore produce byte-identical reports at any thread count —
//! wall-clock never enters the report, and a deadline only truncates the
//! run at a case boundary (recorded in the `completed` flag).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

pub mod dpll;
pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;

pub use gen::{build, lint, sample_genome, BuiltDesign, GenConfig, GenOp, Genome};
pub use oracle::{replay_witness, Case, CaseResult, OracleKind, OracleOpts};
pub use repro::Repro;
pub use shrink::shrink as shrink_genome;

use jsonio::Json;
use prng::Rng;
use sat::CancelToken;

/// A deliberately planted engine defect, reachable only through test
/// configuration — used to prove the oracles actually catch bugs (and to
/// exercise the shrink/repro pipeline end to end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// Mutates the satisfaction comparison inside the reference DPLL, so
    /// oracle (a) sees the reference disagree with CDCL.
    DpllBadSat,
    /// Injects a `ForceUnknown` fault into the BMC checker and misreads
    /// the degraded `Undetermined` as an `Unreachable` proof — the
    /// verdict-flipping failure mode `--fault-rate` runs must never turn
    /// into, caught by oracle (b)'s brute-force enumeration.
    ForceUnknownMisread,
    /// Skips the cone-fingerprint check inside the warm leg of oracle
    /// (h), replaying every pre-edit verdict as if its cone were
    /// untouched — the stale-cache failure mode cone-keyed caching
    /// exists to prevent, caught when the edit moves a verdict or
    /// invalidates a cached witness.
    ConeStaleReplay,
}

/// One [`run_fuzz`] invocation's knobs.
#[derive(Clone)]
pub struct FuzzConfig {
    /// Base seed; every genome and verdict derives from it.
    pub seed: u64,
    /// Number of designs to generate (each runs through every oracle).
    pub cases: u64,
    /// Generator size knobs.
    pub gen: GenConfig,
    /// BMC bound shared by all oracles.
    pub bound: usize,
    /// Which oracles to run, in order.
    pub oracles: Vec<OracleKind>,
    /// Shrinker predicate-call budget per mismatch.
    pub shrink_attempts: usize,
    /// Stop the run once this many mismatches were minimized.
    pub max_mismatches: usize,
    /// Wall-clock stop, polled as each case is claimed (reports stay
    /// deterministic as long as it never fires).
    pub deadline: Option<Arc<CancelToken>>,
    /// Threads the cases run on; `0` selects [`mc::default_threads`]. The
    /// report does not depend on it.
    pub threads: usize,
    /// A planted defect (tests only).
    pub seeded_bug: Option<SeededBug>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            cases: 16,
            // Small state spaces keep the brute-force reference engines
            // exhaustive rather than skipped.
            gen: GenConfig {
                max_cells: 20,
                max_regs: 2,
                max_inputs: 2,
                max_width: 3,
            },
            bound: 4,
            oracles: OracleKind::ALL.to_vec(),
            shrink_attempts: 300,
            max_mismatches: 5,
            deadline: None,
            threads: 0,
            seeded_bug: None,
        }
    }
}

/// Verdict bookkeeping for one oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Cases where both engines agreed.
    pub agree: u64,
    /// Cases where the engines disagreed (each has a repro).
    pub mismatch: u64,
    /// Cases skipped before comparison, by reason.
    pub skipped: BTreeMap<String, u64>,
    /// Agreement lines by canonical verdict (e.g. `reachable@2`).
    pub verdicts: BTreeMap<String, u64>,
}

/// The deterministic result of a fuzz run.
pub struct FuzzReport {
    /// Echo of the run seed.
    pub seed: u64,
    /// Echo of the requested case count.
    pub cases: u64,
    /// Echo of the BMC bound.
    pub bound: usize,
    /// Cases actually generated and oracled.
    pub cases_run: u64,
    /// False when the deadline or the mismatch cap cut the run short.
    pub completed: bool,
    /// Per-oracle outcome counts, in [`OracleKind::ALL`] order.
    pub stats: Vec<(OracleKind, OracleStats)>,
    /// Minimized repros, in discovery order.
    pub mismatches: Vec<Repro>,
}

impl FuzzReport {
    /// True when any oracle disagreed.
    pub fn has_mismatches(&self) -> bool {
        !self.mismatches.is_empty()
    }

    fn stats_mut(&mut self, kind: OracleKind) -> &mut OracleStats {
        let ix = self
            .stats
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("stats row exists for every configured oracle");
        &mut self.stats[ix].1
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        let oracles = self
            .stats
            .iter()
            .map(|(kind, st)| {
                let skipped = st
                    .skipped
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Int(v)))
                    .collect();
                let verdicts = st
                    .verdicts
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Int(v)))
                    .collect();
                (
                    kind.label().to_string(),
                    Json::Obj(vec![
                        ("agree".into(), Json::Int(st.agree)),
                        ("mismatch".into(), Json::Int(st.mismatch)),
                        ("skipped".into(), Json::Obj(skipped)),
                        ("verdicts".into(), Json::Obj(verdicts)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("synthlc-fuzz-v1".into())),
            ("seed".into(), Json::Int(self.seed)),
            ("cases".into(), Json::Int(self.cases)),
            ("bound".into(), Json::Int(self.bound as u64)),
            ("cases_run".into(), Json::Int(self.cases_run)),
            ("completed".into(), Json::Bool(self.completed)),
            ("oracles".into(), Json::Obj(oracles)),
            (
                "mismatches".into(),
                Json::Arr(self.mismatches.iter().map(Repro::to_json).collect()),
            ),
        ])
    }

    /// Pretty-printed report; byte-identical across runs of the same
    /// completed configuration.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

/// Derives the case's private seed from the run seed (same construction
/// as [`prng::for_each_case`], so a failing case index is reproducible in
/// isolation).
pub fn case_seed(run_seed: u64, case: u64) -> u64 {
    Rng::new(run_seed ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// Runs the configured differential fuzz campaign.
///
/// Cases run on [`FuzzConfig::threads`] threads and are folded into the
/// report in case order ([`mc::run_ordered`]): a mismatch is shrunk while
/// folding, from its genome regenerated by [`case_seed`], so the report is
/// the sequential one at every thread count.
///
/// # Panics
/// Panics if a generated design fails the lint suite — that is a
/// generator bug, not an engine mismatch, and must never be shrunk away.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        seed: cfg.seed,
        cases: cfg.cases,
        bound: cfg.bound,
        cases_run: 0,
        completed: true,
        stats: cfg
            .oracles
            .iter()
            .map(|&k| (k, OracleStats::default()))
            .collect(),
        mismatches: Vec::new(),
    };
    let opts = OracleOpts {
        bound: cfg.bound,
        seeded_bug: cfg.seeded_bug,
    };
    let genome = |case: u64| sample_genome(&mut Rng::new(case_seed(cfg.seed, case)), &cfg.gen);
    let threads = if cfg.threads == 0 {
        mc::default_threads()
    } else {
        cfg.threads
    };
    // A case count past `usize` could never finish anyway.
    let cases = usize::try_from(cfg.cases).unwrap_or(usize::MAX);
    // Every case's verdicts, or `None` when the deadline had fired by the
    // time it was claimed.
    let work = |ix: usize| -> Option<Vec<CaseResult>> {
        if cfg.deadline.as_deref().is_some_and(|d| d.fired().is_some()) {
            return None;
        }
        let design = build(&genome(ix as u64));
        let lint_report = lint(&design);
        assert!(
            lint_report.is_clean(),
            "generator invariant violated on case {ix} (seed {}):\n{}",
            cfg.seed,
            lint_report.render()
        );
        let case = Case::new(design, opts.clone());
        Some(cfg.oracles.iter().map(|&kind| case.run(kind)).collect())
    };
    mc::run_ordered(cases, threads, work, |ix, results| {
        let Some(results) = results else {
            report.completed = false;
            return ControlFlow::Break(());
        };
        let case = ix as u64;
        report.cases_run += 1;
        for (&kind, result) in cfg.oracles.iter().zip(results) {
            match result {
                CaseResult::Agree(verdict) => {
                    let st = report.stats_mut(kind);
                    st.agree += 1;
                    *st.verdicts.entry(verdict).or_insert(0) += 1;
                }
                CaseResult::Skipped(reason) => {
                    *report
                        .stats_mut(kind)
                        .skipped
                        .entry(reason.to_string())
                        .or_insert(0) += 1;
                }
                CaseResult::Mismatch {
                    expected,
                    actual,
                    detail,
                } => {
                    report.stats_mut(kind).mismatch += 1;
                    let run = |g: &Genome| Case::new(build(g), opts.clone()).run(kind);
                    let (small, attempts) =
                        shrink_genome(&genome(case), |g| run(g).is_mismatch(), cfg.shrink_attempts);
                    // Re-run on the minimized genome so the recorded
                    // verdicts describe the shrunk design.
                    let (expected, actual, detail) = match run(&small) {
                        CaseResult::Mismatch {
                            expected,
                            actual,
                            detail,
                        } => (expected, actual, detail),
                        _ => (expected, actual, detail),
                    };
                    report.mismatches.push(Repro {
                        oracle: kind,
                        seed: cfg.seed,
                        case,
                        bound: cfg.bound as u64,
                        genome: small,
                        expected,
                        actual,
                        detail,
                        shrink_attempts: attempts as u64,
                    });
                    if report.mismatches.len() >= cfg.max_mismatches {
                        report.completed = false;
                        return ControlFlow::Break(());
                    }
                }
            }
        }
        ControlFlow::Continue(())
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report plus every repro line: all a run prints.
    fn transcript(report: &FuzzReport) -> String {
        let mut out = report.render();
        for repro in &report.mismatches {
            out.push_str(&repro.encode());
            out.push('\n');
        }
        out
    }

    /// Runs `cfg` at 1, 2 and 3 threads, asserts the three transcripts are
    /// byte-identical, and returns the single-thread report.
    fn run_at_every_thread_count(cfg: &FuzzConfig) -> FuzzReport {
        let seq = run_fuzz(&FuzzConfig {
            threads: 1,
            ..cfg.clone()
        });
        for threads in [2, 3] {
            let par = run_fuzz(&FuzzConfig {
                threads,
                ..cfg.clone()
            });
            assert_eq!(transcript(&par), transcript(&seq), "{threads} threads");
        }
        seq
    }

    #[test]
    fn healthy_engines_agree_and_reports_are_deterministic() {
        let cfg = FuzzConfig {
            seed: 0xF00D,
            cases: 12,
            ..Default::default()
        };
        let a = run_at_every_thread_count(&cfg);
        assert!(
            !a.has_mismatches(),
            "cross-engine mismatch on healthy engines:\n{}",
            a.render()
        );
        assert_eq!(a.cases_run, 12);
        assert!(a.completed);
        // Sanity: the oracles did real comparisons, not wall-to-wall skips.
        let total_agree: u64 = a.stats.iter().map(|(_, s)| s.agree).sum();
        assert!(total_agree >= 12, "agreement count {total_agree} too low");
    }

    #[test]
    fn seeded_dpll_bug_is_caught_shrunk_and_replayable() {
        let cfg = FuzzConfig {
            seed: 0xBEEF,
            cases: 8,
            oracles: vec![OracleKind::Sat],
            max_mismatches: 1,
            seeded_bug: Some(SeededBug::DpllBadSat),
            ..Default::default()
        };
        let report = run_fuzz(&cfg);
        assert!(
            report.has_mismatches(),
            "planted DPLL defect went undetected"
        );
        let repro = &report.mismatches[0];
        let original = sample_genome(&mut Rng::new(case_seed(repro.seed, repro.case)), &cfg.gen);
        assert!(
            repro.genome.ops.len() <= original.ops.len(),
            "shrinking never grows the genome"
        );
        // The serialized line replays from nothing.
        let line = repro.encode();
        let back = Repro::decode(&line).expect("repro line decodes");
        assert!(
            back.replay(Some(SeededBug::DpllBadSat)).is_mismatch(),
            "replay with the planted bug must reproduce the mismatch"
        );
        assert!(
            !back.replay(None).is_mismatch(),
            "replay on healthy engines must come back clean"
        );
    }

    #[test]
    fn seeded_verdict_flip_is_caught_by_brute_force() {
        let cfg = FuzzConfig {
            seed: 0xCAFE,
            cases: 16,
            oracles: vec![OracleKind::Bmc],
            max_mismatches: 1,
            seeded_bug: Some(SeededBug::ForceUnknownMisread),
            ..Default::default()
        };
        let report = run_fuzz(&cfg);
        assert!(
            report.has_mismatches(),
            "flipped ForceUnknown verdict went undetected:\n{}",
            report.render()
        );
        let repro = &report.mismatches[0];
        assert_eq!(repro.oracle, OracleKind::Bmc);
        assert!(repro.expected.starts_with("reachable"));
        assert!(
            !repro.replay(None).is_mismatch(),
            "healthy BMC agrees with brute force on the shrunk design"
        );
    }

    /// The stale-replay drill, run with oracle (h) alone and after oracle
    /// (g) has filled the case's reference table that (h)'s cold leg reads.
    #[test]
    fn seeded_stale_cone_replay_is_caught_shrunk_and_replayable() {
        for oracles in [
            vec![OracleKind::Cone],
            vec![OracleKind::Incremental, OracleKind::Cone],
        ] {
            let cfg = FuzzConfig {
                seed: 0xC04E,
                cases: 24,
                oracles: oracles.clone(),
                max_mismatches: 1,
                seeded_bug: Some(SeededBug::ConeStaleReplay),
                ..Default::default()
            };
            let report = run_fuzz(&cfg);
            assert!(
                report.has_mismatches(),
                "stale cone-cache replay went undetected with {oracles:?}:\n{}",
                report.render()
            );
            let repro = &report.mismatches[0];
            assert_eq!(repro.oracle, OracleKind::Cone);
            let original =
                sample_genome(&mut Rng::new(case_seed(repro.seed, repro.case)), &cfg.gen);
            assert!(
                repro.genome.ops.len() <= original.ops.len(),
                "shrinking never grows the genome"
            );
            let back = Repro::decode(&repro.encode()).expect("repro line decodes");
            assert!(
                back.replay(Some(SeededBug::ConeStaleReplay)).is_mismatch(),
                "replay with the planted bug must reproduce the mismatch"
            );
            assert!(
                !back.replay(None).is_mismatch(),
                "fingerprint-checked cache agrees with a fresh re-run on the shrunk design"
            );
        }
    }

    #[test]
    fn seeded_bug_reports_are_identical_at_every_thread_count() {
        use OracleKind::{Bmc, Cone, Incremental, Sat};
        let drills = [
            (SeededBug::DpllBadSat, vec![Sat], 0xBEEF, 8),
            (SeededBug::ForceUnknownMisread, vec![Bmc], 0xCAFE, 16),
            (SeededBug::ConeStaleReplay, vec![Cone], 0xC04E, 24),
            (
                SeededBug::ConeStaleReplay,
                vec![Incremental, Cone],
                0xC04E,
                24,
            ),
        ];
        for (bug, oracles, seed, cases) in drills {
            for max_mismatches in [1, 2, 5] {
                let report = run_at_every_thread_count(&FuzzConfig {
                    seed,
                    cases,
                    oracles: oracles.clone(),
                    max_mismatches,
                    seeded_bug: Some(bug),
                    ..Default::default()
                });
                assert!(report.has_mismatches(), "{bug:?} went undetected");
            }
        }
    }

    #[test]
    fn prefired_deadline_truncates_but_stays_well_formed() {
        for threads in 1..=3 {
            let cfg = FuzzConfig {
                seed: 9,
                cases: 50,
                deadline: Some(Arc::new(CancelToken::deadline_in(
                    std::time::Duration::ZERO,
                ))),
                threads,
                ..Default::default()
            };
            let report = run_fuzz(&cfg);
            assert_eq!(report.cases_run, 0, "{threads} threads");
            assert!(!report.completed);
            assert!(report.render().contains("\"completed\": false"));
        }
    }
}
