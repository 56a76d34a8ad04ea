//! The property-checking engine: cover/assume queries over an incrementally
//! shared unrolling, with the paper's reachable / unreachable / undetermined
//! outcome trichotomy (§V-B) and an optional k-induction unreachability
//! prover.

use crate::elab::Elab;
use crate::trace::Trace;
use crate::unroll::{InitMode, Unrolling};
use netlist::{Netlist, SignalId};
use sat::{BudgetPool, CancelToken, Lit, SolveResult, StopCause};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a verdict degraded to [`Outcome::Undetermined`]. Structured so that
/// reports can say *which* resource gave out, and so the fault-injection
/// harness can assert it only ever widens verdicts (DESIGN.md §8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum UndeterminedReason {
    /// A conflict budget ran out — the per-query budget, the shared
    /// [`BudgetPool`] cap, or an incomplete bound without an induction
    /// proof (the paper's "budget/bound exhausted" bucket, §V-B).
    BudgetExhausted,
    /// A wall-clock deadline passed or the run was cancelled.
    Deadline,
    /// The job panicked and the supervisor caught it.
    JobPanicked,
    /// The fault-injection harness forced this verdict.
    FaultInjected,
}

impl UndeterminedReason {
    /// Stable lowercase label used in journals and report lines.
    pub fn label(&self) -> &'static str {
        match self {
            UndeterminedReason::BudgetExhausted => "budget",
            UndeterminedReason::Deadline => "deadline",
            UndeterminedReason::JobPanicked => "panicked",
            UndeterminedReason::FaultInjected => "fault",
        }
    }

    /// Parses a [`label`](Self::label) back.
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "budget" => UndeterminedReason::BudgetExhausted,
            "deadline" => UndeterminedReason::Deadline,
            "panicked" => UndeterminedReason::JobPanicked,
            "fault" => UndeterminedReason::FaultInjected,
            _ => return None,
        })
    }
}

/// Outcome of a cover query, mirroring the paper's model-checker outcomes.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A witness trace satisfying the cover (and all assumes) exists.
    Reachable(Trace),
    /// Proven: no such trace exists (complete bound or induction).
    Unreachable,
    /// No verdict; the reason records which resource or fault gave out.
    Undetermined(UndeterminedReason),
}

impl Outcome {
    /// `true` when reachable.
    pub fn is_reachable(&self) -> bool {
        matches!(self, Outcome::Reachable(_))
    }

    /// `true` when proven unreachable.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, Outcome::Unreachable)
    }

    /// `true` when undetermined.
    pub fn is_undetermined(&self) -> bool {
        matches!(self, Outcome::Undetermined(_))
    }

    /// Why the verdict is undetermined, when it is.
    pub fn undetermined_reason(&self) -> Option<UndeterminedReason> {
        match self {
            Outcome::Undetermined(r) => Some(*r),
            _ => None,
        }
    }

    /// The witness trace, when reachable.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            Outcome::Reachable(t) => Some(t),
            _ => None,
        }
    }
}

/// Configuration of a [`Checker`].
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Unrolling depth (number of cycles explored from reset).
    pub bound: usize,
    /// Conflict budget per property; exhausting it yields `Undetermined`.
    pub conflict_budget: Option<u64>,
    /// Declare the bound *complete*: every behaviour of interest manifests
    /// within it, so in-bound UNSAT proves unreachability. Our pipeline DUVs
    /// drain within a statically known number of cycles, which justifies
    /// this (see `DESIGN.md` §4).
    pub bound_is_complete: bool,
    /// When the bound is not complete, attempt a k-induction proof before
    /// reporting `Undetermined`.
    pub try_induction: bool,
    /// Induction depth (k).
    pub induction_depth: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            bound: 20,
            conflict_budget: Some(2_000_000),
            bound_is_complete: true,
            try_induction: false,
            induction_depth: 4,
        }
    }
}

/// Aggregated per-checker property statistics (the §VII-B3 analogue).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Properties evaluated.
    pub properties: u64,
    /// Reachable outcomes.
    pub reachable: u64,
    /// Unreachable outcomes.
    pub unreachable: u64,
    /// Undetermined outcomes.
    pub undetermined: u64,
    /// Total wall time in property evaluation.
    pub total_time: Duration,
    /// Longest single property evaluation.
    pub max_time: Duration,
    /// Signal bits in the netlist before cone-of-influence slicing.
    pub coi_bits_before: u64,
    /// Signal bits actually bit-blasted (equals `coi_bits_before` when no
    /// slice is active).
    pub coi_bits_after: u64,
    /// Properties discharged statically (no SAT call) by taint-reachability
    /// pruning; these are *also* counted in `properties`/`unreachable` so
    /// outcome counts match a run without pruning.
    pub discharged_static: u64,
    /// Query batches served by a persistent pooled context that was already
    /// warm (solver + unrolling carried over from an earlier batch).
    pub ctx_reused: u64,
    /// Unrolling frames grown *in place* on a persistent context
    /// (`Checker::ensure_bound`) instead of being rebuilt from scratch.
    pub frames_extended: u64,
    /// Unrolling frames built from scratch by throwaway (non-pooled)
    /// checkers at construction time.
    pub frames_rebuilt: u64,
    /// Live learnt clauses inherited from earlier batches when a pooled
    /// context was checked out again (summed over all reuses).
    pub learnts_carried: u64,
    /// Undetermined outcomes caused by budget/bound exhaustion.
    pub undet_budget: u64,
    /// Undetermined outcomes caused by a deadline or cancellation.
    pub undet_deadline: u64,
    /// Undetermined outcomes caused by a caught job panic.
    pub undet_panicked: u64,
    /// Undetermined outcomes caused by an injected fault.
    pub undet_fault: u64,
    /// Live learnt clauses in the solver's core tier (LBD ≤ 2) at the
    /// last query — a gauge, not a counter; `absorb` sums gauges across
    /// workers so a merged record reads as fleet-wide live totals.
    pub sat_learnt_core: u64,
    /// Live learnt clauses in the mid tier at the last query (gauge).
    pub sat_learnt_mid: u64,
    /// Live learnt clauses in the local tier at the last query (gauge).
    pub sat_learnt_local: u64,
    /// Live binary clauses (original + learnt) at the last query (gauge).
    pub sat_binary_clauses: u64,
    /// Learnt clauses deleted by DB reduction or inprocessing (counter).
    pub sat_clauses_deleted: u64,
    /// Learnt clauses removed as subsumed during inprocessing (counter).
    pub sat_subsumed: u64,
    /// Literals removed by self-subsuming resolution (counter).
    pub sat_strengthened: u64,
    /// Adaptive restarts postponed by trail-size blocking (counter).
    pub sat_blocked_restarts: u64,
    /// Queries that reused retained assumption-trail levels (counter).
    pub sat_trail_reuses: u64,
    /// Total retained assumption levels reused across queries (counter).
    pub sat_reused_levels: u64,
    /// Sum of learnt-clause LBD at learn time (counter).
    pub sat_lbd_sum: u64,
    /// Learnt clauses contributing to `sat_lbd_sum` (counter).
    pub sat_lbd_count: u64,
    /// Largest LBD seen at learn time.
    pub sat_max_lbd: u32,
}

impl CheckStats {
    /// Average seconds per property.
    pub fn avg_seconds(&self) -> f64 {
        if self.properties == 0 {
            0.0
        } else {
            self.total_time.as_secs_f64() / self.properties as f64
        }
    }

    /// Percentage of undetermined outcomes.
    pub fn undetermined_pct(&self) -> f64 {
        if self.properties == 0 {
            0.0
        } else {
            100.0 * self.undetermined as f64 / self.properties as f64
        }
    }

    /// Mean LBD of learnt clauses at learn time (0 when none learnt).
    pub fn sat_avg_lbd(&self) -> f64 {
        if self.sat_lbd_count == 0 {
            0.0
        } else {
            self.sat_lbd_sum as f64 / self.sat_lbd_count as f64
        }
    }

    /// Live learnt clauses across all tiers at the last query (gauge).
    pub fn sat_learnt_live(&self) -> u64 {
        self.sat_learnt_core + self.sat_learnt_mid + self.sat_learnt_local
    }

    /// Merges another stats record into this one.
    pub fn absorb(&mut self, other: &CheckStats) {
        self.properties += other.properties;
        self.reachable += other.reachable;
        self.unreachable += other.unreachable;
        self.undetermined += other.undetermined;
        self.total_time += other.total_time;
        self.max_time = self.max_time.max(other.max_time);
        self.coi_bits_before += other.coi_bits_before;
        self.coi_bits_after += other.coi_bits_after;
        self.discharged_static += other.discharged_static;
        self.ctx_reused += other.ctx_reused;
        self.frames_extended += other.frames_extended;
        self.frames_rebuilt += other.frames_rebuilt;
        self.learnts_carried += other.learnts_carried;
        self.undet_budget += other.undet_budget;
        self.undet_deadline += other.undet_deadline;
        self.undet_panicked += other.undet_panicked;
        self.undet_fault += other.undet_fault;
        self.sat_learnt_core += other.sat_learnt_core;
        self.sat_learnt_mid += other.sat_learnt_mid;
        self.sat_learnt_local += other.sat_learnt_local;
        self.sat_binary_clauses += other.sat_binary_clauses;
        self.sat_clauses_deleted += other.sat_clauses_deleted;
        self.sat_subsumed += other.sat_subsumed;
        self.sat_strengthened += other.sat_strengthened;
        self.sat_blocked_restarts += other.sat_blocked_restarts;
        self.sat_trail_reuses += other.sat_trail_reuses;
        self.sat_reused_levels += other.sat_reused_levels;
        self.sat_lbd_sum += other.sat_lbd_sum;
        self.sat_lbd_count += other.sat_lbd_count;
        self.sat_max_lbd = self.sat_max_lbd.max(other.sat_max_lbd);
    }

    /// Records one undetermined outcome of the given reason (counter
    /// bookkeeping for results produced outside a [`Checker`], e.g. a
    /// supervised job that panicked before reporting stats).
    pub fn count_undetermined(&mut self, reason: UndeterminedReason) {
        self.undetermined += 1;
        match reason {
            UndeterminedReason::BudgetExhausted => self.undet_budget += 1,
            UndeterminedReason::Deadline => self.undet_deadline += 1,
            UndeterminedReason::JobPanicked => self.undet_panicked += 1,
            UndeterminedReason::FaultInjected => self.undet_fault += 1,
        }
    }

    /// Undetermined outcomes that stem from degradation (panic, fault,
    /// deadline) rather than ordinary budget exhaustion.
    pub fn degraded(&self) -> u64 {
        self.undet_deadline + self.undet_panicked + self.undet_fault
    }

    /// Fraction of bits kept after cone-of-influence slicing (1.0 = none).
    pub fn coi_ratio(&self) -> f64 {
        if self.coi_bits_before == 0 {
            1.0
        } else {
            self.coi_bits_after as f64 / self.coi_bits_before as f64
        }
    }
}

/// A bounded model checker over one netlist, shared across many properties.
///
/// All properties are *cover* properties over 1-bit signals, optionally
/// constrained by *assume* signals that must hold at every cycle — exactly
/// the SVA subset the paper's templates use. The `sva` crate compiles richer
/// temporal properties into monitor circuits whose outputs are the 1-bit
/// signals passed here.
#[derive(Debug)]
pub struct Checker<'a> {
    nl: &'a Netlist,
    cfg: McConfig,
    unroll: Unrolling<'a>,
    /// Activation literal implying "assume signal holds at all frames".
    /// Ordered map: `ensure_bound` iterates it to extend activation clauses,
    /// and the clause-addition order must not depend on hash randomness.
    assume_cache: BTreeMap<SignalId, Lit>,
    /// Activation literal implying "cover signal holds at some frame".
    cover_cache: BTreeMap<SignalId, Lit>,
    stats: CheckStats,
    /// Globally shared conflict/propagation account (see [`BudgetPool`]).
    pool: Option<Arc<BudgetPool>>,
    /// Solver-stats snapshot at the last pool charge, for delta accounting.
    charged: sat::SolverStats,
    /// Cooperative cancellation, shared with the solve loop.
    cancel: Option<Arc<CancelToken>>,
    /// When set, every subsequent query degrades to this reason without
    /// solving (the fault-injection harness's forced-Unknown mode). Cleared
    /// by [`Checker::begin_batch`] so a fault injected into one pooled batch
    /// cannot cascade into the next.
    fault: Option<UndeterminedReason>,
    /// Batches started via [`Checker::begin_batch`] (0 for checkers that
    /// never pass through a pool).
    batches: u64,
    /// Construction-time (coi_bits_before, coi_bits_after), re-seeded into
    /// the per-batch stats by [`Checker::begin_batch`].
    coi_seed: (u64, u64),
    /// Persistent k-induction twin of this checker's context
    /// ([`InitMode::Free`], same elaboration and slice), built lazily on the
    /// first induction attempt and reused across queries so its learnt
    /// clauses and budget charges accumulate like the main solver's.
    ind: Option<Unrolling<'a>>,
    /// Induction-solver stats snapshot at the last pool charge.
    ind_charged: sat::SolverStats,
}

impl<'a> Checker<'a> {
    /// Creates a checker and eagerly unrolls to the configured bound.
    ///
    /// # Panics
    /// Panics if the netlist is invalid.
    pub fn new(nl: &'a Netlist, cfg: McConfig) -> Self {
        Self::with_free_regs(nl, cfg, &[])
    }

    /// Like [`Checker::new`], but the listed registers (typically the
    /// architectural register file and memory) start *symbolic* rather than
    /// at their reset values — the paper's reset discipline (§V-B).
    pub fn with_free_regs(nl: &'a Netlist, cfg: McConfig, free: &[SignalId]) -> Self {
        Self::with_elab(nl, cfg, free, Arc::new(Elab::new(nl)))
    }

    /// Like [`Checker::with_free_regs`], but reuses a shared elaboration of
    /// the netlist — validation and topological ordering are skipped, which
    /// matters when many checkers (e.g. parallel workers) target the same
    /// harness.
    ///
    /// # Panics
    /// Panics if the elaboration does not match the netlist.
    pub fn with_elab(nl: &'a Netlist, cfg: McConfig, free: &[SignalId], elab: Arc<Elab>) -> Self {
        Self::with_coi(nl, cfg, free, elab, None)
    }

    /// Like [`Checker::with_elab`], but restricts bit-blasting to a
    /// cone-of-influence slice. Every cover/assume signal passed to queries
    /// must be inside the slice's targets; verdicts are identical to an
    /// unsliced checker (see [`crate::CoiSlice`]).
    ///
    /// # Panics
    /// Panics if the elaboration or slice does not match the netlist.
    pub fn with_coi(
        nl: &'a Netlist,
        cfg: McConfig,
        free: &[SignalId],
        elab: Arc<Elab>,
        coi: Option<Arc<crate::CoiSlice>>,
    ) -> Self {
        let mut unroll = Unrolling::with_elab(nl, InitMode::Reset, elab);
        unroll.set_free_regs(free);
        unroll.set_coi(coi.clone());
        unroll.extend_to(cfg.bound);
        let mut stats = CheckStats::default();
        match &coi {
            Some(c) => {
                stats.coi_bits_before = c.total_bits;
                stats.coi_bits_after = c.kept_bits;
            }
            None => {
                let total: u64 = nl.iter().map(|(_, n)| n.width as u64).sum();
                stats.coi_bits_before = total;
                stats.coi_bits_after = total;
            }
        }
        // Frames built here are a from-scratch bit-blast; pooled contexts
        // are constructed at bound 0 and grown via `ensure_bound`, which
        // counts into `frames_extended` instead.
        stats.frames_rebuilt = cfg.bound as u64;
        let coi_seed = (stats.coi_bits_before, stats.coi_bits_after);
        Self {
            nl,
            cfg,
            unroll,
            assume_cache: BTreeMap::new(),
            cover_cache: BTreeMap::new(),
            stats,
            pool: None,
            charged: sat::SolverStats::default(),
            cancel: None,
            fault: None,
            batches: 0,
            coi_seed,
            ind: None,
            ind_charged: sat::SolverStats::default(),
        }
    }

    /// Starts a fresh accounting batch on a persistent (pooled) checker:
    /// zeroes the per-batch [`CheckStats`], re-seeds the cone-of-influence
    /// gauge and the live solver-database gauges, clears any injected fault,
    /// and — from the second batch on — records the context reuse and the
    /// learnt clauses carried over from earlier batches. The pool-charge
    /// snapshot is *kept*, so `BudgetPool` delta accounting spans batches
    /// correctly.
    pub fn begin_batch(&mut self) {
        self.batches += 1;
        if self.batches > 1 {
            // The next batch is an unrelated property fleet: keep the
            // permanent core tier (and binaries), shed the mid/local
            // clauses whose watch-list tax outlives their usefulness.
            self.unroll.gate().solver().trim_learnts_for_batch();
        }
        let live = self.unroll.gate().solver().stats();
        let mut stats = CheckStats {
            coi_bits_before: self.coi_seed.0,
            coi_bits_after: self.coi_seed.1,
            ..Default::default()
        };
        if self.batches > 1 {
            stats.ctx_reused = 1;
            stats.learnts_carried = live.learnt_core + live.learnt_mid + live.learnt_local;
        }
        stats.sat_learnt_core = live.learnt_core;
        stats.sat_learnt_mid = live.learnt_mid;
        stats.sat_learnt_local = live.learnt_local;
        stats.sat_binary_clauses = live.binary_clauses;
        self.stats = stats;
        self.fault = None;
    }

    /// Grows the unrolling *in place* to at least `bound` frames (a no-op
    /// when already deep enough). Variable numbering of existing frames is
    /// untouched; cached assume activations are extended over the new
    /// frames (sound: `act → sig@t` for every frame is exactly the assume's
    /// meaning at the deeper bound), while cached cover activations are
    /// retired — a cover over frames `0..old` under-approximates the cover
    /// at the deeper bound, so the next query mints a fresh activation. The
    /// orphaned activation literal is never assumed again and its clause is
    /// trivially satisfiable, so solver state stays sound.
    pub fn ensure_bound(&mut self, bound: usize) {
        if bound <= self.cfg.bound {
            return;
        }
        let old = self.cfg.bound;
        self.unroll.extend_to(bound);
        let cached: Vec<(SignalId, Lit)> =
            self.assume_cache.iter().map(|(&s, &l)| (s, l)).collect();
        for (sig, act) in cached {
            for t in old..bound {
                let at = self.unroll.lit(t, sig);
                self.unroll.gate().add_clause(&[!act, at]);
            }
        }
        self.cover_cache.clear();
        self.stats.frames_extended += (bound - old) as u64;
        self.cfg.bound = bound;
    }

    /// Attaches a shared budget pool: every query charges its
    /// conflict/propagation deltas into the pool, and once the pool's
    /// global cap is exhausted further queries return
    /// [`Outcome::Undetermined`] without solving. When the pool has a cap,
    /// the solve loop also polls it mid-query, bounding cap overshoot to
    /// one poll interval. An uncapped pool is pure accounting and never
    /// alters outcomes (no watch is attached, so the solve loop stays on
    /// its zero-knob path).
    pub fn set_budget_pool(&mut self, pool: Arc<BudgetPool>) {
        if pool.cap().is_some() {
            self.unroll
                .gate()
                .solver()
                .set_pool_watch(Some(Arc::clone(&pool)));
        }
        self.pool = Some(pool);
    }

    /// Attaches a cancellation token: the solve loop polls it, and a fired
    /// token degrades in-flight and subsequent queries to
    /// [`Outcome::Undetermined`] with [`UndeterminedReason::Deadline`].
    pub fn set_cancel_token(&mut self, token: Arc<CancelToken>) {
        self.unroll
            .gate()
            .solver()
            .set_cancel_token(Some(Arc::clone(&token)));
        self.cancel = Some(token);
    }

    /// Forces every subsequent query to degrade to `Undetermined(reason)`
    /// without solving — the fault-injection harness's forced-Unknown
    /// mode. Faults can only widen verdicts: a degraded query never
    /// reports Reachable/Unreachable.
    pub fn set_fault(&mut self, reason: UndeterminedReason) {
        self.fault = Some(reason);
    }

    /// The checker's netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The active configuration.
    pub fn config(&self) -> McConfig {
        self.cfg
    }

    /// Statistics over all properties checked so far.
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Raw SAT-solver statistics (variables, conflicts, propagations).
    pub fn solver_stats(&mut self) -> (usize, sat::SolverStats) {
        let vars = self.unroll.gate().num_vars();
        (vars, self.unroll.gate().solver().stats())
    }

    fn assume_activation(&mut self, sig: SignalId) -> Lit {
        if let Some(&l) = self.assume_cache.get(&sig) {
            return l;
        }
        assert_eq!(self.nl.width(sig), 1, "assume signal must be 1 bit");
        let act = self.unroll.gate().fresh();
        for t in 0..self.cfg.bound {
            let at = self.unroll.lit(t, sig);
            self.unroll.gate().add_clause(&[!act, at]);
        }
        self.assume_cache.insert(sig, act);
        act
    }

    fn cover_activation(&mut self, sig: SignalId) -> Lit {
        if let Some(&l) = self.cover_cache.get(&sig) {
            return l;
        }
        assert_eq!(self.nl.width(sig), 1, "cover signal must be 1 bit");
        let act = self.unroll.gate().fresh();
        let mut clause = vec![!act];
        for t in 0..self.cfg.bound {
            clause.push(self.unroll.lit(t, sig));
        }
        self.unroll.gate().add_clause(&clause);
        self.cover_cache.insert(sig, act);
        act
    }

    /// Checks `cover (cover_sig)` under `assume (a)` for every `a` in
    /// `assumes` (each holding at every cycle).
    pub fn check_cover(&mut self, cover_sig: SignalId, assumes: &[SignalId]) -> Outcome {
        let started = Instant::now();
        if let Some(reason) = self.fault {
            return self.record(started, Outcome::Undetermined(reason));
        }
        if self.pool.as_ref().is_some_and(|p| p.exhausted()) {
            return self.record(
                started,
                Outcome::Undetermined(UndeterminedReason::BudgetExhausted),
            );
        }
        let mut assumptions: Vec<Lit> =
            assumes.iter().map(|&a| self.assume_activation(a)).collect();
        assumptions.push(self.cover_activation(cover_sig));
        self.unroll
            .gate()
            .solver()
            .set_conflict_budget(self.cfg.conflict_budget);
        let result = self.unroll.gate().solver().solve_assuming(&assumptions);
        self.charge_pool();
        let outcome = match result {
            SolveResult::Sat => Outcome::Reachable(Trace::from_model(&self.unroll, self.cfg.bound)),
            SolveResult::Unsat => {
                let proved = self.cfg.bound_is_complete
                    || (self.cfg.try_induction && self.prove_by_induction(cover_sig, assumes));
                if proved {
                    Outcome::Unreachable
                } else {
                    Outcome::Undetermined(UndeterminedReason::BudgetExhausted)
                }
            }
            SolveResult::Unknown => Outcome::Undetermined(self.unknown_reason()),
        };
        self.record(started, outcome)
    }

    /// Maps the solver's stop cause for an `Unknown` result onto the
    /// structured undetermined reason.
    fn unknown_reason(&mut self) -> UndeterminedReason {
        match self.unroll.gate().solver().last_stop() {
            Some(StopCause::Cancelled | StopCause::Deadline) => UndeterminedReason::Deadline,
            _ => UndeterminedReason::BudgetExhausted,
        }
    }

    /// Notes that the *next* property was discharged by a static analysis
    /// (pure bookkeeping; pair with [`Checker::discharge_unreachable`] or a
    /// debug cross-check via [`Checker::check_cover`]).
    pub fn note_static_discharge(&mut self) {
        self.stats.discharged_static += 1;
    }

    /// Records a property as `Unreachable` without any SAT call — used when
    /// a static over-approximation (e.g. taint reachability) already proves
    /// no witness exists. Counts into `properties`/`unreachable` exactly as
    /// a solved query would, so outcome fingerprints match unpruned runs.
    pub fn discharge_unreachable(&mut self) -> Outcome {
        self.record(Instant::now(), Outcome::Unreachable)
    }

    fn record(&mut self, started: Instant, outcome: Outcome) -> Outcome {
        let elapsed = started.elapsed();
        self.stats.properties += 1;
        self.stats.total_time += elapsed;
        self.stats.max_time = self.stats.max_time.max(elapsed);
        match &outcome {
            Outcome::Reachable(_) => self.stats.reachable += 1,
            Outcome::Unreachable => self.stats.unreachable += 1,
            Outcome::Undetermined(reason) => self.stats.count_undetermined(*reason),
        }
        outcome
    }

    /// Charges the main solver's statistics delta since the last charge
    /// into the shared pool (when one is attached) and folds the same
    /// delta into the learnt-DB observability counters.
    fn charge_pool(&mut self) {
        let now = self.unroll.gate().solver().stats();
        if let Some(pool) = &self.pool {
            pool.charge(
                now.conflicts - self.charged.conflicts,
                now.propagations - self.charged.propagations,
            );
        }
        // Counters accumulate deltas; gauges are overwritten with the
        // latest live values so `stats()` reads as "the solver now".
        self.stats.sat_clauses_deleted += now.clauses_deleted - self.charged.clauses_deleted;
        self.stats.sat_subsumed += now.subsumed - self.charged.subsumed;
        self.stats.sat_strengthened += now.strengthened - self.charged.strengthened;
        self.stats.sat_blocked_restarts += now.blocked_restarts - self.charged.blocked_restarts;
        self.stats.sat_trail_reuses += now.trail_reuses - self.charged.trail_reuses;
        self.stats.sat_reused_levels += now.reused_levels - self.charged.reused_levels;
        self.stats.sat_lbd_sum += now.lbd_sum - self.charged.lbd_sum;
        self.stats.sat_lbd_count += now.lbd_count - self.charged.lbd_count;
        self.stats.sat_max_lbd = self.stats.sat_max_lbd.max(now.max_lbd);
        self.stats.sat_learnt_core = now.learnt_core;
        self.stats.sat_learnt_mid = now.learnt_mid;
        self.stats.sat_learnt_local = now.learnt_local;
        self.stats.sat_binary_clauses = now.binary_clauses;
        self.charged = now;
    }

    /// The SAT literal of a 1-bit signal at the final unrolled frame.
    ///
    /// Enumeration loops (µPATH shape enumeration in `mupath`) read monitor
    /// bits here and block found signatures with
    /// [`Checker::add_blocking_clause`].
    ///
    /// # Panics
    /// Panics if the signal is wider than 1 bit.
    pub fn final_frame_lit(&self, sig: SignalId) -> Lit {
        self.unroll.lit(self.cfg.bound - 1, sig)
    }

    /// The SAT literal of one bit of a signal at the final unrolled frame.
    ///
    /// # Panics
    /// Panics if `bit` is out of range for the signal's width.
    pub fn final_frame_bit(&self, sig: SignalId, bit: u8) -> Lit {
        self.unroll.lits(self.cfg.bound - 1, sig)[bit as usize]
    }

    /// Adds a permanent clause over literals obtained from
    /// [`Checker::final_frame_lit`], used to block already-enumerated
    /// solutions.
    pub fn add_blocking_clause(&mut self, lits: &[Lit]) {
        self.unroll.gate().add_clause(lits);
    }

    /// Adds a blocking clause that is only active while `guard` — an assume
    /// signal passed to every query of the caller's fleet — is assumed: the
    /// stored clause is `!activation(guard) ∨ lits...`. Queries that do not
    /// assume the guard can satisfy the clause through the unassumed
    /// activation literal, so enumeration loops over different guards can
    /// safely share one persistent solver.
    pub fn add_blocking_clause_scoped(&mut self, guard: SignalId, lits: &[Lit]) {
        let act = self.assume_activation(guard);
        let mut clause = Vec::with_capacity(lits.len() + 1);
        clause.push(!act);
        clause.extend_from_slice(lits);
        self.unroll.gate().add_clause(&clause);
    }

    /// k-induction step: from any state satisfying the assumes in which the
    /// cover did not fire for `k` consecutive cycles, the cover cannot fire
    /// at cycle `k`. Combined with the (already UNSAT) base case this proves
    /// global unreachability.
    fn prove_by_induction(&mut self, cover_sig: SignalId, assumes: &[SignalId]) -> bool {
        let k = self.cfg.induction_depth;
        if k == 0 || k > self.cfg.bound {
            return false;
        }
        // The induction context is persistent: the `InitMode::Free` twin of
        // this checker's unrolling, sharing its elaboration and slice. Every
        // induction query is pure assumptions (no per-query clauses), so
        // learnt clauses — consequences of the transition relation alone —
        // stay sound across queries, and the solver's conflicts and
        // propagations are charged to the `BudgetPool` as deltas mid-phase
        // rather than vanishing with a throwaway solver.
        if self.ind.is_none() {
            let mut ind = Unrolling::with_elab(self.nl, InitMode::Free, self.unroll.elab());
            ind.set_coi(self.unroll.coi());
            if let Some(token) = &self.cancel {
                ind.gate()
                    .solver()
                    .set_cancel_token(Some(Arc::clone(token)));
            }
            if let Some(pool) = self.pool.as_ref().filter(|p| p.cap().is_some()) {
                ind.gate().solver().set_pool_watch(Some(Arc::clone(pool)));
            }
            self.ind = Some(ind);
        }
        let ind = self.ind.as_mut().expect("just ensured");
        ind.extend_to(k + 1);
        let mut assumptions = Vec::new();
        for t in 0..=k {
            for &a in assumes {
                assumptions.push(ind.lit(t, a));
            }
        }
        for t in 0..k {
            let c = ind.lit(t, cover_sig);
            assumptions.push(!c);
        }
        assumptions.push(ind.lit(k, cover_sig));
        ind.gate()
            .solver()
            .set_conflict_budget(self.cfg.conflict_budget);
        let proved = ind.gate().solver().solve_assuming(&assumptions).is_unsat();
        let st = ind.gate().solver().stats();
        let prev = self.ind_charged;
        if let Some(pool) = &self.pool {
            pool.charge(
                st.conflicts - prev.conflicts,
                st.propagations - prev.propagations,
            );
        }
        // Fold the induction solver's counter deltas in, but leave the
        // live-database gauges to the main solver.
        self.stats.sat_clauses_deleted += st.clauses_deleted - prev.clauses_deleted;
        self.stats.sat_subsumed += st.subsumed - prev.subsumed;
        self.stats.sat_strengthened += st.strengthened - prev.strengthened;
        self.stats.sat_blocked_restarts += st.blocked_restarts - prev.blocked_restarts;
        self.stats.sat_trail_reuses += st.trail_reuses - prev.trail_reuses;
        self.stats.sat_reused_levels += st.reused_levels - prev.reused_levels;
        self.stats.sat_lbd_sum += st.lbd_sum - prev.lbd_sum;
        self.stats.sat_lbd_count += st.lbd_count - prev.lbd_count;
        self.stats.sat_max_lbd = self.stats.sat_max_lbd.max(st.max_lbd);
        self.ind_charged = st;
        proved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Builder;

    /// A 3-bit counter plus a flag raised when it equals 5, and a saturating
    /// variant used for induction tests.
    fn counter_with_flag() -> Netlist {
        let mut b = Builder::new();
        let c = b.reg("c", 3, 0);
        let one = b.constant(1, 3);
        let n = b.add(c, one);
        b.set_next(c, n).unwrap();
        let is5 = b.eq_const(c, 5);
        b.name(is5, "at5");
        let is7 = b.eq_const(c, 7);
        let never = b.constant(0, 1);
        b.name(never, "never");
        b.name(is7, "at7");
        b.finish().unwrap()
    }

    #[test]
    fn cover_reachable_with_witness() {
        let nl = counter_with_flag();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 8,
                ..Default::default()
            },
        );
        let out = chk.check_cover(nl.find("at5").unwrap(), &[]);
        let trace = out.trace().expect("reachable");
        let c = nl.find("c").unwrap();
        assert_eq!(trace.value(5, c), 5, "witness shows counter at 5");
    }

    #[test]
    fn cover_unreachable_within_complete_bound() {
        let nl = counter_with_flag();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 8,
                ..Default::default()
            },
        );
        let out = chk.check_cover(nl.find("never").unwrap(), &[]);
        assert!(out.is_unreachable());
    }

    #[test]
    fn incomplete_bound_gives_undetermined() {
        let nl = counter_with_flag();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 4, // too shallow to see c == 5
                bound_is_complete: false,
                try_induction: false,
                ..Default::default()
            },
        );
        let out = chk.check_cover(nl.find("at5").unwrap(), &[]);
        assert!(out.is_undetermined(), "shallow bound must not prove");
    }

    #[test]
    fn assumes_constrain_covers() {
        // With assume(c != 5 is not expressible directly): build a netlist
        // where an input gates progress, assume the gate low, and show the
        // cover becomes unreachable.
        let mut b = Builder::new();
        let en = b.input("en", 1);
        let c = b.reg("c", 3, 0);
        let one = b.constant(1, 3);
        let n = b.add(c, one);
        let gated = b.mux(en, n, c);
        b.set_next(c, gated).unwrap();
        let at3 = b.eq_const(c, 3);
        b.name(at3, "at3");
        let frozen = b.not(en);
        b.name(frozen, "frozen");
        let nl = b.finish().unwrap();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 8,
                ..Default::default()
            },
        );
        let at3 = nl.find("at3").unwrap();
        let frozen = nl.find("frozen").unwrap();
        assert!(chk.check_cover(at3, &[]).is_reachable());
        assert!(chk.check_cover(at3, &[frozen]).is_unreachable());
        assert_eq!(chk.stats().properties, 2);
    }

    #[test]
    fn induction_proves_invariant() {
        // A saturating 3-bit counter never exceeds 6: "c == 7" is
        // unreachable but needs induction when the bound is marked
        // incomplete.
        let mut b = Builder::new();
        let c = b.reg("c", 3, 0);
        let one = b.constant(1, 3);
        let six = b.constant(6, 3);
        let n = b.add(c, one);
        let at_max = b.eq(c, six);
        let hold = b.mux(at_max, c, n);
        b.set_next(c, hold).unwrap();
        let at7 = b.eq_const(c, 7);
        b.name(at7, "at7");
        let nl = b.finish().unwrap();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 10,
                bound_is_complete: false,
                try_induction: true,
                induction_depth: 2,
                ..Default::default()
            },
        );
        let out = chk.check_cover(nl.find("at7").unwrap(), &[]);
        assert!(out.is_unreachable(), "k-induction should prove this");
    }

    #[test]
    fn solver_observability_flows_into_check_stats() {
        let nl = counter_with_flag();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 8,
                ..Default::default()
            },
        );
        chk.check_cover(nl.find("at5").unwrap(), &[]);
        chk.check_cover(nl.find("never").unwrap(), &[]);
        let st = chk.stats();
        // Gauges must agree with the live solver database.
        let (_, solver) = chk.solver_stats();
        assert_eq!(st.sat_learnt_core, solver.learnt_core);
        assert_eq!(st.sat_learnt_mid, solver.learnt_mid);
        assert_eq!(st.sat_learnt_local, solver.learnt_local);
        assert_eq!(st.sat_binary_clauses, solver.binary_clauses);
        assert_eq!(st.sat_lbd_count, solver.lbd_count);
        assert_eq!(st.sat_lbd_sum, solver.lbd_sum);
        assert!(st.sat_avg_lbd() >= 0.0);
        // absorb() sums counters and gauges, and maxes max_lbd.
        let mut merged = CheckStats::default();
        merged.absorb(&st);
        merged.absorb(&st);
        assert_eq!(merged.sat_lbd_count, 2 * st.sat_lbd_count);
        assert_eq!(merged.sat_learnt_live(), 2 * st.sat_learnt_live());
        assert_eq!(merged.sat_max_lbd, st.sat_max_lbd);
    }

    #[test]
    fn witness_traces_replay_in_simulator() {
        let nl = counter_with_flag();
        let mut chk = Checker::new(
            &nl,
            McConfig {
                bound: 8,
                ..Default::default()
            },
        );
        let at5 = nl.find("at5").unwrap();
        let out = chk.check_cover(at5, &[]);
        let trace = out.trace().unwrap();
        let script = trace.input_script();
        let sim_vals = sim::replay(&nl, &script, &[at5]);
        assert!(
            sim_vals.iter().any(|r| r[0] == 1),
            "replayed witness fires the cover"
        );
    }

    #[test]
    fn contexts_persist_and_extend_across_batches() {
        let nl = counter_with_flag();
        let at5 = nl.find("at5").unwrap();
        let mut ctx = Checker::new(
            &nl,
            McConfig {
                bound: 0,
                ..Default::default()
            },
        );
        ctx.begin_batch();
        ctx.ensure_bound(8);
        assert!(ctx.check_cover(at5, &[]).is_reachable());
        let st = ctx.stats();
        assert_eq!(st.ctx_reused, 0, "the first batch built the context");
        assert_eq!(st.frames_extended, 8);
        assert_eq!(st.frames_rebuilt, 0);
        // Same bound: reused as-is, no frame growth.
        ctx.begin_batch();
        ctx.ensure_bound(8);
        assert!(ctx
            .check_cover(nl.find("never").unwrap(), &[])
            .is_unreachable());
        let st = ctx.stats();
        assert_eq!(st.ctx_reused, 1);
        assert_eq!(st.frames_extended, 0);
        // Deeper bound: the same solver's unrolling grows in place.
        ctx.begin_batch();
        ctx.ensure_bound(12);
        assert!(ctx.check_cover(at5, &[]).is_reachable());
        let st = ctx.stats();
        assert_eq!(st.ctx_reused, 1);
        assert_eq!(st.frames_extended, 4);
        assert_eq!(ctx.config().bound, 12);
    }
}
