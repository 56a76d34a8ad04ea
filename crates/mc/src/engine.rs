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

impl McConfig {
    /// The synthesis drivers' configuration: BMC to `bound` under
    /// `conflict_budget`, with the bound declared complete and no
    /// induction attempt.
    pub fn bounded(bound: usize, conflict_budget: Option<u64>) -> Self {
        Self {
            bound,
            conflict_budget,
            bound_is_complete: true,
            try_induction: false,
            induction_depth: 0,
        }
    }
}

/// Declares [`CheckStats`] from one row per field —
/// `name: Type = merge [, sat source] [, key "k"] => "doc";` — and
/// generates the struct, [`CheckStats::absorb`], the solver fold, and the
/// journal codec from it. Merge rules: `sum` (counters), `gauge` (live
/// values: summed by `absorb`, overwritten by [`CheckStats::set_gauges`]),
/// `max`. `sat` names the [`sat::SolverStats`] field a row is fed from;
/// `key` marks a journaled row, and journaled rows encode in table order.
macro_rules! check_stats {
    ($($name:ident: $ty:ty = $merge:ident $(, sat $src:ident)? $(, key $key:literal)? => $doc:literal;)*) => {
        /// Aggregated per-checker property statistics (the §VII-B3 analogue).
        #[derive(Clone, Copy, Debug, Default)]
        pub struct CheckStats {
            $(#[doc = $doc] pub $name: $ty,)*
        }

        impl CheckStats {
            /// Merges another stats record into this one.
            pub fn absorb(&mut self, other: &CheckStats) {
                $(check_stats!(@absorb $merge, self.$name, other.$name);)*
            }

            /// Folds a solver's statistics delta `prev → now` in: counters
            /// add the delta, maxima take `now`'s value when larger. Live
            /// gauges are left to [`CheckStats::set_gauges`].
            pub fn fold_solver(&mut self, prev: &sat::SolverStats, now: &sat::SolverStats) {
                $($(check_stats!(@fold $merge, self.$name, prev.$src, now.$src);)?)*
            }

            /// Overwrites the live-database gauges with the solver's current
            /// values, so the record reads as "the solver now".
            pub fn set_gauges(&mut self, live: &sat::SolverStats) {
                $($(check_stats!(@gauge $merge, self.$name, live.$src);)?)*
            }

            /// Serializes the journaled counters for a journal record.
            /// Durations are deliberately dropped — they are
            /// nondeterministic, and resumed runs must reproduce the
            /// uninterrupted run's report byte for byte.
            pub fn encode(&self) -> jsonio::Json {
                jsonio::Json::Obj(vec![$($(($key.into(), jsonio::Json::Int(self.$name)),)?)*])
            }

            /// Parses an [`encode`](Self::encode)d record (unjournaled
            /// fields zero). `None` when any key is missing, so records
            /// written before a key existed read as cache misses.
            pub fn decode(j: &jsonio::Json) -> Option<CheckStats> {
                let mut s = CheckStats::default();
                $($(s.$name = j.field($key)?.as_u64()?;)?)*
                Some(s)
            }
        }
    };
    (@absorb max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@absorb $sum_or_gauge:ident, $a:expr, $b:expr) => { $a += $b };
    (@fold sum, $a:expr, $prev:expr, $now:expr) => { $a += $now - $prev };
    (@fold max, $a:expr, $prev:expr, $now:expr) => { $a = $a.max($now) };
    (@fold gauge, $a:expr, $prev:expr, $now:expr) => {};
    (@gauge gauge, $a:expr, $live:expr) => { $a = $live };
    (@gauge $other:ident, $a:expr, $live:expr) => {};
}

check_stats! {
    properties: u64 = sum, key "p" => "Properties evaluated.";
    reachable: u64 = sum, key "r" => "Reachable outcomes.";
    unreachable: u64 = sum, key "u" => "Unreachable outcomes.";
    undetermined: u64 = sum, key "ud" => "Undetermined outcomes.";
    total_time: Duration = sum => "Total wall time in property evaluation.";
    max_time: Duration = max => "Longest single property evaluation.";
    coi_bits_before: u64 = sum, key "cb" => "Signal bits in the netlist before cone-of-influence slicing.";
    coi_bits_after: u64 = sum, key "ca" => "Signal bits bit-blasted (equals `coi_bits_before` when no slice is active).";
    discharged_static: u64 = sum, key "ds" => "Properties discharged statically (no SAT call), also counted in `properties`/`unreachable`.";
    undet_budget: u64 = sum, key "udb" => "Undetermined outcomes caused by budget/bound exhaustion.";
    undet_deadline: u64 = sum, key "udd" => "Undetermined outcomes caused by a deadline or cancellation.";
    undet_panicked: u64 = sum, key "udp" => "Undetermined outcomes caused by a caught job panic.";
    undet_fault: u64 = sum, key "udf" => "Undetermined outcomes caused by an injected fault.";
    ctx_reused: u64 = sum, key "cr" => "Query batches run on a context-chain checker already warm from an earlier batch.";
    frames_extended: u64 = sum, key "fe" => "Unrolling frames grown in place on a persistent checker (`Checker::ensure_bound`).";
    frames_rebuilt: u64 = sum, key "fr" => "Unrolling frames built from scratch at checker construction.";
    learnts_carried: u64 = sum, key "lc" => "Live learnt clauses a warm checker carried into a new batch (summed over batches).";
    sat_learnt_core: u64 = gauge, sat learnt_core => "Live learnt clauses in the core tier (LBD ≤ 2) at the last query.";
    sat_learnt_mid: u64 = gauge, sat learnt_mid => "Live learnt clauses in the mid tier at the last query.";
    sat_learnt_local: u64 = gauge, sat learnt_local => "Live learnt clauses in the local tier at the last query.";
    sat_binary_clauses: u64 = gauge, sat binary_clauses => "Live binary clauses (original + learnt) at the last query.";
    sat_clauses_deleted: u64 = sum, sat clauses_deleted => "Learnt clauses deleted by DB reduction or inprocessing.";
    sat_subsumed: u64 = sum, sat subsumed => "Learnt clauses removed as subsumed during inprocessing.";
    sat_strengthened: u64 = sum, sat strengthened => "Literals removed by self-subsuming resolution.";
    sat_blocked_restarts: u64 = sum, sat blocked_restarts => "Adaptive restarts postponed by trail-size blocking.";
    sat_trail_reuses: u64 = sum, sat trail_reuses => "Queries that reused retained assumption-trail levels.";
    sat_reused_levels: u64 = sum, sat reused_levels => "Total retained assumption levels reused across queries.";
    sat_lbd_sum: u64 = sum, sat lbd_sum => "Sum of learnt-clause LBD at learn time.";
    sat_lbd_count: u64 = sum, sat lbd_count => "Learnt clauses contributing to `sat_lbd_sum`.";
    sat_max_lbd: u32 = max, sat max_lbd => "Largest LBD seen at learn time.";
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
    /// Activation literal implying "some signal of the cover set holds at
    /// some frame", per cover set (one signal for [`Checker::check_cover`],
    /// the open covers of a [`Checker::check_covers`] query).
    cover_cache: BTreeMap<Vec<SignalId>, Lit>,
    stats: CheckStats,
    /// Globally shared conflict/propagation account (see [`BudgetPool`]).
    pool: Option<Arc<BudgetPool>>,
    /// Solver-stats snapshot at the last pool charge, for delta accounting.
    charged: sat::SolverStats,
    /// Cooperative cancellation, shared with the solve loop.
    cancel: Option<Arc<CancelToken>>,
    /// When set, every subsequent query degrades to this reason without
    /// solving (the fault-injection harness's forced-Unknown mode). Cleared
    /// by [`Checker::begin_batch`] so a fault injected into one batch of a
    /// context chain cannot cascade into the next.
    fault: Option<UndeterminedReason>,
    /// Batches started via [`Checker::begin_batch`] (0 for single-use
    /// checkers).
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
        // Frames built here are a from-scratch bit-blast; context-chain
        // checkers are constructed at bound 0 and grown via `ensure_bound`,
        // which counts into `frames_extended` instead.
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

    /// Starts a fresh accounting batch on a persistent (context-chain) checker:
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
        stats.set_gauges(&live);
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

    fn cover_activation(&mut self, sigs: &[SignalId]) -> Lit {
        if let Some(&l) = self.cover_cache.get(sigs) {
            return l;
        }
        let act = self.unroll.gate().fresh();
        let mut clause = vec![!act];
        for &sig in sigs {
            assert_eq!(self.nl.width(sig), 1, "cover signal must be 1 bit");
            for t in 0..self.cfg.bound {
                clause.push(self.unroll.lit(t, sig));
            }
        }
        self.unroll.gate().add_clause(&clause);
        self.cover_cache.insert(sigs.to_vec(), act);
        act
    }

    /// Checks `cover (cover_sig)` under `assume (a)` for every `a` in
    /// `assumes` (each holding at every cycle).
    pub fn check_cover(&mut self, cover_sig: SignalId, assumes: &[SignalId]) -> Outcome {
        let started = Instant::now();
        if let Some(reason) = self.fault {
            return self.record(started.elapsed(), Outcome::Undetermined(reason));
        }
        if self.pool_exhausted() {
            return self.record(
                started.elapsed(),
                Outcome::Undetermined(UndeterminedReason::BudgetExhausted),
            );
        }
        let mut assumptions: Vec<Lit> =
            assumes.iter().map(|&a| self.assume_activation(a)).collect();
        assumptions.push(self.cover_activation(&[cover_sig]));
        let outcome = match self.solve(&assumptions) {
            SolveResult::Sat => Outcome::Reachable(Trace::from_model(&self.unroll, self.cfg.bound)),
            SolveResult::Unsat => self.unsat_outcome(cover_sig, assumes),
            SolveResult::Unknown => Outcome::Undetermined(self.unknown_reason()),
        };
        self.record(started.elapsed(), outcome)
    }

    /// Checks every cover in `covers` under one `assumes` list, returning
    /// the outcomes in `covers` order. While more than one cover is open, a
    /// single query asks whether *any* of them fires, through one
    /// activation literal over their per-frame literals (cached per open
    /// set, like a lone cover's, so what the solver learns about a set
    /// carries over to the next query of that set under other assumes):
    ///
    /// - a model witnesses every open cover it fires (all `Reachable` on
    ///   that one shared trace), and the rest are asked again;
    /// - `Unsat` refutes each open cover, through the same completeness
    ///   rule as [`Checker::check_cover`];
    /// - `Unknown`, an injected fault or an exhausted pool hands each open
    ///   cover to [`Checker::check_cover`], so each keeps its own conflict
    ///   budget and its own undetermined reason.
    ///
    /// Each cover counts once in [`CheckStats`]; a grouped query's time is
    /// charged to the first cover it closes. A group literal is only ever
    /// left unassumed, never refuted: asserting its negation would force a
    /// root reset of the retained trail.
    pub fn check_covers(&mut self, covers: &[SignalId], assumes: &[SignalId]) -> Vec<Outcome> {
        let mut outcomes: Vec<Option<Outcome>> = vec![None; covers.len()];
        let mut open: Vec<usize> = (0..covers.len()).collect();
        let mut assumptions: Vec<Lit> =
            assumes.iter().map(|&a| self.assume_activation(a)).collect();
        while open.len() > 1 && self.fault.is_none() && !self.pool_exhausted() {
            let started = Instant::now();
            let set: Vec<SignalId> = open.iter().map(|&i| covers[i]).collect();
            let group = self.cover_activation(&set);
            assumptions.push(group);
            let result = self.solve(&assumptions);
            assumptions.pop();
            let closed: Vec<(usize, Outcome)> = match result {
                SolveResult::Sat => {
                    let trace = Trace::from_model(&self.unroll, self.cfg.bound);
                    let bound = self.cfg.bound;
                    let (fired, rest): (Vec<usize>, Vec<usize>) = open
                        .iter()
                        .partition(|&&i| (0..bound).any(|t| trace.value(t, covers[i]) != 0));
                    assert!(!fired.is_empty(), "a model of the group fires a cover");
                    open = rest;
                    fired
                        .into_iter()
                        .map(|i| (i, Outcome::Reachable(trace.clone())))
                        .collect()
                }
                SolveResult::Unsat => std::mem::take(&mut open)
                    .into_iter()
                    .map(|i| (i, self.unsat_outcome(covers[i], assumes)))
                    .collect(),
                SolveResult::Unknown => break,
            };
            let mut elapsed = started.elapsed();
            for (i, outcome) in closed {
                outcomes[i] = Some(self.record(elapsed, outcome));
                elapsed = Duration::ZERO;
            }
        }
        for i in open {
            outcomes[i] = Some(self.check_cover(covers[i], assumes));
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every cover closed"))
            .collect()
    }

    /// Whether the attached budget pool's global cap is spent.
    fn pool_exhausted(&self) -> bool {
        self.pool.as_ref().is_some_and(|p| p.exhausted())
    }

    /// One main-solver query under the per-property conflict budget, with
    /// its statistics delta charged.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.unroll
            .gate()
            .solver()
            .set_conflict_budget(self.cfg.conflict_budget);
        let result = self.unroll.gate().solver().solve_assuming(assumptions);
        self.charge_pool();
        result
    }

    /// The verdict on a cover whose in-bound query came back `Unsat`: it is
    /// unreachable when the bound is declared complete or a k-induction
    /// proof lands, and undetermined otherwise.
    fn unsat_outcome(&mut self, cover_sig: SignalId, assumes: &[SignalId]) -> Outcome {
        let proved = self.cfg.bound_is_complete
            || (self.cfg.try_induction && self.prove_by_induction(cover_sig, assumes));
        if proved {
            Outcome::Unreachable
        } else {
            Outcome::Undetermined(UndeterminedReason::BudgetExhausted)
        }
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
        self.record(Duration::ZERO, Outcome::Unreachable)
    }

    fn record(&mut self, elapsed: Duration, outcome: Outcome) -> Outcome {
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

    /// Charges the main solver's statistics delta since the last charge;
    /// the gauges then read as the live solver database.
    fn charge_pool(&mut self) {
        let now = self.unroll.gate().solver().stats();
        self.charge(self.charged, now);
        self.stats.set_gauges(&now);
        self.charged = now;
    }

    /// Charges a solver's conflict/propagation delta `prev → now` into the
    /// shared pool (when one is attached) and folds the whole delta into
    /// the stats.
    fn charge(&mut self, prev: sat::SolverStats, now: sat::SolverStats) {
        if let Some(pool) = &self.pool {
            pool.charge(
                now.conflicts - prev.conflicts,
                now.propagations - prev.propagations,
            );
        }
        self.stats.fold_solver(&prev, &now);
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
        // The induction solver's deltas count; the live-database gauges
        // stay the main solver's.
        self.charge(self.ind_charged, st);
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
        assert!(
            matches!(out, Outcome::Undetermined(_)),
            "shallow bound must not prove"
        );
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
        // Field by field, on records with a distinct value everywhere:
        // every counter and gauge sums; max_time and sat_max_lbd take the
        // larger value.
        let (a, b) = (distinct_stats(0), distinct_stats(100));
        let mut merged = a;
        merged.absorb(&b);
        let maxed = ["max_time", "sat_max_lbd"];
        let (fa, fb, fm) = (fields(&a), fields(&b), fields(&merged));
        assert_eq!(fa.len(), 30, "every CheckStats field is listed");
        for (((name, x), (_, y)), (_, m)) in fa.iter().zip(&fb).zip(&fm) {
            let want = if maxed.contains(name) {
                *x.max(y)
            } else {
                x + y
            };
            assert_eq!(*m, want, "absorb merged `{name}` wrongly");
        }
    }

    #[test]
    fn journal_codec_is_pinned() {
        // The encoding journals written before the field table produced;
        // keys and their order must never move.
        const PINNED: &str = "{\"p\":1,\"r\":2,\"u\":3,\"ud\":4,\"cb\":7,\"ca\":8,\"ds\":9,\"udb\":14,\
                              \"udd\":15,\"udp\":16,\"udf\":17,\"cr\":10,\"fe\":11,\"fr\":12,\"lc\":13}";
        let s = distinct_stats(0);
        let enc = s.encode();
        assert_eq!(enc.render_compact(), PINNED);
        // Durations and solver counters are not journaled: they decode as 0.
        let journaled = CheckStats {
            properties: s.properties,
            reachable: s.reachable,
            unreachable: s.unreachable,
            undetermined: s.undetermined,
            coi_bits_before: s.coi_bits_before,
            coi_bits_after: s.coi_bits_after,
            discharged_static: s.discharged_static,
            ctx_reused: s.ctx_reused,
            frames_extended: s.frames_extended,
            frames_rebuilt: s.frames_rebuilt,
            learnts_carried: s.learnts_carried,
            undet_budget: s.undet_budget,
            undet_deadline: s.undet_deadline,
            undet_panicked: s.undet_panicked,
            undet_fault: s.undet_fault,
            ..Default::default()
        };
        let back = CheckStats::decode(&jsonio::Json::parse(PINNED).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{journaled:?}"));
        // A record missing any key (a pre-v5 record) is a miss, not zeros.
        let jsonio::Json::Obj(keys) = enc else {
            unreachable!("encode renders an object")
        };
        for skip in 0..keys.len() {
            let mut partial = keys.clone();
            let (key, _) = partial.remove(skip);
            assert!(
                CheckStats::decode(&jsonio::Json::Obj(partial)).is_none(),
                "a record without `{key}` must not decode"
            );
        }
    }

    /// A record with a distinct value in every field, offset by `base`.
    fn distinct_stats(base: u64) -> CheckStats {
        let n = |i: u64| base + i;
        CheckStats {
            properties: n(1),
            reachable: n(2),
            unreachable: n(3),
            undetermined: n(4),
            total_time: Duration::from_nanos(n(5)),
            max_time: Duration::from_nanos(n(6)),
            coi_bits_before: n(7),
            coi_bits_after: n(8),
            discharged_static: n(9),
            ctx_reused: n(10),
            frames_extended: n(11),
            frames_rebuilt: n(12),
            learnts_carried: n(13),
            undet_budget: n(14),
            undet_deadline: n(15),
            undet_panicked: n(16),
            undet_fault: n(17),
            sat_learnt_core: n(18),
            sat_learnt_mid: n(19),
            sat_learnt_local: n(20),
            sat_binary_clauses: n(21),
            sat_clauses_deleted: n(22),
            sat_subsumed: n(23),
            sat_strengthened: n(24),
            sat_blocked_restarts: n(25),
            sat_trail_reuses: n(26),
            sat_reused_levels: n(27),
            sat_lbd_sum: n(28),
            sat_lbd_count: n(29),
            sat_max_lbd: n(30) as u32,
        }
    }

    /// Every field of a record by name, durations in nanoseconds.
    fn fields(s: &CheckStats) -> Vec<(&'static str, u64)> {
        vec![
            ("properties", s.properties),
            ("reachable", s.reachable),
            ("unreachable", s.unreachable),
            ("undetermined", s.undetermined),
            ("total_time", s.total_time.as_nanos() as u64),
            ("max_time", s.max_time.as_nanos() as u64),
            ("coi_bits_before", s.coi_bits_before),
            ("coi_bits_after", s.coi_bits_after),
            ("discharged_static", s.discharged_static),
            ("ctx_reused", s.ctx_reused),
            ("frames_extended", s.frames_extended),
            ("frames_rebuilt", s.frames_rebuilt),
            ("learnts_carried", s.learnts_carried),
            ("undet_budget", s.undet_budget),
            ("undet_deadline", s.undet_deadline),
            ("undet_panicked", s.undet_panicked),
            ("undet_fault", s.undet_fault),
            ("sat_learnt_core", s.sat_learnt_core),
            ("sat_learnt_mid", s.sat_learnt_mid),
            ("sat_learnt_local", s.sat_learnt_local),
            ("sat_binary_clauses", s.sat_binary_clauses),
            ("sat_clauses_deleted", s.sat_clauses_deleted),
            ("sat_subsumed", s.sat_subsumed),
            ("sat_strengthened", s.sat_strengthened),
            ("sat_blocked_restarts", s.sat_blocked_restarts),
            ("sat_trail_reuses", s.sat_trail_reuses),
            ("sat_reused_levels", s.sat_reused_levels),
            ("sat_lbd_sum", s.sat_lbd_sum),
            ("sat_lbd_count", s.sat_lbd_count),
            ("sat_max_lbd", s.sat_max_lbd as u64),
        ]
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
