//! A CDCL SAT solver: watched literals with a dedicated binary-clause
//! fast path, first-UIP learning with clause minimization, VSIDS with
//! phase saving, LBD-tiered learnt-clause reduction on a conflict
//! schedule, adaptive (Glucose) restarts, assumption-trail retention and
//! root-level inprocessing between queries, and conflict budgets (which
//! produce the `Unknown` outcomes that surface as *undetermined*
//! model-checking results, §V-B of the paper). There is one search
//! path: no heuristic is switchable.
//!
//! Long clauses live in a flat `u32` arena (header word, activity word,
//! LBD word, then literal codes) so the propagation loop touches one
//! contiguous allocation. Binary clauses never enter the arena at all:
//! each lives inline in its two watch lists, so propagating one costs a
//! single indexed read instead of an arena dereference — and Tseitin
//! encodings (two binary clauses per AND gate) are mostly binary.

use crate::budget::BudgetPool;
use crate::cancel::{CancelReason, CancelToken};
use crate::heap::ActivityHeap;
use crate::types::{Lit, SolveResult, Var};
use std::sync::Arc;

const UNASSIGNED: i8 = -1;
const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f32 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// Conflicts between cooperative cancellation / pool-cap polls. Polling
/// only happens when a token or pool watch is attached, so unset knobs
/// cost one `Option` test per conflict.
const STOP_CHECK_INTERVAL: u64 = 128;

// Restart policy.
/// Minimum conflicts between adaptive restarts (the Glucose queue length).
const GLUCOSE_MIN_INTERVAL: u64 = 50;
/// Restart when the fast LBD average exceeds the slow one by this factor.
const RESTART_MARGIN: f64 = 1.25;
/// Block a due restart when the trail is this much larger than average —
/// the solver is deep in an assignment that may be about to close.
const BLOCK_MARGIN: f64 = 1.4;
/// Trail blocking needs a meaningful trail average first.
const BLOCK_MIN_CONFLICTS: u64 = 10_000;
const EMA_FAST: f64 = 1.0 / 32.0;
const EMA_SLOW: f64 = 1.0 / 16384.0;
const EMA_TRAIL: f64 = 1.0 / 4096.0;
/// Backjumps spanning more than this many decision levels are taken
/// chronologically (one level at a time) instead.
const CHRONO_LEVELS: u32 = 100;

// Learnt-database tiers.
/// Clauses with LBD at or below this are kept forever.
const CORE_LBD: u32 = 2;
/// Clauses with LBD at or below this are aged by use; above is local.
const MID_LBD: u32 = 6;
/// First aggressive reduction, in conflicts; each adds `REDUCE_INC` more.
const REDUCE_BASE: u64 = 2000;
const REDUCE_INC: u64 = 300;

// Root-level inprocessing.
/// Literal-visit budget per subsumption pass.
const SUBSUME_BUDGET: u64 = 200_000;
/// Minimum new learnt clauses between subsumption passes; the actual
/// threshold also scales with live database size (see `simplify`), so a
/// million-clause database is not rescanned every few hundred conflicts.
const SUBSUME_MIN_NEW: u64 = 500;
/// Only clauses at most this long participate in subsumption — short
/// clauses are both the likely subsumers and the cheap ones to index.
const SUBSUME_MAX_LEN: usize = 16;
/// Hard cap on subsumption participants per pass (shortest first), so
/// setup cost stays bounded no matter how large the learnt DB grows.
const SUBSUME_MAX_CLAUSES: usize = 10_000;

/// Offset of a clause in the arena.
type ClauseRef = u32;

const HDR_LEARNT: u32 = 1 << 31;
const HDR_DELETED: u32 = 1 << 30;
const HDR_LEN_MASK: u32 = (1 << 30) - 1;
/// Arena words before the literals: header, activity, LBD.
const HDR_WORDS: usize = 3;
/// High bit of the LBD word: clause was used in a conflict since the
/// last reduction (ages the mid tier).
const LBD_USED: u32 = 1 << 31;
const LBD_MASK: u32 = LBD_USED - 1;

/// Flat clause storage: `[header, activity(f32 bits), lbd, lit0, lit1, ...]`.
#[derive(Clone, Debug, Default)]
struct Arena {
    data: Vec<u32>,
}

impl Arena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let off = self.data.len() as u32;
        let mut hdr = lits.len() as u32;
        if learnt {
            hdr |= HDR_LEARNT;
        }
        self.data.push(hdr);
        self.data.push(0f32.to_bits());
        self.data.push(lbd.min(LBD_MASK));
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        off
    }

    #[inline]
    fn len(&self, c: ClauseRef) -> usize {
        (self.data[c as usize] & HDR_LEN_MASK) as usize
    }

    #[inline]
    fn set_len(&mut self, c: ClauseRef, n: usize) {
        let hdr = &mut self.data[c as usize];
        *hdr = (*hdr & !HDR_LEN_MASK) | n as u32;
    }

    #[inline]
    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & HDR_LEARNT != 0
    }

    #[inline]
    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & HDR_DELETED != 0
    }

    #[inline]
    fn set_deleted(&mut self, c: ClauseRef) {
        self.data[c as usize] |= HDR_DELETED;
    }

    #[inline]
    fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[c as usize + HDR_WORDS + i] as usize)
    }

    #[inline]
    fn set_lit(&mut self, c: ClauseRef, i: usize, l: Lit) {
        self.data[c as usize + HDR_WORDS + i] = l.code() as u32;
    }

    #[inline]
    fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        self.data
            .swap(c as usize + HDR_WORDS + i, c as usize + HDR_WORDS + j);
    }

    #[inline]
    fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c as usize + 1])
    }

    #[inline]
    fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.data[c as usize + 1] = a.to_bits();
    }

    #[inline]
    fn lbd(&self, c: ClauseRef) -> u32 {
        self.data[c as usize + 2] & LBD_MASK
    }

    #[inline]
    fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        let w = &mut self.data[c as usize + 2];
        *w = (*w & LBD_USED) | lbd.min(LBD_MASK);
    }

    #[inline]
    fn mark_used(&mut self, c: ClauseRef) {
        self.data[c as usize + 2] |= LBD_USED;
    }

    /// Reads and clears the used flag.
    #[inline]
    fn take_used(&mut self, c: ClauseRef) -> bool {
        let w = &mut self.data[c as usize + 2];
        let used = *w & LBD_USED != 0;
        *w &= !LBD_USED;
        used
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A binary clause, stored inline in a watch list: the *other* literal of
/// the clause, plus whether the clause is learnt (needed only for stats
/// bookkeeping when satisfied binaries are collected at level 0).
#[derive(Clone, Copy, Debug)]
struct BinWatcher {
    other: Lit,
    learnt: bool,
}

/// Why a variable is assigned: the propagating clause. Binary reasons
/// carry the other (false) literal inline so conflict analysis never
/// touches the arena for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reason {
    Long(ClauseRef),
    Binary(Lit),
}

/// A conflicting clause found by propagation.
#[derive(Clone, Copy, Debug)]
enum Conflict {
    Long(ClauseRef),
    /// Both literals of a falsified binary clause.
    Binary(Lit, Lit),
}

/// Why the most recent solve call stopped with [`SolveResult::Unknown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// The per-query conflict budget ran out.
    ConflictBudget,
    /// The attached [`BudgetPool`]'s global cap was (about to be) reached.
    PoolCap,
    /// The attached [`CancelToken`] was cancelled explicitly.
    Cancelled,
    /// The attached [`CancelToken`]'s wall-clock deadline passed.
    Deadline,
}

impl From<CancelReason> for StopCause {
    fn from(r: CancelReason) -> Self {
        match r {
            CancelReason::Cancelled => StopCause::Cancelled,
            CancelReason::Deadline => StopCause::Deadline,
        }
    }
}

/// Cumulative statistics of a solver instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Branching decisions taken.
    pub decisions: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database (long + binary).
    pub learnts: u64,
    /// Live learnt clauses in the core tier (LBD ≤ 2, kept forever;
    /// learnt binaries count here).
    pub learnt_core: u64,
    /// Live learnt clauses in the mid tier (LBD ≤ 6, aged by use).
    pub learnt_mid: u64,
    /// Live learnt clauses in the local tier (aggressively collected).
    pub learnt_local: u64,
    /// Live binary clauses (original + learnt).
    pub binary_clauses: u64,
    /// Learnt clauses deleted by reduction or inprocessing.
    pub clauses_deleted: u64,
    /// Learnt clauses removed as subsumed during inprocessing.
    pub subsumed: u64,
    /// Literals removed by self-subsuming resolution during inprocessing.
    pub strengthened: u64,
    /// Adaptive restarts postponed by trail-size blocking.
    pub blocked_restarts: u64,
    /// Queries that reused at least one retained assumption level.
    pub trail_reuses: u64,
    /// Total assumption levels reused across all queries — each one is a
    /// decision plus its whole propagation closure never re-run.
    pub reused_levels: u64,
    /// Sum of LBD over all learnt clauses at learn time.
    pub lbd_sum: u64,
    /// Number of learnt clauses contributing to `lbd_sum`.
    pub lbd_count: u64,
    /// Largest LBD seen at learn time.
    pub max_lbd: u32,
}

impl SolverStats {
    /// Mean LBD of learnt clauses at learn time (0 when none learnt).
    pub fn avg_lbd(&self) -> f64 {
        if self.lbd_count == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.lbd_count as f64
        }
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use sat::{Lit, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert!(s.solve().is_sat());
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    arena: Arena,
    orig_refs: Vec<ClauseRef>,
    learnt_refs: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    bin_watches: Vec<Vec<BinWatcher>>,
    assigns: Vec<i8>,
    /// Per-literal mirror of `assigns` (`lit_vals[l.code()]` is the value
    /// of literal `l`): costs two byte writes per (un)assignment, makes
    /// `lit_value` — the hottest read in propagation — a single load.
    lit_vals: Vec<i8>,
    phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    bhead: usize,
    reason: Vec<Option<Reason>>,
    level: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f32,
    heap: ActivityHeap,
    seen: Vec<bool>,
    /// Reusable DFS stack for recursive clause minimization.
    min_stack: Vec<Lit>,
    /// Assumption prefix of the previous query still standing on the
    /// trail (one literal per retained decision level). Empty whenever
    /// the solver is at the root.
    retained: Vec<Lit>,
    ok: bool,
    model: Vec<i8>,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    num_binary: u64,
    num_binary_learnt: u64,
    /// Dead arena words (deleted clauses, stripped literals).
    wasted: usize,
    ema_fast: f64,
    ema_slow: f64,
    ema_trail: f64,
    /// Global conflict count at which the next aggressive reduction runs.
    next_reduce: u64,
    reduces: u64,
    /// Trail length the last root-level cleanup ran at.
    simplified_trail: usize,
    /// `lbd_count` at the last subsumption pass.
    last_subsume_count: u64,
    lvl_stamp: Vec<u64>,
    lvl_stamp_gen: u64,
    lit_stamp: Vec<u64>,
    lit_stamp_gen: u64,
    cancel: Option<Arc<CancelToken>>,
    pool_watch: Option<Arc<BudgetPool>>,
    last_stop: Option<StopCause>,
    clause_log: Option<Vec<Vec<Lit>>>,
    /// Reused by [`Solver::add_clause`]: the sorted, deduplicated input
    /// and the simplified clause, so adding a clause allocates nothing.
    add_sorted: Vec<Lit>,
    add_out: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self {
            arena: Arena::default(),
            orig_refs: Vec::new(),
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            assigns: Vec::new(),
            lit_vals: Vec::new(),
            phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            bhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            heap: ActivityHeap::default(),
            seen: Vec::new(),
            min_stack: Vec::new(),
            retained: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            conflict_budget: None,
            num_binary: 0,
            num_binary_learnt: 0,
            wasted: 0,
            ema_fast: 0.0,
            ema_slow: 0.0,
            ema_trail: 0.0,
            next_reduce: REDUCE_BASE,
            reduces: 0,
            simplified_trail: 0,
            last_subsume_count: 0,
            lvl_stamp: Vec::new(),
            lvl_stamp_gen: 0,
            lit_stamp: Vec::new(),
            lit_stamp_gen: 0,
            cancel: None,
            pool_watch: None,
            last_stop: None,
            clause_log: None,
            add_sorted: Vec::new(),
            add_out: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(UNASSIGNED);
        self.lit_vals.push(UNASSIGNED);
        self.lit_vals.push(UNASSIGNED);
        self.phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.model.push(UNASSIGNED);
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Solver statistics so far. The learnt-tier fields are live gauges
    /// computed from the clause database at call time.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        let mut core = self.num_binary_learnt;
        let mut mid = 0u64;
        let mut local = 0u64;
        for &c in &self.learnt_refs {
            let lbd = self.arena.lbd(c);
            if lbd <= CORE_LBD {
                core += 1;
            } else if lbd <= MID_LBD {
                mid += 1;
            } else {
                local += 1;
            }
        }
        s.learnts = self.learnt_refs.len() as u64 + self.num_binary_learnt;
        s.learnt_core = core;
        s.learnt_mid = mid;
        s.learnt_local = local;
        s.binary_clauses = self.num_binary;
        s
    }

    /// Sets a conflict budget applied to each subsequent solve call; `None`
    /// removes the budget.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Attaches a cancellation token polled every 128 conflicts (and once
    /// at solve entry, so an already-fired token stops a query before any
    /// search). `None` detaches — the default, with no per-conflict cost
    /// beyond one `Option` test.
    pub fn set_cancel_token(&mut self, token: Option<Arc<CancelToken>>) {
        self.cancel = token;
    }

    /// Attaches a shared budget pool whose *global* conflict cap the solve
    /// loop honors mid-query: every 128 conflicts the solver asks whether
    /// its own un-charged delta would exhaust the pool, bounding cap
    /// overshoot to one interval. Attach only pools with a cap — an
    /// uncapped pool never fires, and skipping the watch keeps capless
    /// runs byte-deterministic by construction.
    pub fn set_pool_watch(&mut self, pool: Option<Arc<BudgetPool>>) {
        self.pool_watch = pool;
    }

    /// Why the most recent solve call returned [`SolveResult::Unknown`]
    /// (`None` after a Sat/Unsat result or before any solve).
    pub fn last_stop(&self) -> Option<StopCause> {
        self.last_stop
    }

    /// Turns clause logging on or off. While enabled, every clause handed
    /// to [`Solver::add_clause`] is recorded *verbatim* — before the
    /// level-0 simplifications — so the log is the exact input formula a
    /// reference solver can be run against. Off by default (no cost).
    /// Turning logging off discards the log.
    pub fn set_clause_log(&mut self, enabled: bool) {
        self.clause_log = enabled.then(Vec::new);
    }

    /// The clauses recorded since logging was enabled (empty when
    /// logging is off). Clauses added *before* enabling are not included.
    pub fn logged_clauses(&self) -> &[Vec<Lit>] {
        self.clause_log.as_deref().unwrap_or(&[])
    }

    /// Moves the recorded clauses out, as [`Solver::logged_clauses`]
    /// would list them, and turns logging off.
    pub fn take_clause_log(&mut self) -> Vec<Vec<Lit>> {
        self.clause_log.take().unwrap_or_default()
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> i8 {
        // One load, no sign branch: `lit_vals` mirrors `assigns` per
        // literal and is the single hottest read in the solver.
        self.lit_vals[l.code()]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (now or as a result of this clause).
    ///
    /// May be called with a retained trail standing (see
    /// [`Solver::solve_assuming`]): a clause with at least two literals
    /// not falsified by the current assignment is attached in place —
    /// watching two non-false literals preserves the watch invariant at
    /// any level — and the retained levels survive. A clause the trail
    /// falsifies or makes unit falls back to a root reset first.
    ///
    /// # Panics
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if let Some(log) = &mut self.clause_log {
            log.push(lits.to_vec());
        }
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        let mut ls = std::mem::take(&mut self.add_sorted);
        let mut out = std::mem::take(&mut self.add_out);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        let ok = self.add_sorted_clause(&ls, &mut out);
        self.add_sorted = ls;
        self.add_out = out;
        ok
    }

    /// [`Solver::add_clause`] on a sorted, deduplicated clause, with `out`
    /// as scratch for the simplified literals.
    fn add_sorted_clause(&mut self, ls: &[Lit], out: &mut Vec<Lit>) -> bool {
        loop {
            // Simplify: drop root-false literals, detect tautology / root
            // satisfaction. Assignments above the root are transient, so
            // they never drop or satisfy anything permanently — they only
            // decide attachability below.
            out.clear();
            let mut nonfalse = 0usize;
            for &l in ls {
                if ls.binary_search(&!l).is_ok() {
                    return true; // tautology
                }
                let v = self.lit_value(l);
                let at_root = v != UNASSIGNED && self.level[l.var().index()] == 0;
                match v {
                    1 if at_root => return true, // already satisfied at level 0
                    0 if at_root => continue,    // false at level 0: drop
                    _ => {
                        if v != 0 {
                            nonfalse += 1;
                        }
                        out.push(l);
                    }
                }
            }
            if self.decision_level() > 0 {
                if out.len() >= 2 && nonfalse >= 2 {
                    // Two non-false literals to watch: attach in place,
                    // no propagation is pending from this clause.
                    let mut w = 0;
                    for k in 0..out.len() {
                        if self.lit_value(out[k]) != 0 {
                            out.swap(w, k);
                            w += 1;
                            if w == 2 {
                                break;
                            }
                        }
                    }
                    if out.len() == 2 {
                        self.attach_binary(out[0], out[1], false);
                    } else {
                        self.attach_long(out, false, 0);
                    }
                    return true;
                }
                // Falsified or unit under the retained trail: unwind to
                // the root and re-simplify against root values only.
                self.backtrack(0);
                self.retained.clear();
                continue;
            }
            return match out.len() {
                0 => {
                    self.ok = false;
                    false
                }
                1 => {
                    self.unchecked_enqueue(out[0], None);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                    self.ok
                }
                2 => {
                    self.attach_binary(out[0], out[1], false);
                    true
                }
                _ => {
                    self.attach_long(out, false, 0);
                    true
                }
            };
        }
    }

    fn attach_long(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 3);
        let cref = self.arena.alloc(lits, learnt, lbd);
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.learnt_refs.push(cref);
        } else {
            self.orig_refs.push(cref);
        }
        cref
    }

    fn attach_binary(&mut self, a: Lit, b: Lit, learnt: bool) {
        debug_assert_ne!(a.var(), b.var());
        self.bin_watches[a.code()].push(BinWatcher { other: b, learnt });
        self.bin_watches[b.code()].push(BinWatcher { other: a, learnt });
        self.num_binary += 1;
        if learnt {
            self.num_binary_learnt += 1;
        }
    }

    /// Removes one watcher of `cref` from `lit`'s watch list.
    fn detach_watcher(&mut self, lit: Lit, cref: ClauseRef) {
        let ws = &mut self.watches[lit.code()];
        let pos = ws
            .iter()
            .position(|w| w.cref == cref)
            .expect("watcher present");
        ws.swap_remove(pos);
    }

    /// Detaches and tombstones a live long clause (watchers are on slots
    /// 0 and 1 by the watch invariant, so only two lists are touched —
    /// no global rebuild).
    fn remove_long(&mut self, c: ClauseRef) {
        debug_assert!(!self.arena.is_deleted(c));
        let (l0, l1) = (self.arena.lit(c, 0), self.arena.lit(c, 1));
        self.detach_watcher(l0, c);
        self.detach_watcher(l1, c);
        self.arena.set_deleted(c);
        self.wasted += HDR_WORDS + self.arena.len(c);
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<Reason>) {
        debug_assert_eq!(self.lit_value(l), UNASSIGNED);
        let v = l.var();
        self.assigns[v.index()] = l.is_pos() as i8;
        self.lit_vals[l.code()] = 1;
        self.lit_vals[(!l).code()] = 0;
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.is_pos();
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any. Binary
    /// clauses propagate to closure before any long clause is examined.
    fn propagate(&mut self) -> Option<Conflict> {
        let mut conflict = None;
        'outer: loop {
            // Binary closure: inline literals, no arena access.
            while self.bhead < self.trail.len() {
                let p = self.trail[self.bhead];
                self.bhead += 1;
                self.stats.propagations += 1;
                let false_lit = !p;
                let bins = std::mem::take(&mut self.bin_watches[false_lit.code()]);
                for w in &bins {
                    match self.lit_value(w.other) {
                        1 => {}
                        0 => {
                            conflict = Some(Conflict::Binary(w.other, false_lit));
                            break;
                        }
                        _ => self.unchecked_enqueue(w.other, Some(Reason::Binary(false_lit))),
                    }
                }
                self.bin_watches[false_lit.code()] = bins;
                if conflict.is_some() {
                    break 'outer;
                }
            }
            if self.qhead >= self.trail.len() {
                break;
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == 1 {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at slot 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == 1 {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new watch: scan the tail literals as one
                // slice so the compiler hoists the bounds check out of
                // the hottest loop in the solver.
                let len = self.arena.len(cref);
                let base = cref as usize + HDR_WORDS;
                let mut new_watch = None;
                for (off, &code) in self.arena.data[base + 2..base + len].iter().enumerate() {
                    if self.lit_vals[code as usize] != 0 {
                        new_watch = Some((off + 2, Lit::from_code(code as usize)));
                        break;
                    }
                }
                if let Some((k, lk)) = new_watch {
                    self.arena.swap_lits(cref, 1, k);
                    self.watches[lk.code()].push(Watcher {
                        cref,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue 'watchers;
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == 0 {
                    conflict = Some(Conflict::Long(cref));
                    break;
                }
                self.unchecked_enqueue(first, Some(Reason::Long(cref)));
                i += 1;
            }
            let tail = std::mem::replace(&mut self.watches[false_lit.code()], ws);
            self.watches[false_lit.code()].extend(tail);
            if conflict.is_some() {
                break;
            }
        }
        if conflict.is_some() {
            self.qhead = self.trail.len();
            self.bhead = self.qhead;
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let a = self.arena.activity(cref) + self.clause_inc;
        self.arena.set_activity(cref, a);
        if a > 1e20 {
            for &c in &self.learnt_refs {
                let scaled = self.arena.activity(c) * 1e-20;
                self.arena.set_activity(c, scaled);
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// Recomputes a resolved learnt clause's LBD from current levels,
    /// keeping the better value, and marks it used for mid-tier aging.
    fn refresh_lbd(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        self.arena.mark_used(cref);
        let stored = self.arena.lbd(cref);
        if stored <= CORE_LBD {
            return; // already best tier
        }
        self.lvl_stamp_gen += 1;
        let gen = self.lvl_stamp_gen;
        let mut lbd = 0u32;
        for k in 0..self.arena.len(cref) {
            let lvl = self.level[self.arena.lit(cref, k).var().index()] as usize;
            if lvl == 0 {
                continue;
            }
            if self.lvl_stamp.len() <= lvl {
                self.lvl_stamp.resize(lvl + 1, 0);
            }
            if self.lvl_stamp[lvl] != gen {
                self.lvl_stamp[lvl] = gen;
                lbd += 1;
            }
        }
        let lbd = lbd.max(1);
        if lbd < stored {
            self.arena.set_lbd(cref, lbd);
        }
    }

    /// Number of distinct non-zero decision levels among `lits`.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lvl_stamp_gen += 1;
        let gen = self.lvl_stamp_gen;
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if lvl == 0 {
                continue;
            }
            if self.lvl_stamp.len() <= lvl {
                self.lvl_stamp.resize(lvl + 1, 0);
            }
            if self.lvl_stamp[lvl] != gen {
                self.lvl_stamp[lvl] = gen;
                lbd += 1;
            }
        }
        lbd.max(1)
    }

    /// First-UIP conflict analysis with basic clause minimization. Returns
    /// the learnt clause (asserting literal first), the backjump level,
    /// and the learnt clause's LBD.
    fn analyze(&mut self, confl: Conflict) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();
        let mut current = confl;
        macro_rules! consider {
            ($q:expr) => {{
                let q: Lit = $q;
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }};
        }
        loop {
            let skip_first = p.is_some() as usize;
            match current {
                Conflict::Long(cref) => {
                    self.bump_clause(cref);
                    self.refresh_lbd(cref);
                    let len = self.arena.len(cref);
                    for k in skip_first..len {
                        consider!(self.arena.lit(cref, k));
                    }
                }
                Conflict::Binary(a, b) => {
                    if skip_first == 0 {
                        consider!(a);
                    }
                    consider!(b);
                }
            }
            // Next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            current = match self.reason[pl.var().index()].expect("non-decision has a reason") {
                Reason::Long(c) => Conflict::Long(c),
                Reason::Binary(other) => Conflict::Binary(pl, other),
            };
        }
        learnt[0] = !p.expect("found UIP");
        // Recursive clause minimization (MiniSat's ccmin=2): a literal is
        // redundant when the DFS over its reason graph bottoms out
        // entirely in literals already in the clause (`seen`) or fixed at
        // level 0. The abstract-level mask cheaply rejects probes that
        // could reach a decision level the clause does not mention.
        // Literals proven redundant stay `seen`, memoizing later probes;
        // `to_clear` unwinds every mark at the end of analysis.
        let abstract_levels = learnt[1..].iter().fold(0u32, |m, l| {
            m | (1u32 << (self.level[l.var().index()] & 31))
        });
        let mut minimized = Vec::with_capacity(learnt.len());
        minimized.push(learnt[0]);
        for &q in &learnt[1..] {
            if self.reason[q.var().index()].is_none()
                || !self.lit_redundant(q, abstract_levels, &mut to_clear)
            {
                minimized.push(q);
            }
        }
        let mut learnt = minimized;
        // Backjump level: highest level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for v in to_clear {
            self.seen[v.index()] = false;
        }
        let lbd = self.compute_lbd(&learnt);
        (learnt, bt, lbd)
    }

    /// Is `p` implied by the rest of the learnt clause? Walks `p`'s
    /// reason graph depth-first; every path must end in a `seen` literal
    /// (already in the clause, or proven redundant earlier in this
    /// analysis) or a level-0 fact. Newly visited literals are marked
    /// `seen` and recorded in `to_clear`; a failed probe unwinds only its
    /// own marks, a successful one leaves them as memoization.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32, to_clear: &mut Vec<Var>) -> bool {
        debug_assert!(self.min_stack.is_empty());
        let top = to_clear.len();
        self.min_stack.push(p);
        while let Some(l) = self.min_stack.pop() {
            match self.reason[l.var().index()].expect("redundancy probe needs a reason") {
                Reason::Binary(other) => {
                    if !self.min_check(other, abstract_levels, to_clear, top) {
                        return false;
                    }
                }
                Reason::Long(cr) => {
                    // Slot 0 is `l` itself (the implied literal), which is
                    // always `seen` here, so scanning it is a no-op.
                    let len = self.arena.len(cr);
                    for k in 0..len {
                        let q = self.arena.lit(cr, k);
                        if !self.min_check(q, abstract_levels, to_clear, top) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// One antecedent step of `lit_redundant`: accept `q` if it is
    /// already `seen` or fixed at level 0, descend into it if its level
    /// appears in the clause's abstract-level mask and it has a reason,
    /// and otherwise fail the whole probe, unwinding marks past `top`.
    fn min_check(
        &mut self,
        q: Lit,
        abstract_levels: u32,
        to_clear: &mut Vec<Var>,
        top: usize,
    ) -> bool {
        let v = q.var();
        if self.seen[v.index()] || self.level[v.index()] == 0 {
            return true;
        }
        if self.reason[v.index()].is_some()
            && (1u32 << (self.level[v.index()] & 31)) & abstract_levels != 0
        {
            self.seen[v.index()] = true;
            to_clear.push(v);
            self.min_stack.push(q);
            return true;
        }
        for &w in &to_clear[top..] {
            self.seen[w.index()] = false;
        }
        to_clear.truncate(top);
        self.min_stack.clear();
        false
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("non-empty trail");
            let v = l.var();
            self.assigns[v.index()] = UNASSIGNED;
            self.lit_vals[l.code()] = UNASSIGNED;
            self.lit_vals[(!l).code()] = UNASSIGNED;
            self.reason[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
        self.bhead = self.qhead;
    }

    fn decide(&mut self, l: Lit) {
        self.trail_lim.push(self.trail.len());
        self.unchecked_enqueue(l, None);
        self.stats.decisions += 1;
    }

    /// Backtrack for a restart, reusing the trail. The assumption prefix
    /// (`keep` levels) is never unwound — the cursor would re-assert the
    /// same literals in the same order, repaying the full propagation
    /// cost for an identical trail. Above it, decision levels whose
    /// decision variable still outranks the heuristic's next pick
    /// survive, because a full restart would re-create them verbatim
    /// (van der Tak et al., "Reusing the assignment trail"). On BMC-style
    /// instances where one activation literal implies tens of thousands
    /// of assignments, this turns most restarts from a full re-propagation
    /// into a cheap partial backtrack.
    fn restart_backtrack(&mut self, keep: u32) {
        let dl = self.decision_level();
        if dl <= keep {
            return;
        }
        // Activity of the decision the heuristic would make next.
        let next = loop {
            match self.heap.pop_max(&self.activity) {
                // Every variable is assigned: a restart would rebuild
                // this exact trail, so keep all of it.
                None => return,
                Some(v) if self.assigns[v.index()] == UNASSIGNED => {
                    self.heap.insert(v, &self.activity);
                    break self.activity[v.index()];
                }
                Some(_) => {} // stale heap entry for an assigned var
            }
        };
        let mut target = keep;
        while target < dl {
            let dec = self.trail[self.trail_lim[target as usize]];
            if self.activity[dec.var().index()] > next {
                target += 1;
            } else {
                break;
            }
        }
        self.backtrack(target);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v.index()] == UNASSIGNED {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    fn locked(&self, cref: ClauseRef) -> bool {
        let v = self.arena.lit(cref, 0).var();
        self.assigns[v.index()] != UNASSIGNED && self.reason[v.index()] == Some(Reason::Long(cref))
    }

    /// Tiered learnt-database reduction, in place at the current decision
    /// level: core clauses (LBD ≤ 2) are permanent, mid-tier clauses
    /// (LBD ≤ 6) survive while they keep participating in conflicts, and
    /// the local tier is sorted worst-first (high LBD, low activity) and
    /// its worse half collected. Victims are detached watcher-by-watcher — no
    /// watch-list rebuild, no backtrack.
    fn reduce_db(&mut self) {
        let mut victims: Vec<ClauseRef> = Vec::new();
        for i in 0..self.learnt_refs.len() {
            let c = self.learnt_refs[i];
            let lbd = self.arena.lbd(c);
            if lbd <= CORE_LBD {
                continue;
            }
            if lbd <= MID_LBD && self.arena.take_used(c) {
                continue; // mid tier, recently useful: keep and re-age
            }
            if self.locked(c) {
                continue;
            }
            victims.push(c);
        }
        victims.sort_unstable_by(|&a, &b| {
            self.arena
                .lbd(b)
                .cmp(&self.arena.lbd(a))
                .then_with(|| {
                    self.arena
                        .activity(a)
                        .partial_cmp(&self.arena.activity(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(&b))
        });
        for &c in &victims[..victims.len() / 2] {
            self.remove_long(c);
            self.stats.clauses_deleted += 1;
        }
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
    }

    /// Batch-boundary learnt-database trim for pooled incremental use:
    /// deletes every non-core long learnt clause (LBD above the
    /// permanent tier) regardless of its recent-use bit. A persistent
    /// context answers many unrelated query batches back to back, and
    /// mid/local clauses earned on one property mostly tax propagation
    /// on the next — watch lists grow with every batch while the core
    /// tier already keeps the strong resolvents. Called between
    /// batches at decision level 0, never mid-search.
    pub fn trim_learnts_for_batch(&mut self) {
        // Cancel any trail retained from the previous query first: a
        // retained SAT model pins most of the learnt database through
        // `locked` (every propagated literal holds its reason clause),
        // and retention is useless across batches anyway — the next
        // batch assumes a different property.
        self.backtrack(0);
        let mut victims: Vec<ClauseRef> = Vec::new();
        for i in 0..self.learnt_refs.len() {
            let c = self.learnt_refs[i];
            if self.arena.lbd(c) <= CORE_LBD || self.locked(c) {
                continue;
            }
            victims.push(c);
        }
        for &c in &victims {
            self.remove_long(c);
            self.stats.clauses_deleted += 1;
        }
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
    }

    /// Root-level inprocessing, run between queries at decision level 0:
    /// removes satisfied clauses, strips falsified literals in place, and
    /// runs budgeted subsumption / self-subsuming resolution over the
    /// learnt database.
    ///
    /// Sound under incremental `solve_assuming` because learnt clauses
    /// are resolvents of database clauses only — assumptions enter the
    /// search as *decisions*, never as clauses — so every level-0 fact is
    /// a consequence of the formula itself and every strengthened clause
    /// is implied by it.
    fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        if self.trail.len() > self.simplified_trail {
            self.remove_satisfied();
            self.simplified_trail = self.trail.len();
        }
        // The rescan threshold grows with the database: a pass over a
        // huge DB is only worth its setup cost once a meaningful
        // fraction of the clauses is new.
        let min_new = SUBSUME_MIN_NEW.max(self.learnt_refs.len() as u64 / 8);
        if self.stats.lbd_count >= self.last_subsume_count + min_new {
            self.subsume_learnts();
            self.last_subsume_count = self.stats.lbd_count;
        }
    }

    /// Deletes clauses satisfied at level 0 and strips falsified literals
    /// from the survivors (slots ≥ 2 only: a live clause's watched
    /// literals are unassigned at level 0 once satisfied clauses are
    /// gone, so watches stay valid).
    fn remove_satisfied(&mut self) {
        // Level-0 reasons are never resolved on (conflict analysis skips
        // level-0 variables), so they can be dropped — which also frees
        // every clause from `locked` pinning at the root.
        for r in &mut self.reason {
            *r = None;
        }
        for learnt_pass in [false, true] {
            let mut refs = if learnt_pass {
                std::mem::take(&mut self.learnt_refs)
            } else {
                std::mem::take(&mut self.orig_refs)
            };
            refs.retain(|&c| {
                let len = self.arena.len(c);
                let satisfied = (0..len).any(|k| self.lit_value(self.arena.lit(c, k)) == 1);
                if satisfied {
                    self.remove_long(c);
                    if learnt_pass {
                        self.stats.clauses_deleted += 1;
                    }
                    return false;
                }
                debug_assert_eq!(self.lit_value(self.arena.lit(c, 0)), UNASSIGNED);
                debug_assert_eq!(self.lit_value(self.arena.lit(c, 1)), UNASSIGNED);
                let mut w = 2;
                for k in 2..len {
                    let l = self.arena.lit(c, k);
                    if self.lit_value(l) != 0 {
                        if w != k {
                            self.arena.set_lit(c, w, l);
                        }
                        w += 1;
                    }
                }
                if w != len {
                    self.wasted += len - w;
                    self.arena.set_len(c, w);
                }
                if w == 2 {
                    // Demote to the binary store.
                    let (l0, l1) = (self.arena.lit(c, 0), self.arena.lit(c, 1));
                    self.detach_watcher(l0, c);
                    self.detach_watcher(l1, c);
                    self.arena.set_deleted(c);
                    self.wasted += HDR_WORDS + 2;
                    self.attach_binary(l0, l1, learnt_pass);
                    return false;
                }
                true
            });
            if learnt_pass {
                self.learnt_refs = refs;
            } else {
                self.orig_refs = refs;
            }
        }
        // Binary clauses with an assigned endpoint are satisfied at level
        // 0 (a false endpoint would have propagated the other to true).
        let mut removed_halves = 0u64;
        let mut removed_learnt_halves = 0u64;
        let assigns = &self.assigns;
        let lv = |l: Lit| -> i8 {
            let a = assigns[l.var().index()];
            if a == UNASSIGNED {
                UNASSIGNED
            } else if l.is_pos() {
                a
            } else {
                1 - a
            }
        };
        for (code, list) in self.bin_watches.iter_mut().enumerate() {
            if lv(Lit::from_code(code)) != UNASSIGNED {
                removed_halves += list.len() as u64;
                removed_learnt_halves += list.iter().filter(|w| w.learnt).count() as u64;
                list.clear();
            } else {
                let before = list.len();
                list.retain(|w| {
                    let keep = lv(w.other) == UNASSIGNED;
                    if !keep && w.learnt {
                        removed_learnt_halves += 1;
                    }
                    keep
                });
                removed_halves += (before - list.len()) as u64;
            }
        }
        debug_assert_eq!(removed_halves % 2, 0);
        self.num_binary -= removed_halves / 2;
        self.num_binary_learnt -= removed_learnt_halves / 2;
        self.stats.clauses_deleted += removed_learnt_halves / 2;
    }

    /// Budgeted backward subsumption and self-subsuming resolution over
    /// the learnt database (shortest clauses first). Runs at level 0 with
    /// every live literal unassigned, so strengthened clauses can be
    /// re-watched anywhere.
    fn subsume_learnts(&mut self) {
        if self.learnt_refs.len() < 2 {
            return;
        }
        // Bound the participant set so a pass costs the same no matter
        // how large the learnt DB is: only short clauses take part (they
        // are both the plausible subsumers and the cheap ones to index),
        // shortest first, hard-capped in number. Long clauses neither
        // subsume nor get subsumed in such a pass — a coverage trade
        // that keeps inprocessing off the profile on BMC-sized runs.
        let mut order: Vec<ClauseRef> = self
            .learnt_refs
            .iter()
            .copied()
            .filter(|&c| self.arena.len(c) <= SUBSUME_MAX_LEN)
            .collect();
        if order.len() < 2 {
            return;
        }
        order.sort_unstable_by_key(|&c| (self.arena.len(c), c));
        order.truncate(SUBSUME_MAX_CLAUSES);
        // Signatures and occurrence lists (literal code -> clause indices).
        let mut occ: std::collections::HashMap<usize, Vec<u32>> = std::collections::HashMap::new();
        let mut sigs: Vec<u64> = Vec::with_capacity(order.len());
        for (ix, &c) in order.iter().enumerate() {
            let mut sig = 0u64;
            for k in 0..self.arena.len(c) {
                let l = self.arena.lit(c, k);
                sig |= 1u64 << (l.var().0 % 64);
                occ.entry(l.code()).or_default().push(ix as u32);
            }
            sigs.push(sig);
        }
        let need = 2 * self.num_vars();
        if self.lit_stamp.len() < need {
            self.lit_stamp.resize(need, 0);
        }
        let mut budget = SUBSUME_BUDGET;
        'clauses: for ci in 0..order.len() {
            let c = order[ci];
            if self.arena.is_deleted(c) {
                continue;
            }
            let clen = self.arena.len(c);
            self.lit_stamp_gen += 1;
            let gen = self.lit_stamp_gen;
            let mut sig_c = 0u64;
            let mut pivot = usize::MAX;
            let mut pivot_occ = usize::MAX;
            for k in 0..clen {
                let l = self.arena.lit(c, k);
                self.lit_stamp[l.code()] = gen;
                sig_c |= 1u64 << (l.var().0 % 64);
                let olen = occ.get(&l.code()).map_or(0, Vec::len);
                if olen < pivot_occ {
                    pivot_occ = olen;
                    pivot = l.code();
                }
            }
            let Some(cands) = occ.get(&pivot) else {
                continue;
            };
            for di in cands.clone() {
                let d = order[di as usize];
                if d == c || self.arena.is_deleted(d) {
                    continue;
                }
                let dlen = self.arena.len(d);
                if dlen < clen || sig_c & !sigs[di as usize] != 0 {
                    continue;
                }
                if budget < dlen as u64 {
                    break 'clauses;
                }
                budget -= dlen as u64;
                let mut matched = 0usize;
                let mut negs = 0usize;
                let mut neg_lit = None;
                for k in 0..dlen {
                    let q = self.arena.lit(d, k);
                    if self.lit_stamp[q.code()] == gen {
                        matched += 1;
                    } else if self.lit_stamp[(!q).code()] == gen {
                        negs += 1;
                        neg_lit = Some(q);
                    }
                }
                if matched == clen {
                    // C ⊆ D: D is redundant.
                    self.remove_long(d);
                    self.stats.clauses_deleted += 1;
                    self.stats.subsumed += 1;
                } else if matched + 1 == clen && negs == 1 {
                    // Self-subsuming resolution: resolving C and D on the
                    // flipped variable yields D minus that literal.
                    self.strengthen(d, neg_lit.expect("counted one flipped literal"));
                    self.stats.strengthened += 1;
                }
            }
        }
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
    }

    /// Removes literal `l` from live long clause `c` (level 0, all
    /// literals unassigned), re-homing a watcher if a watched slot was
    /// hit and demoting to the binary store when only two literals
    /// remain.
    fn strengthen(&mut self, c: ClauseRef, l: Lit) {
        let len = self.arena.len(c);
        debug_assert!(len >= 3);
        let pos = (0..len)
            .find(|&k| self.arena.lit(c, k) == l)
            .expect("strengthen: literal present");
        if pos < 2 {
            self.detach_watcher(l, c);
        }
        let last = self.arena.lit(c, len - 1);
        self.arena.set_lit(c, pos, last);
        self.arena.set_len(c, len - 1);
        self.wasted += 1;
        if len - 1 == 2 {
            let (l0, l1) = (self.arena.lit(c, 0), self.arena.lit(c, 1));
            if pos >= 2 {
                self.detach_watcher(l0, c);
                self.detach_watcher(l1, c);
            } else {
                self.detach_watcher(self.arena.lit(c, 1 - pos), c);
            }
            let learnt = self.arena.is_learnt(c);
            self.arena.set_deleted(c);
            self.wasted += HDR_WORDS + 2;
            self.attach_binary(l0, l1, learnt);
        } else if pos < 2 {
            let blocker = self.arena.lit(c, 1 - pos);
            let wlit = self.arena.lit(c, pos);
            self.watches[wlit.code()].push(Watcher { cref: c, blocker });
        }
    }

    /// Compacts the arena when enough of it is tombstones, remapping
    /// clause refs in the watch lists. Level-0 only; reasons are cleared
    /// (they are never resolved on at the root).
    fn maybe_collect_garbage(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.wasted <= 1024 || self.wasted * 2 < self.arena.data.len() {
            return;
        }
        for r in &mut self.reason {
            *r = None;
        }
        let mut new_data: Vec<u32> = Vec::with_capacity(self.arena.data.len() - self.wasted);
        let mut map: std::collections::HashMap<ClauseRef, ClauseRef> =
            std::collections::HashMap::with_capacity(self.orig_refs.len() + self.learnt_refs.len());
        for refs in [&mut self.orig_refs, &mut self.learnt_refs] {
            for c in refs.iter_mut() {
                let old = *c as usize;
                let words = HDR_WORDS + (self.arena.data[old] & HDR_LEN_MASK) as usize;
                let new_off = new_data.len() as u32;
                new_data.extend_from_slice(&self.arena.data[old..old + words]);
                map.insert(*c, new_off);
                *c = new_off;
            }
        }
        self.arena.data = new_data;
        self.wasted = 0;
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = *map.get(&w.cref).expect("watched clause is live");
            }
        }
    }

    /// Whether root-only maintenance (inprocessing, arena compaction) is
    /// due. A retained trail is unwound before such a pass so the
    /// level-0-only invariants of `simplify` / garbage collection hold;
    /// checking cheaply here keeps retention from starving them.
    fn root_work_due(&self) -> bool {
        if self.wasted > 1024 && self.wasted * 2 >= self.arena.data.len() {
            return true;
        }
        // Root-trail growth (new top-level units) or enough new learnts
        // for a subsumption pass — the same gates `simplify` applies.
        let root_trail = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        let min_new = SUBSUME_MIN_NEW.max(self.learnt_refs.len() as u64 / 8);
        root_trail > self.simplified_trail
            || self.stats.lbd_count >= self.last_subsume_count + min_new
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_assuming(&[])
    }

    /// Solves under the given assumption literals. The clause database
    /// (including learnt clauses) persists across calls, enabling the
    /// incremental per-property queries issued by the model checker.
    /// Assumptions are asserted one per decision level via a cursor —
    /// the level index *is* the index of the next assumption to assert,
    /// so re-assertion after a backjump is O(1) per level rather than a
    /// rescan of the whole assumption list.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.last_stop = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        if let Some(reason) = self.cancel.as_ref().and_then(|t| t.fired()) {
            self.last_stop = Some(reason.into());
            return SolveResult::Unknown;
        }
        // Trail retention: consecutive incremental queries usually share
        // an assumption prefix (the model checker re-queries one
        // activation set with a different final literal). Unwind only to
        // the longest prefix shared with the previous query — the spared
        // levels are exactly the re-propagation of the shared activation
        // closure, the dominant cost of short queries on big encodings.
        // Root-only maintenance forces a full unwind, as does any clause
        // addition the retained trail could not absorb (`add_clause`).
        let mut keep = 0u32;
        if !self.root_work_due() {
            let max = (self.decision_level() as usize)
                .min(self.retained.len())
                .min(assumptions.len());
            while (keep as usize) < max
                && self.retained[keep as usize] == assumptions[keep as usize]
            {
                keep += 1;
            }
        }
        self.backtrack(keep);
        self.retained.truncate(keep as usize);
        if keep > 0 {
            self.stats.trail_reuses += 1;
            self.stats.reused_levels += keep as u64;
        } else {
            debug_assert_eq!(self.decision_level(), 0);
            // A query stopped by its budget or cancellation right after
            // learning a unit leaves that unit unpropagated at the root;
            // root maintenance needs the root fully propagated.
            if self.propagate().is_some() {
                self.ok = false;
                return SolveResult::Unsat;
            }
            self.simplify();
            self.maybe_collect_garbage();
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        let budget_start = self.stats.conflicts;
        let mut conflicts_since_restart = 0u64;

        let result = loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                let trail_at_conflict = self.trail.len();
                let (learnt, bt, lbd) = self.analyze(confl);
                // Chronological backtracking (Nadel & Ryvchin): when the
                // backjump would unwind a long stretch of decision
                // levels, step back a single level instead. The learnt
                // clause is still asserting there (its other literals
                // all sit at or below `bt`), and the spared levels — on
                // BMC-shaped instances, tens of thousands of propagated
                // literals — do not have to be rebuilt. Unit learnts are
                // exempt: they must be posted at the root, reasonless,
                // and a reasonless literal above the decision would break
                // conflict analysis. Assignments are always stamped with
                // the current decision level, so trail levels stay
                // monotone and analysis invariants are untouched.
                let dl = self.decision_level();
                let bt = if learnt.len() >= 2 && dl > bt + CHRONO_LEVELS {
                    dl - 1
                } else {
                    bt
                };
                self.backtrack(bt);
                match learnt.len() {
                    1 => self.unchecked_enqueue(learnt[0], None),
                    2 => {
                        self.attach_binary(learnt[0], learnt[1], true);
                        self.unchecked_enqueue(learnt[0], Some(Reason::Binary(learnt[1])));
                    }
                    _ => {
                        let cref = self.attach_long(&learnt, true, lbd);
                        self.bump_clause(cref);
                        self.unchecked_enqueue(learnt[0], Some(Reason::Long(cref)));
                    }
                }
                self.stats.lbd_sum += lbd as u64;
                self.stats.lbd_count += 1;
                if lbd > self.stats.max_lbd {
                    self.stats.max_lbd = lbd;
                }
                let l = lbd as f64;
                self.ema_fast += EMA_FAST * (l - self.ema_fast);
                self.ema_slow += EMA_SLOW * (l - self.ema_slow);
                self.ema_trail += EMA_TRAIL * (trail_at_conflict as f64 - self.ema_trail);
                if self.stats.conflicts >= BLOCK_MIN_CONFLICTS
                    && conflicts_since_restart >= GLUCOSE_MIN_INTERVAL
                    && self.ema_fast > RESTART_MARGIN * self.ema_slow
                    && trail_at_conflict as f64 > BLOCK_MARGIN * self.ema_trail
                {
                    // A restart is due, but the assignment is unusually
                    // deep — it may be about to close. Postpone.
                    conflicts_since_restart = 0;
                    self.ema_fast = self.ema_slow;
                    self.stats.blocked_restarts += 1;
                }
                self.var_inc /= VAR_DECAY;
                self.clause_inc /= CLAUSE_DECAY;
                let spent = self.stats.conflicts - budget_start;
                if let Some(b) = self.conflict_budget {
                    if spent >= b {
                        self.last_stop = Some(StopCause::ConflictBudget);
                        break SolveResult::Unknown;
                    }
                }
                if (self.cancel.is_some() || self.pool_watch.is_some())
                    && spent.is_multiple_of(STOP_CHECK_INTERVAL)
                {
                    if let Some(reason) = self.cancel.as_ref().and_then(|t| t.fired()) {
                        self.last_stop = Some(reason.into());
                        break SolveResult::Unknown;
                    }
                    if self
                        .pool_watch
                        .as_ref()
                        .is_some_and(|p| p.would_exhaust(spent))
                    {
                        self.last_stop = Some(StopCause::PoolCap);
                        break SolveResult::Unknown;
                    }
                }
            } else {
                // No conflict: maybe restart / reduce, then extend the
                // assignment.
                if conflicts_since_restart >= GLUCOSE_MIN_INTERVAL
                    && self.ema_fast > RESTART_MARGIN * self.ema_slow
                {
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    self.ema_fast = self.ema_slow;
                    self.restart_backtrack(assumptions.len() as u32);
                    continue;
                }
                if !self.learnt_refs.is_empty() && self.stats.conflicts >= self.next_reduce {
                    self.reduce_db();
                    self.reduces += 1;
                    self.next_reduce =
                        self.stats.conflicts + REDUCE_BASE + REDUCE_INC * self.reduces;
                }
                // Assumption cursor: decision level k asserts assumption k.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        1 => self.trail_lim.push(self.trail.len()), // already true: empty level
                        0 => break SolveResult::Unsat,
                        _ => self.decide(a),
                    }
                    continue;
                }
                match self.pick_branch() {
                    Some(l) => self.decide(l),
                    None => {
                        self.model.copy_from_slice(&self.assigns);
                        break SolveResult::Sat;
                    }
                }
            }
        };
        // Keep the asserted assumption levels standing for the next
        // query; drop search decisions above them. The next solve (or a
        // clause addition) unwinds whatever it cannot reuse.
        let keep = if self.ok {
            self.decision_level().min(assumptions.len() as u32)
        } else {
            0
        };
        self.backtrack(keep);
        self.retained.clear();
        self.retained
            .extend_from_slice(&assumptions[..keep as usize]);
        result
    }

    /// The value of `v` in the most recent satisfying model, or `None` if
    /// the variable was unconstrained/unassigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(&1) => Some(true),
            Some(&0) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent model.
    pub fn lit_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_pos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unit_conflict_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn forces_implied_assignment() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        // a, a->b, b->c
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b), (b xor c), (a xor c) is unsat; drop one clause => sat.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        };
        xor(&mut s, v[0], v[1]);
        xor(&mut s, v[1], v[2]);
        assert!(s.solve().is_sat());
        xor(&mut s, v[0], v[2]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let mut s = Solver::new();
        let mut p = [[Var(0); 3]; 4];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&row.map(Lit::pos));
        }
        for j in 0..3 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn assumptions_are_transient() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert!(s
            .solve_assuming(&[Lit::neg(v[0]), Lit::neg(v[1])])
            .is_unsat());
        // Same formula without assumptions stays sat.
        assert!(s.solve().is_sat());
        assert!(s.solve_assuming(&[Lit::neg(v[0])]).is_sat());
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn trail_retention_reuses_shared_prefixes() {
        // An implication-chain formula queried under a fixed assumption
        // prefix with a varying last literal: the solver must reuse the
        // prefix levels (observable in the stats) and agree on every
        // verdict with a fresh solver holding the same clauses.
        let build = |s: &mut Solver| {
            let v = lits(s, 40);
            for w in v.windows(2) {
                s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
            }
            // The chain makes v39 true whenever v0 is, so this clause
            // just forces !v0 whenever v39 holds.
            s.add_clause(&[Lit::neg(v[39]), Lit::neg(v[0])]);
            v
        };
        let mut s = Solver::new();
        let v = build(&mut s);
        let prefix: Vec<Lit> = (5..15).map(|i| Lit::pos(v[i])).collect();
        for (i, &last) in v.iter().enumerate().skip(15) {
            for pos in [true, false] {
                let mut a = prefix.clone();
                a.push(Lit::new(last, pos));
                let mut fresh = Solver::new();
                build(&mut fresh);
                assert_eq!(
                    s.solve_assuming(&a),
                    fresh.solve_assuming(&a),
                    "query {i} pos={pos}"
                );
            }
        }
        assert!(s.stats().trail_reuses > 0, "retention never fired");
        assert!(s.stats().reused_levels >= s.stats().trail_reuses);
    }

    #[test]
    fn trail_retention_sound_across_clause_additions() {
        // Interleave retained queries with clause additions of both
        // kinds: fresh-activation clauses (attachable in place above the
        // root) and blocking clauses falsified by the last model (forcing
        // the root fallback). Verdicts must track the formula exactly.
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        for w in v.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        let prefix = [Lit::pos(v[0]), Lit::pos(v[1])];
        assert!(s.solve_assuming(&prefix).is_sat());
        // Fresh activation literal: its defining clause has an unassigned
        // literal, so it attaches without disturbing the retained trail.
        let act = s.new_var();
        s.add_clause(&[Lit::neg(act), Lit::neg(v[7])]);
        let mut with_act = prefix.to_vec();
        with_act.push(Lit::pos(act));
        // Chain forces v7 true under v0; act forces it false.
        assert!(s.solve_assuming(&with_act).is_unsat());
        assert!(s.solve_assuming(&prefix).is_sat());
        // Blocking clause contradicting the current model (and the
        // retained prefix): must fall back to the root, stay sound.
        s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1])]);
        assert!(s.solve_assuming(&prefix).is_unsat());
        assert!(s.solve().is_sat());
        // A clause over retained-false literals only: also a root reset.
        assert!(s.solve_assuming(&[Lit::neg(v[0]), Lit::pos(v[1])]).is_sat());
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s
            .solve_assuming(&[Lit::neg(v[0]), Lit::pos(v[1])])
            .is_unsat());
    }

    #[test]
    fn contradictory_assumptions_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s
            .solve_assuming(&[Lit::pos(v[0]), Lit::neg(v[0])])
            .is_unsat());
    }

    #[test]
    fn budget_yields_unknown_on_hard_instance() {
        let mut s = Solver::new();
        let mut p = [[Var(0); 4]; 5];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&row.map(Lit::pos));
        }
        for j in 0..4 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert!(s.solve().is_unsat());
    }

    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let mut p = vec![vec![Var(0); holes]; pigeons];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().copied().map(Lit::pos).collect();
            s.add_clause(&lits);
        }
        for j in 0..holes {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
    }

    #[test]
    fn prefired_cancel_token_stops_before_search() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        let token = Arc::new(CancelToken::new());
        token.cancel();
        s.set_cancel_token(Some(Arc::clone(&token)));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_stop(), Some(StopCause::Cancelled));
        // Detached, the same formula solves normally and clears the cause.
        s.set_cancel_token(None);
        assert!(s.solve().is_unsat());
        assert_eq!(s.last_stop(), None);
    }

    #[test]
    fn expired_deadline_reports_deadline_cause() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        let token = Arc::new(CancelToken::deadline_in(std::time::Duration::ZERO));
        s.set_cancel_token(Some(token));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_stop(), Some(StopCause::Deadline));
    }

    #[test]
    fn pool_watch_bounds_cap_overshoot_mid_solve() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        let pool = Arc::new(BudgetPool::new(Some(200)));
        s.set_pool_watch(Some(Arc::clone(&pool)));
        let r = s.solve();
        if r == SolveResult::Unknown {
            assert_eq!(s.last_stop(), Some(StopCause::PoolCap));
            // Overshoot past the cap is bounded by one poll interval.
            assert!(
                s.stats().conflicts <= 200 + STOP_CHECK_INTERVAL,
                "ran {} conflicts past a 200-conflict cap",
                s.stats().conflicts
            );
        } else {
            // The instance resolved under the cap; the watch must not
            // have perturbed the result.
            assert!(r.is_unsat());
        }
    }

    #[test]
    fn conflict_budget_reports_cause() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_stop(), Some(StopCause::ConflictBudget));
    }

    fn random_3sat(s: &mut Solver, vars: &[Var], clauses: usize, mut state: u64) -> Vec<Vec<Lit>> {
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cls = Vec::new();
        for _ in 0..clauses {
            let mut c = Vec::new();
            for _ in 0..3 {
                let var = vars[(rnd() % vars.len() as u64) as usize];
                c.push(Lit::new(var, rnd() % 2 == 0));
            }
            cls.push(c.clone());
            s.add_clause(&c);
        }
        cls
    }

    #[test]
    fn a_unit_left_unpropagated_by_a_budget_stop_is_propagated_first() {
        // Random 3-SAT instances under a one-conflict budget until one
        // stops right after learning a unit; the next query must propagate
        // it before root maintenance and answer as a fresh solver does.
        let mut found = false;
        for seed in 1..500u64 {
            let mut s = Solver::new();
            let v = lits(&mut s, 40);
            let cls = random_3sat(&mut s, &v, 170, seed);
            s.set_conflict_budget(Some(1));
            if s.solve() != SolveResult::Unknown
                || s.decision_level() != 0
                || s.qhead == s.trail.len()
            {
                continue;
            }
            found = true;
            s.set_conflict_budget(None);
            let mut fresh = Solver::new();
            let fv = lits(&mut fresh, 40);
            assert_eq!(fv, v);
            for c in &cls {
                fresh.add_clause(c);
            }
            assert_eq!(s.solve(), fresh.solve(), "seed {seed}");
            break;
        }
        assert!(found, "no instance stopped with a pending root unit");
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Deterministic pseudo-random 3-SAT; verify the model.
        let mut s = Solver::new();
        let v = lits(&mut s, 20);
        let cls = random_3sat(&mut s, &v, 60, 0x12345678);
        if s.solve().is_sat() {
            for c in cls {
                assert!(
                    c.iter().any(|&l| s.lit_model(l) == Some(true)),
                    "model violates clause"
                );
            }
        }
    }

    #[test]
    fn reduce_db_preserves_correctness() {
        // Force many conflicts so reduction triggers, then confirm the
        // formula's status is unchanged. Pigeonhole 6 into 5.
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_is_unsat_and_random_3sat_has_a_valid_model() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        assert!(s.solve().is_unsat());

        let mut s = Solver::new();
        let v = lits(&mut s, 30);
        let cls = random_3sat(&mut s, &v, 90, 0xdeadbeef);
        assert!(s.solve().is_sat());
        for c in &cls {
            assert!(
                c.iter().any(|&l| s.lit_model(l) == Some(true)),
                "model violates clause"
            );
        }
    }

    #[test]
    fn default_solver_is_the_new_solver() {
        let mut s = Solver::default();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));

        // A random 3-SAT formula near the phase transition: same verdict
        // and the same search, counter for counter.
        let run = |mut s: Solver| {
            let v = lits(&mut s, 40);
            random_3sat(&mut s, &v, 170, 0x5eed_cafe);
            (s.solve(), s.stats())
        };
        let (verdict, stats) = run(Solver::default());
        assert_eq!((verdict, stats), run(Solver::new()));
        assert!(stats.conflicts > 0, "the formula needs search");
    }

    #[test]
    fn binary_clauses_use_dedicated_store_and_stats() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        // Implication chain of binary clauses, then a unit that pushes a
        // propagation wave through the binary store.
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[2]), Lit::pos(v[3])]);
        assert_eq!(s.stats().binary_clauses, 3);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[3]), Some(true));
    }

    #[test]
    fn learnt_tier_gauges_are_consistent() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert!(s.solve().is_unsat());
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.lbd_count > 0);
        assert!(st.avg_lbd() >= 1.0);
        assert!(st.max_lbd >= 1);
        assert_eq!(st.learnts, st.learnt_core + st.learnt_mid + st.learnt_local);
    }

    #[test]
    fn inprocessed_queries_agree_with_fresh_solvers() {
        // A sequence of assumption queries on one solver, with a unit
        // added midway to feed root-level simplification, must give each
        // query the verdict of a fresh solver holding the same clauses,
        // and every Sat model must satisfy all of them.
        let mut s = Solver::new();
        let v = lits(&mut s, 40);
        let mut cls = random_3sat(&mut s, &v, 130, 0xabcdef01);
        for q in 0..10usize {
            let a = [
                Lit::new(v[q * 3], q % 2 == 0),
                Lit::new(v[q * 3 + 1], q % 3 == 0),
            ];
            let mut fresh = Solver::new();
            lits(&mut fresh, 40);
            for c in &cls {
                fresh.add_clause(c);
            }
            let r = s.solve_assuming(&a);
            assert_eq!(r, fresh.solve_assuming(&a), "query {q}");
            if r.is_sat() {
                for c in &cls {
                    assert!(
                        c.iter().any(|&l| s.lit_model(l) == Some(true)),
                        "query {q}: model violates clause"
                    );
                }
            }
            // Feed a level-0 fact between queries.
            if q == 4 {
                s.add_clause(&[Lit::pos(v[39])]);
                cls.push(vec![Lit::pos(v[39])]);
            }
        }
    }

    #[test]
    fn many_assumptions_cursor() {
        // A long implication chain queried under many assumptions — the
        // cursor must assert each exactly once per level and stay sound.
        let mut s = Solver::new();
        let v = lits(&mut s, 100);
        for i in 0..99 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        let assumptions: Vec<Lit> = (0..50).map(|i| Lit::pos(v[2 * i])).collect();
        assert!(s.solve_assuming(&assumptions).is_sat());
        // Assuming the head forces the tail; denying the tail is unsat.
        let mut bad = assumptions.clone();
        bad.push(Lit::neg(v[99]));
        assert!(s.solve_assuming(&bad).is_unsat());
        // Duplicate assumptions exercise the already-true cursor path.
        let dup: Vec<Lit> = std::iter::repeat_n(Lit::pos(v[0]), 20).collect();
        assert!(s.solve_assuming(&dup).is_sat());
    }

    #[test]
    fn inprocessing_shrinks_database_between_queries() {
        let mut s = Solver::new();
        let v = lits(&mut s, 60);
        random_3sat(&mut s, &v, 200, 0x5eed5eed);
        assert!(s.solve().is_sat());
        // Pin a variable at level 0; the next query's root-level cleanup
        // must drop every clause satisfied by it.
        s.add_clause(&[Lit::pos(v[0])]);
        let before = s.orig_refs.len() + s.num_binary as usize;
        assert!(s.solve().is_sat());
        let after = s.orig_refs.len() + s.num_binary as usize;
        assert!(
            after <= before,
            "database grew across root simplification: {before} -> {after}"
        );
    }

    #[test]
    fn garbage_collection_keeps_verdicts() {
        // Alternate hard unsat queries (via assumptions) with reductions
        // so tombstones accumulate, then verify a later query still
        // answers correctly after compaction.
        let mut s = Solver::new();
        let v = lits(&mut s, 50);
        random_3sat(&mut s, &v, 160, 0x77777777);
        let r1 = s.solve();
        for (q, &var) in v.iter().enumerate().take(6) {
            let a = Lit::new(var, q % 2 == 0);
            let _ = s.solve_assuming(&[a]);
        }
        let r2 = s.solve();
        assert_eq!(r1.is_sat(), r2.is_sat());
    }
}
