//! Deterministic fault injection and the checkpoint store interface — the
//! half of DESIGN.md §8 that [`Fleet::run`] draws on.
//!
//! [`FaultPlan`] deterministically schedules injected faults (panics,
//! forced-Unknown queries, expired deadlines) per (phase, job, attempt)
//! from a seed and a rate, so a failing fault-injected run replays from
//! `SYNTHLC_FAULT_SEED` alone and a retried job rolls afresh.
//!
//! [`JobStore`] is the narrow interface [`Fleet::run`] checkpoints and
//! replays completed job verdicts through; `synthlc::journal::Journal`
//! implements it with an append-only, fsync'd, torn-tail-tolerant file.
//!
//! Supervision itself lives with the context chains in [`Fleet::run`]:
//! every job runs under `catch_unwind`, so one panicking property sweep
//! costs its own result, not the whole `std::thread::scope`. Its retries
//! rerun the job on a fresh checker, and a job still failing degrades to
//! [`Outcome::Undetermined`] with [`UndeterminedReason::JobPanicked`].
//!
//! [`Fleet::run`]: crate::Fleet::run
//! [`Outcome::Undetermined`]: crate::Outcome::Undetermined
//! [`UndeterminedReason::JobPanicked`]: crate::UndeterminedReason::JobPanicked

/// What an injected fault does to its job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The job panics mid-flight (exercises the supervisor).
    Panic,
    /// Every solver query in the job is forced to `Unknown` (exercises
    /// the forced-degradation path without burning solver time).
    ForceUnknown,
    /// The job runs under an already-expired deadline (exercises the
    /// cancellation plumbing end to end).
    DeadlineExpired,
}

/// What an injected fault does to one serve-loop step — the daemon-phase
/// fault points (worker supervision, queue scheduling, journal
/// persistence) that a synthesis job never sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFault {
    /// The worker panics mid-job (exercises serve-side supervision and
    /// retry).
    WorkerPanic,
    /// The queue stalls before dispatching the job (exercises
    /// backpressure and shedding under latency, never verdicts).
    QueueStall,
    /// The journal append for this job's verdict is torn mid-write
    /// (exercises restart recovery of the verdict store).
    TornJournalWrite,
    /// The job runs under an already-expired watchdog deadline
    /// (exercises the retry-then-degrade path).
    DeadlineExpired,
}

/// A deterministic schedule of injected faults.
///
/// Whether job `ix` of a named phase faults — and how — is a pure
/// function of `(seed, phase, ix)`, so a run replays exactly from its
/// seed, at any worker count. A rate of `0.0` plans nothing and is the
/// zero-cost default.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
}

impl FaultPlan {
    /// A plan injecting faults at `rate` (a probability in `[0, 1]` per
    /// job) from `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The inactive plan: never faults.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this plan can fault at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed from `SYNTHLC_FAULT_SEED` (decimal), defaulting to 0.
    pub fn env_seed() -> u64 {
        std::env::var("SYNTHLC_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    /// The fault planned for retry attempt `attempt` of job `ix` of
    /// `phase`, if any. Phases keep independent streams so e.g. µPATH slot
    /// jobs and IFT unit jobs fault independently under one seed. Attempt
    /// 0 is a job's first run; later attempts roll independently, so a
    /// retried job can recover from an injected fault instead of
    /// deterministically re-hitting it.
    pub fn fault_for_attempt(&self, phase: &str, ix: usize, attempt: u32) -> Option<FaultKind> {
        use FaultKind::*;
        self.roll(phase, ix, attempt, &[Panic, ForceUnknown, DeadlineExpired])
    }

    /// The serve-phase fault planned for step `ix` of `phase` at retry
    /// `attempt`, if any. Serve phases draw from their own kind set
    /// ([`ServeFault`]: worker panic, queue stall, torn journal write,
    /// expired watchdog) but use the same pure `(seed, phase, ix,
    /// attempt)` schedule, so a chaos-mode daemon run replays exactly
    /// from `SYNTHLC_FAULT_SEED`.
    pub fn serve_fault_for(&self, phase: &str, ix: usize, attempt: u32) -> Option<ServeFault> {
        use ServeFault::*;
        let kinds = [WorkerPanic, QueueStall, TornJournalWrite, DeadlineExpired];
        self.roll(phase, ix, attempt, &kinds)
    }

    /// The one fault draw: with probability `rate`, one of `kinds`,
    /// uniformly, from the `(phase, ix, attempt)` stream.
    fn roll<K: Copy>(&self, phase: &str, ix: usize, attempt: u32, kinds: &[K]) -> Option<K> {
        let mut rng = self.job_rng(phase, ix, attempt)?;
        if !rng.chance(self.rate) {
            return None;
        }
        Some(kinds[rng.range_usize(0, kinds.len())])
    }

    /// The per-(phase, ix, attempt) PRNG stream behind every schedule:
    /// FNV-1a over the coordinates, decorrelated by the seed. `None` when
    /// the plan is inactive. Attempt 0 skips the attempt mix-in so the
    /// pre-retry streams are preserved byte for byte.
    fn job_rng(&self, phase: &str, ix: usize, attempt: u32) -> Option<prng::Rng> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut h = netlist::Fnv::new();
        h.bytes(phase.as_bytes()).word(ix as u64);
        if attempt > 0 {
            h.word(0xa5a5_0000 ^ attempt as u64);
        }
        Some(prng::Rng::new(
            h.finish() ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }
}

/// A persistent store of completed job results, keyed by stable
/// fingerprint strings — the interface drivers journal through without
/// depending on the journal's file format. Implementations must be safe
/// to call from parallel workers.
pub trait JobStore: std::fmt::Debug + Send + Sync {
    /// The stored record for `key`, if one was completed earlier.
    fn get(&self, key: &str) -> Option<String>;

    /// Durably persists `record` under `key`.
    fn put(&self, key: &str, record: &str);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_and_phase_split() {
        let plan = FaultPlan::new(42, 0.5);
        let a: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("ift", ix, 0))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("ift", ix, 0))
            .collect();
        assert_eq!(a, b, "same (seed, phase, ix) must plan the same fault");
        let c: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("mupath", ix, 0))
            .collect();
        assert_ne!(a, c, "phases should have independent fault streams");
        let hits = a.iter().flatten().count();
        assert!(
            (10..60).contains(&hits),
            "rate 0.5 planned {hits}/64 faults"
        );
    }

    #[test]
    fn disabled_plan_never_faults() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        assert!((0..256).all(|ix| plan.fault_for_attempt("any", ix, 0).is_none()));
    }

    #[test]
    fn retry_attempts_roll_independently() {
        let plan = FaultPlan::new(42, 0.5);
        let a0: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("p", ix, 0))
            .collect();
        let a1: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("p", ix, 1))
            .collect();
        let a2: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("p", ix, 2))
            .collect();
        assert_ne!(a0, a1, "attempt 1 must not replay attempt 0's faults");
        assert_ne!(a1, a2, "attempt 2 must not replay attempt 1's faults");
        // A faulted job must be able to recover on retry somewhere in the
        // sweep — otherwise retries are pure waste under injection.
        assert!(
            (0..64).any(|ix| plan.fault_for_attempt("p", ix, 0).is_some()
                && plan.fault_for_attempt("p", ix, 1).is_none()),
            "no faulted job recovers on its first retry"
        );
    }

    #[test]
    fn serve_faults_are_deterministic_and_cover_all_kinds() {
        let plan = FaultPlan::new(7, 1.0);
        let a: Vec<_> = (0..64)
            .map(|ix| plan.serve_fault_for("serve-worker", ix, 0))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|ix| plan.serve_fault_for("serve-worker", ix, 0))
            .collect();
        assert_eq!(
            a, b,
            "same (seed, phase, ix, attempt) must plan the same fault"
        );
        let kinds: std::collections::BTreeSet<String> =
            a.iter().flatten().map(|k| format!("{k:?}")).collect();
        assert_eq!(
            kinds.len(),
            4,
            "expected all four serve fault kinds: {kinds:?}"
        );
        assert!(
            FaultPlan::disabled()
                .serve_fault_for("serve-worker", 0, 0)
                .is_none(),
            "inactive plans must never fault the serve loop"
        );
    }

    #[test]
    fn fault_kinds_all_occur_at_high_rate() {
        let plan = FaultPlan::new(7, 1.0);
        let kinds: std::collections::BTreeSet<_> = (0..64)
            .filter_map(|ix| plan.fault_for_attempt("k", ix, 0))
            .map(|k| format!("{k:?}"))
            .collect();
        assert_eq!(kinds.len(), 3, "expected all three fault kinds: {kinds:?}");
    }
}
