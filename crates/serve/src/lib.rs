//! `synthlc serve`: a long-lived verification daemon over the batch
//! drivers (DESIGN.md §13).
//!
//! The batch CLI answers one query and exits; this crate turns the same
//! engines into a supervised service:
//!
//! ```text
//! client ──JSONL──► accept loop ──► bounded queue ──► supervised workers
//!                                      │ shed when full     │ catch_unwind
//!                                      ▼                    │ watchdog deadline
//!                                 `overloaded`              │ seeded-backoff retries
//!                                                           ▼
//!                                         verdict store (synthlc::Journal)
//! ```
//!
//! Robustness contract, inherited from the batch drivers and extended to
//! the serve phase:
//!
//! * **faults only widen verdicts** — a panic, stall, torn write, or
//!   expired watchdog can turn a clean verdict into `Undetermined`
//!   (exit 2), never flip it;
//! * **retries are recovery, not replay** — each attempt rolls its own
//!   fault schedule ([`mc::FaultPlan::serve_fault_for`]), so an injected
//!   fault does not deterministically re-hit;
//! * **clean verdicts are content-addressed** — keyed by (job kind,
//!   design source bytes, verdict-relevant knobs as sent) in a crash-safe
//!   journal, so identical jobs are answered from cache without parsing
//!   the design and a killed daemon restarts byte-identically
//!   (`tests/serve_robustness.rs`).

pub mod engine;
pub mod knobs;
pub mod net;
pub mod proto;

pub use engine::{ServeConfig, Server, Submit};
pub use knobs::{parse_deadline_secs, parse_fault_rate};
pub use net::{run_client, serve_tcp};
pub use proto::{Op, Request};
/// The daemon's verdict store is the batch drivers' checkpoint journal;
/// the old name stays for existing callers.
pub use synthlc::Journal as VerdictStore;

/// The fault seed pinned by the `scripts/ci.sh` serve-smoke stage: at
/// rate 0.5 it plans a worker panic for the very first job's first
/// attempt, a clean first retry for that job, and clean first attempts
/// for the next few jobs — so the smoke run must retry exactly once and
/// still exit clean. `tests` below assert the schedule so a drift in the
/// fault PRNG shows up here, not as a flaky CI stage.
pub const CI_SMOKE_SEED: u64 = 209;

#[cfg(test)]
mod seed_tests {
    use super::*;
    use mc::{FaultPlan, ServeFault};

    #[test]
    fn ci_serve_smoke_seed_is_pinned() {
        let fits = |s: u64| {
            let p = FaultPlan::new(s, 0.5);
            p.serve_fault_for("serve-worker", 0, 0) == Some(ServeFault::WorkerPanic)
                && p.serve_fault_for("serve-worker", 0, 1).is_none()
                && (1..6).all(|ix| p.serve_fault_for("serve-worker", ix, 0).is_none())
        };
        let found = (0..200_000).find(|&s| fits(s)).expect("some seed fits");
        assert_eq!(
            found, CI_SMOKE_SEED,
            "scripts/ci.sh serve-smoke pins SYNTHLC_FAULT_SEED={CI_SMOKE_SEED}; \
             the fault schedule drifted — repin both to {found}"
        );
    }
}
