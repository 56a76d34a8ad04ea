//! A thread-shared conflict/propagation budget pool.
//!
//! Parallel property-evaluation workers each own a private [`Solver`], but a
//! whole synthesis run often wants one *global* resource account: "spend at
//! most N conflicts across every property, then report the rest as
//! undetermined" — the paper's per-property budgets (§V-B), lifted to the
//! job-pool level. Workers charge their per-query solver-statistics deltas
//! into the pool with relaxed atomics; the engine consults
//! [`BudgetPool::exhausted`] before starting each new query.
//!
//! With `cap = None` (the default) the pool is pure accounting and has no
//! effect on results, so deterministic parallel runs stay deterministic.
//! With a cap set, *which* queries get cut off depends on worker scheduling;
//! callers that need bit-identical reruns must not set a cap (see
//! `DESIGN.md` §6).
//!
//! [`Solver`]: crate::Solver

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared conflict/propagation accounting with an optional global cap on
/// conflicts. Cheap to share behind an `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct BudgetPool {
    conflicts: AtomicU64,
    propagations: AtomicU64,
    cap: Option<u64>,
}

impl BudgetPool {
    /// A pool with an optional global conflict cap. `None` never exhausts.
    pub fn new(cap: Option<u64>) -> Self {
        Self {
            conflicts: AtomicU64::new(0),
            propagations: AtomicU64::new(0),
            cap,
        }
    }

    /// The configured global conflict cap.
    pub fn cap(&self) -> Option<u64> {
        self.cap
    }

    /// Adds one query's conflict/propagation deltas to the account.
    pub fn charge(&self, conflicts: u64, propagations: u64) {
        self.conflicts.fetch_add(conflicts, Ordering::Relaxed);
        self.propagations.fetch_add(propagations, Ordering::Relaxed);
    }

    /// Total conflicts charged so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Total propagations charged so far.
    pub fn propagations(&self) -> u64 {
        self.propagations.load(Ordering::Relaxed)
    }

    /// Whether the global conflict cap has been reached.
    pub fn exhausted(&self) -> bool {
        self.would_exhaust(0)
    }

    /// Whether charging `pending` additional conflicts would reach the
    /// cap. The solve loop polls this with its own un-charged delta so an
    /// in-flight query stops within one check interval of the cap instead
    /// of running its full per-query budget past it.
    pub fn would_exhaust(&self, pending: u64) -> bool {
        match self.cap {
            Some(cap) => self.conflicts().saturating_add(pending) >= cap,
            None => false,
        }
    }
}

/// Per-client budget accounting for a long-lived verification service:
/// one [`BudgetPool`] per client name, created on first use with a shared
/// per-client conflict cap. A client that exhausts its own cap degrades
/// only its own queries; other clients' pools are untouched. All methods
/// take `&self` and are safe to call from concurrent workers.
///
/// Client names arrive verbatim from an untrusted wire field, so the
/// ledger is bounded: at most [`ClientBudgets::MAX_CLIENTS`] named
/// accounts are ever created, and every name past the cap is folded into
/// the shared [`ClientBudgets::OVERFLOW_CLIENT`] account — a stream of
/// unique names cannot grow the map (or a `stats` payload built from it)
/// without bound.
#[derive(Debug, Default)]
pub struct ClientBudgets {
    cap: Option<u64>,
    pools: std::sync::Mutex<std::collections::BTreeMap<String, std::sync::Arc<BudgetPool>>>,
}

impl ClientBudgets {
    /// Distinct named ledgers before new names fold into
    /// [`Self::OVERFLOW_CLIENT`] (which gets its own slot on top).
    pub const MAX_CLIENTS: usize = 64;

    /// The shared account absorbing clients past [`Self::MAX_CLIENTS`].
    /// A client literally named this shares the overflow pool.
    pub const OVERFLOW_CLIENT: &'static str = "other";

    /// A ledger whose per-client pools each carry `cap` (`None` =
    /// accounting only, never exhausts).
    pub fn new(cap: Option<u64>) -> Self {
        Self {
            cap,
            pools: std::sync::Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// The named client's pool, created on first use; once
    /// [`Self::MAX_CLIENTS`] named accounts exist, unseen names share the
    /// [`Self::OVERFLOW_CLIENT`] pool (so latecomers also share its cap).
    pub fn pool_for(&self, client: &str) -> std::sync::Arc<BudgetPool> {
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        let name = if pools.contains_key(client) || pools.len() < Self::MAX_CLIENTS {
            client
        } else {
            Self::OVERFLOW_CLIENT
        };
        std::sync::Arc::clone(
            pools
                .entry(name.to_owned())
                .or_insert_with(|| std::sync::Arc::new(BudgetPool::new(self.cap))),
        )
    }

    /// Every client's `(name, conflicts, propagations)` tallies, sorted by
    /// name — the observability face of the ledger.
    pub fn totals(&self) -> Vec<(String, u64, u64)> {
        let pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        pools
            .iter()
            .map(|(name, p)| (name.clone(), p.conflicts(), p.propagations()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_pool_only_accounts() {
        let p = BudgetPool::new(None);
        p.charge(10, 100);
        p.charge(5, 50);
        assert_eq!(p.conflicts(), 15);
        assert_eq!(p.propagations(), 150);
        assert!(!p.exhausted());
    }

    #[test]
    fn capped_pool_exhausts() {
        let p = BudgetPool::new(Some(20));
        p.charge(15, 0);
        assert!(!p.exhausted());
        p.charge(5, 0);
        assert!(p.exhausted());
    }

    #[test]
    fn client_ledger_isolates_accounts() {
        let ledger = ClientBudgets::new(Some(10));
        let alice = ledger.pool_for("alice");
        let bob = ledger.pool_for("bob");
        alice.charge(10, 100);
        assert!(alice.exhausted(), "alice hit her own cap");
        assert!(!bob.exhausted(), "bob's account is independent");
        assert!(
            std::sync::Arc::ptr_eq(&alice, &ledger.pool_for("alice")),
            "repeat lookups must return the same pool"
        );
        assert_eq!(
            ledger.totals(),
            vec![("alice".into(), 10, 100), ("bob".into(), 0, 0)]
        );
    }

    #[test]
    fn ledger_folds_unbounded_client_names_into_overflow_pool() {
        let ledger = ClientBudgets::new(None);
        for i in 0..ClientBudgets::MAX_CLIENTS {
            ledger.pool_for(&format!("client-{i}"));
        }
        let spill_a = ledger.pool_for("fresh-name-a");
        let spill_b = ledger.pool_for("fresh-name-b");
        assert!(
            std::sync::Arc::ptr_eq(&spill_a, &spill_b),
            "names past the cap share the overflow pool"
        );
        assert!(
            std::sync::Arc::ptr_eq(&spill_a, &ledger.pool_for(ClientBudgets::OVERFLOW_CLIENT)),
            "the overflow pool is the `other` account"
        );
        assert!(
            std::sync::Arc::ptr_eq(&ledger.pool_for("client-0"), &ledger.pool_for("client-0")),
            "accounts created before the cap keep their own pool"
        );
        assert_eq!(
            ledger.totals().len(),
            ClientBudgets::MAX_CLIENTS + 1,
            "the map is bounded: named accounts plus one overflow slot"
        );
    }

    #[test]
    fn charging_is_thread_safe() {
        let p = std::sync::Arc::new(BudgetPool::new(Some(1000)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..100 {
                        p.charge(1, 2);
                    }
                });
            }
        });
        assert_eq!(p.conflicts(), 400);
        assert_eq!(p.propagations(), 800);
        assert!(!p.exhausted());
    }
}
