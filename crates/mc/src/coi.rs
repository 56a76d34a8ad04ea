//! Cone-of-influence reduction: slice a netlist to the transitive fan-in of
//! a property's referenced signals before bit-blasting.
//!
//! The slice walks *backwards* from the target signals over combinational
//! fan-in edges and register `next` edges — i.e. through registers, across
//! cycles — so a kept node's value at any frame depends only on kept nodes.
//! The unrolling then simply skips the out-of-cone nodes: no literals, no
//! clauses. Soundness: a cover/assume query only ever reads literals of its
//! target signals, whose defining cones are fully present, so the projection
//! of the sliced transition system onto the kept signals is *identical* to
//! the unsliced one and every verdict (SAT/UNSAT, and k-induction's
//! base/step) is preserved. Witness *traces* may differ in the unconstrained
//! out-of-cone signals, which is why the synthesis pipeline applies COI only
//! to Boolean-outcome queries (reachability/tagging), never to the
//! trace-enumerating µPATH shape loop. See `DESIGN.md` §7.

use netlist::{Netlist, SignalId};

/// The canonical fingerprint of a property's sliced cone: an FNV-1a hash
/// of the cone's canonical form (deterministic topological renumbering
/// from the property roots — see [`netlist::cone`]), so it is invariant
/// under wire renaming, declaration reordering, and edits outside the
/// cone, and changes under any edit inside it. Verdict caches key on it
/// so a local design edit only invalidates the cones it touches
/// (`DESIGN.md` §14).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConeFingerprint(pub u64);

impl ConeFingerprint {
    /// Computes the fingerprint of the cone rooted at `targets`, with
    /// `frees` treated as symbolically initialized registers (their
    /// membership — not their reset constants — is part of the key).
    pub fn compute(nl: &Netlist, targets: &[SignalId], frees: &[SignalId]) -> Self {
        ConeFingerprint(netlist::cone::fingerprint(nl, targets, frees))
    }
}

impl std::fmt::Display for ConeFingerprint {
    /// Renders as the fixed-width hex used in cache keys.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A cone-of-influence slice: which nodes to keep, plus size accounting.
#[derive(Clone, Debug)]
pub struct CoiSlice {
    /// Each node's canonical id in the cone, `None` outside it.
    keep: Vec<Option<u32>>,
    /// Nodes kept by the slice.
    pub kept_nodes: usize,
    /// Total nodes in the netlist.
    pub total_nodes: usize,
    /// Signal bits kept (the per-frame literal count upper bound).
    pub kept_bits: u64,
    /// Total signal bits in the netlist.
    pub total_bits: u64,
}

impl CoiSlice {
    /// Computes the transitive fan-in slice of `targets`.
    ///
    /// Every signal a cover or assume of a query references must be listed
    /// in `targets`: a sliced unrolling holds no literals for a signal
    /// outside the cone, so `Unrolling::lits` returns an empty slice for it
    /// and `Unrolling::lit` panics naming it.
    pub fn compute(nl: &Netlist, targets: &[SignalId]) -> Self {
        let (keep, order) = netlist::cone::canonical_order(nl, targets);
        let width = |&s: &SignalId| nl.width(s) as u64;
        Self {
            keep,
            kept_nodes: order.len(),
            total_nodes: nl.len(),
            kept_bits: order.iter().map(width).sum(),
            total_bits: nl.iter().map(|(_, n)| n.width as u64).sum(),
        }
    }

    /// Whether the slice keeps `id`.
    #[inline]
    pub fn keeps(&self, id: SignalId) -> bool {
        self.keep[id.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Checker, McConfig};
    use netlist::Builder;

    /// Two independent input-gated counters; a property over one should
    /// slice away the other entirely. The enable inputs keep the logic
    /// symbolic so the CNF sizes are meaningful.
    fn two_counters() -> Netlist {
        let mut b = Builder::new();
        for name in ["a", "b"] {
            let en = b.input(&format!("{name}_en"), 1);
            let c = b.reg(name, 8, 0);
            let one = b.constant(1, 8);
            let n = b.add(c, one);
            let gated = b.mux(en, n, c);
            b.set_next(c, gated).unwrap();
            let at5 = b.eq_const(c, 5);
            b.name(at5, &format!("{name}_at5"));
        }
        b.finish().unwrap()
    }

    #[test]
    fn slice_drops_independent_logic() {
        let nl = two_counters();
        let t = nl.find("a_at5").unwrap();
        let coi = CoiSlice::compute(&nl, &[t]);
        assert!(coi.keeps(nl.find("a").unwrap()));
        assert!(!coi.keeps(nl.find("b").unwrap()));
        assert!(!coi.keeps(nl.find("b_at5").unwrap()));
        assert!(coi.kept_bits < coi.total_bits);
    }

    #[test]
    fn slice_follows_register_next_edges() {
        // r2's cone must pull in r1 through the sequential edge.
        let mut b = Builder::new();
        let x = b.input("x", 4);
        let r1 = b.reg("r1", 4, 0);
        b.set_next(r1, x).unwrap();
        let r2 = b.reg("r2", 4, 0);
        b.set_next(r2, r1).unwrap();
        let flag = b.eq_const(r2, 3);
        b.name(flag, "flag");
        let nl = b.finish().unwrap();
        let coi = CoiSlice::compute(&nl, &[nl.find("flag").unwrap()]);
        for name in ["x", "r1", "r2", "flag"] {
            assert!(coi.keeps(nl.find(name).unwrap()), "{name} kept");
        }
        assert_eq!(
            coi.kept_nodes, coi.total_nodes,
            "every node is in this cone"
        );
    }

    #[test]
    fn cone_fingerprint_is_canonical_and_keys_on_frees() {
        let nl = two_counters();
        let a5 = nl.find("a_at5").unwrap();
        let b5 = nl.find("b_at5").unwrap();
        let fa = ConeFingerprint::compute(&nl, &[a5], &[]);
        // The two counters are structurally identical modulo names, so
        // their cones canonicalize to the same fingerprint.
        assert_eq!(fa, ConeFingerprint::compute(&nl, &[b5], &[]));
        assert_eq!(fa.0, netlist::cone::fingerprint(&nl, &[a5], &[]));
        // Free registers are part of the key.
        let a = nl.find("a").unwrap();
        assert_ne!(fa, ConeFingerprint::compute(&nl, &[a5], &[a]));
        // Display is the fixed-width hex used in cache keys.
        assert_eq!(fa.to_string().len(), 16);
    }

    #[test]
    fn sliced_and_unsliced_verdicts_match() {
        let nl = two_counters();
        let a5 = nl.find("a_at5").unwrap();
        let cfg = McConfig {
            bound: 8,
            ..Default::default()
        };
        let mut plain = Checker::new(&nl, cfg);
        let elab = std::sync::Arc::new(crate::Elab::new(&nl));
        let coi = std::sync::Arc::new(CoiSlice::compute(&nl, &[a5]));
        let mut sliced = Checker::with_coi(&nl, cfg, &[], elab, Some(coi));
        assert!(plain.check_cover(a5, &[]).is_reachable());
        assert!(sliced.check_cover(a5, &[]).is_reachable());
        let (plain_vars, _) = plain.solver_stats();
        let (sliced_vars, _) = sliced.solver_stats();
        assert!(
            sliced_vars < plain_vars,
            "slice shrinks the CNF: {sliced_vars} < {plain_vars}"
        );
        let st = sliced.stats();
        assert!(st.coi_bits_after < st.coi_bits_before);
    }
}
