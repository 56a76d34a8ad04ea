//! Canonical cone extraction and fingerprinting.
//!
//! A property's backward slice (its *cone of influence*) determines the
//! verdict of every Boolean-outcome query rooted at it. To key verdict
//! caches at cone granularity we need a *canonical form* of the cone:
//! one that is invariant under wire renaming, declaration reordering,
//! and any edit outside the cone, yet distinguishes every edit inside
//! it.
//!
//! The canonicalization is a deterministic pre-order depth-first
//! traversal from the property roots, in caller order. Each node is
//! assigned a canonical number at first visit; children are visited in
//! the node's own structural order (combinational fan-in order, then
//! the register-next edge). Names never participate. Two cones that
//! differ only in node names or in where their nodes sit in the parent
//! netlist's declaration order therefore canonicalize identically —
//! the fingerprint of the canonical form is the cache key.
//!
//! See `DESIGN.md` §14 for how the fingerprint keys the verdict caches.

use crate::ir::{BinOp, Netlist, Node, Op, SignalId, UnOp};

/// Canonical-id marker for "no signal" (an unwired register next).
const NONE_ID: u64 = u64::MAX;

/// Incremental FNV-1a-64, the workspace's one content hash: cone and
/// design fingerprints, journal checksums and key digests, and the fault
/// streams all go through it. Not collision-resistant; keys built on it
/// are cache keys, not security boundaries.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// The byte step, once per byte of `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.word(b as u64);
        }
        self
    }

    /// `v` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The whole-word step: XOR all 64 bits of `w` in, then multiply once.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable operation tag bytes for the fingerprint encoding. Explicit
/// (rather than `as u8` on the enum) so a declaration reorder in `ir.rs`
/// cannot silently change every golden fingerprint.
fn op_tag(op: &Op) -> (u8, u8) {
    match op {
        Op::Input => (0, 0),
        Op::Const(_) => (1, 0),
        Op::Unary(u, _) => (
            2,
            match u {
                UnOp::Not => 0,
                UnOp::Neg => 1,
                UnOp::RedOr => 2,
                UnOp::RedAnd => 3,
                UnOp::RedXor => 4,
            },
        ),
        Op::Binary(b, _, _) => (
            3,
            match b {
                BinOp::And => 0,
                BinOp::Or => 1,
                BinOp::Xor => 2,
                BinOp::Add => 3,
                BinOp::Sub => 4,
                BinOp::Mul => 5,
                BinOp::Eq => 6,
                BinOp::Ne => 7,
                BinOp::Ult => 8,
                BinOp::Ule => 9,
                BinOp::Shl => 10,
                BinOp::Shr => 11,
            },
        ),
        Op::Mux { .. } => (4, 0),
        Op::Slice { .. } => (5, 0),
        Op::Concat { .. } => (6, 0),
        Op::Reg { .. } => (7, 0),
    }
}

/// The canonical numbering of the cone rooted at `targets`: a pre-order
/// DFS from the targets in caller order, children in structural order
/// (combinational fan-in, then the register-next edge). Returns
/// `(canon, order)` where `canon[original.index()]` is the node's
/// canonical id (`None` outside the cone) and `order[c]` is the original
/// id of canonical node `c`.
pub fn canonical_order(nl: &Netlist, targets: &[SignalId]) -> (Vec<Option<u32>>, Vec<SignalId>) {
    let mut canon: Vec<Option<u32>> = vec![None; nl.len()];
    let mut order: Vec<SignalId> = Vec::new();
    let mut stack: Vec<SignalId> = Vec::new();
    // Seed the stack so targets pop in caller order.
    for &t in targets.iter().rev() {
        stack.push(t);
    }
    while let Some(s) = stack.pop() {
        if canon[s.index()].is_some() {
            continue;
        }
        canon[s.index()] = Some(order.len() as u32);
        order.push(s);
        // Children in structural order: push reversed so the first
        // fan-in is visited (and numbered) first.
        let node = nl.node(s);
        let mut children = node.op.comb_fanin();
        if let Op::Reg { next: Some(nx), .. } = node.op {
            children.push(nx);
        }
        for &c in children.iter().rev() {
            if canon[c.index()].is_none() {
                stack.push(c);
            }
        }
    }
    (canon, order)
}

/// The canonical cone fingerprint: FNV-1a over the canonical form of the
/// cone rooted at `targets`, extended with the canonical ids of the
/// in-cone `frees` (registers treated as symbolically initialized —
/// their init values are excluded from the hash, since a free register's
/// reset constant does not constrain the query).
///
/// Invariants (pinned by the unit tests below and the golden suite in
/// `tests/cone_cache.rs`):
/// * renaming wires never changes the fingerprint;
/// * reordering declarations never changes the fingerprint;
/// * editing logic outside the cone never changes the fingerprint;
/// * editing any operation, width, constant, or edge inside the cone,
///   or the target list, or the free set, changes it.
pub fn fingerprint(nl: &Netlist, targets: &[SignalId], frees: &[SignalId]) -> u64 {
    let (canon, order) = canonical_order(nl, targets);
    let cid = |s: SignalId| canon[s.index()].expect("operand in cone") as u64;
    let mut h = Fnv::new();
    h.u64(order.len() as u64);
    for &s in &order {
        let node = nl.node(s);
        let (tag, sub) = op_tag(&node.op);
        h.bytes(&[tag, sub, node.width]);
        match &node.op {
            Op::Input => {}
            Op::Const(v) => {
                h.u64(*v);
            }
            Op::Unary(_, a) => {
                h.u64(cid(*a));
            }
            Op::Binary(_, a, b) => {
                h.u64(cid(*a));
                h.u64(cid(*b));
            }
            Op::Mux { sel, a, b } => {
                h.u64(cid(*sel));
                h.u64(cid(*a));
                h.u64(cid(*b));
            }
            Op::Slice { src, hi, lo } => {
                h.u64(cid(*src));
                h.bytes(&[*hi, *lo]);
            }
            Op::Concat { hi, lo } => {
                h.u64(cid(*hi));
                h.u64(cid(*lo));
            }
            Op::Reg { next, init } => {
                h.u64(next.map_or(NONE_ID, cid));
                // A free register's init is symbolic: hashing it would
                // split cache keys on a constant the query ignores.
                if frees.contains(&s) {
                    h.u64(NONE_ID);
                } else {
                    h.u64(*init);
                }
            }
        }
    }
    // The target list, in caller order (it is part of the query).
    h.u64(targets.len() as u64);
    for &t in targets {
        h.u64(cid(t));
    }
    // In-cone frees, as a sorted canonical-id set: which registers are
    // symbolically initialized changes verdicts, their order does not.
    let mut free_ids: Vec<u64> = frees
        .iter()
        .filter_map(|&f| canon.get(f.index()).copied().flatten().map(|c| c as u64))
        .collect();
    free_ids.sort_unstable();
    free_ids.dedup();
    h.u64(free_ids.len() as u64);
    for f in free_ids {
        h.u64(f);
    }
    h.finish()
}

/// A cone extracted into its own canonically renumbered netlist.
#[derive(Debug)]
pub struct ExtractedCone {
    /// The cone as a standalone netlist, nodes in canonical order,
    /// names stripped.
    pub netlist: Netlist,
    /// Original id → canonical id (`None` outside the cone).
    pub map: Vec<Option<SignalId>>,
    /// The targets, renumbered into the extracted netlist.
    pub targets: Vec<SignalId>,
}

/// Extracts the cone rooted at `targets` into a standalone canonical
/// netlist. `fingerprint` of the extraction (over its own canonical
/// targets, with mapped frees) equals `fingerprint` of the original —
/// the extraction *is* the canonical form.
pub fn extract(nl: &Netlist, targets: &[SignalId]) -> ExtractedCone {
    let (canon, order) = canonical_order(nl, targets);
    let cid = |s: SignalId| SignalId(canon[s.index()].expect("operand in cone"));
    let mut out = Netlist::new();
    for &s in &order {
        let node = nl.node(s);
        let op = match &node.op {
            Op::Input => Op::Input,
            Op::Const(v) => Op::Const(*v),
            Op::Unary(u, a) => Op::Unary(*u, cid(*a)),
            Op::Binary(b, x, y) => Op::Binary(*b, cid(*x), cid(*y)),
            Op::Mux { sel, a, b } => Op::Mux {
                sel: cid(*sel),
                a: cid(*a),
                b: cid(*b),
            },
            Op::Slice { src, hi, lo } => Op::Slice {
                src: cid(*src),
                hi: *hi,
                lo: *lo,
            },
            Op::Concat { hi, lo } => Op::Concat {
                hi: cid(*hi),
                lo: cid(*lo),
            },
            Op::Reg { next, init } => Op::Reg {
                next: next.map(cid),
                init: *init,
            },
        };
        out.push(Node {
            name: None,
            width: node.width,
            op,
        })
        .expect("canonical cone node is well-formed");
    }
    ExtractedCone {
        netlist: out,
        map: canon.iter().map(|c| c.map(SignalId)).collect(),
        targets: targets.iter().map(|&t| cid(t)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    /// A small two-cone design: `out_a` depends on `a`/`x`, `out_b` on
    /// `b`/`y`; the cones share nothing.
    fn two_cones(names: [&str; 4], swap_decls: bool) -> (Netlist, SignalId, SignalId) {
        let mut b = Builder::new();
        let (a, x, bb, y);
        if swap_decls {
            bb = b.input(names[2], 4);
            y = b.input(names[3], 4);
            a = b.input(names[0], 4);
            x = b.input(names[1], 4);
        } else {
            a = b.input(names[0], 4);
            x = b.input(names[1], 4);
            bb = b.input(names[2], 4);
            y = b.input(names[3], 4);
        }
        let out_a = b.add(a, x);
        let out_b = b.xor(bb, y);
        let nl = b.finish().expect("valid");
        (nl, out_a.id, out_b.id)
    }

    #[test]
    fn fnv_matches_the_published_fnv1a_64_vectors() {
        let hash = |s: &str| Fnv::new().bytes(s.as_bytes()).finish();
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
        // The u64 step is the byte step over little-endian bytes, and the
        // word step on a byte value is the byte step.
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(
            Fnv::new().u64(v).finish(),
            Fnv::new().bytes(&v.to_le_bytes()).finish()
        );
        assert_eq!(Fnv::new().word(0x61).finish(), hash("a"));
    }

    #[test]
    fn fingerprint_invariant_under_renaming_and_reordering() {
        let (nl1, oa1, _) = two_cones(["a", "x", "b", "y"], false);
        let (nl2, oa2, _) = two_cones(["p", "q", "r", "s"], false);
        let (nl3, oa3, _) = two_cones(["a", "x", "b", "y"], true);
        let f1 = fingerprint(&nl1, &[oa1], &[]);
        assert_eq!(f1, fingerprint(&nl2, &[oa2], &[]), "renaming changed fp");
        assert_eq!(f1, fingerprint(&nl3, &[oa3], &[]), "reordering changed fp");
    }

    #[test]
    fn fingerprint_ignores_edits_outside_the_cone() {
        let (nl1, oa1, ob1) = two_cones(["a", "x", "b", "y"], false);
        // Same shape but the *other* cone uses a different operation.
        let mut b = Builder::new();
        let a = b.input("a", 4);
        let x = b.input("x", 4);
        let bb = b.input("b", 4);
        let y = b.input("y", 4);
        let oa2 = b.add(a, x);
        let ob2 = b.and(bb, y); // was xor
        let nl2 = b.finish().expect("valid");
        assert_eq!(
            fingerprint(&nl1, &[oa1], &[]),
            fingerprint(&nl2, &[oa2.id], &[]),
            "edit outside the cone changed its fingerprint"
        );
        assert_ne!(
            fingerprint(&nl1, &[ob1], &[]),
            fingerprint(&nl2, &[ob2.id], &[]),
            "edit inside the cone left its fingerprint unchanged"
        );
    }

    #[test]
    fn fingerprint_depends_on_targets_and_frees() {
        let mut b = Builder::new();
        let inp = b.input("in", 4);
        let r = b.reg("r", 4, 0);
        let sum = b.add(r, inp);
        b.set_next(r, sum).unwrap();
        let nl = b.finish().expect("valid");
        let (rid, sid) = (r.id, sum.id);
        let base = fingerprint(&nl, &[sid], &[]);
        assert_ne!(base, fingerprint(&nl, &[rid], &[]), "target list ignored");
        assert_ne!(base, fingerprint(&nl, &[sid], &[rid]), "free set ignored");
        assert_ne!(
            base,
            fingerprint(&nl, &[sid, sid], &[]),
            "target multiplicity ignored"
        );
        // Out-of-cone frees are ignored (they do not constrain the query),
        // and a free register's init value is excluded from the hash.
        let mut b2 = Builder::new();
        let i2 = b2.input("in", 4);
        let r2 = b2.reg("r", 4, 9); // different init from `r`
        let s2 = b2.add(r2, i2);
        b2.set_next(r2, s2).unwrap();
        let other = b2.reg("other", 2, 1);
        b2.set_next(other, other).unwrap();
        let nl2 = b2.finish().expect("valid");
        assert_ne!(base, fingerprint(&nl2, &[s2.id], &[]), "init ignored");
        assert_eq!(
            fingerprint(&nl2, &[s2.id], &[r2.id, other.id]),
            fingerprint(&nl2, &[s2.id], &[r2.id]),
            "out-of-cone free changed the fingerprint"
        );
        assert_eq!(
            fingerprint(&nl, &[sid], &[rid]),
            fingerprint(&nl2, &[s2.id], &[r2.id]),
            "free register's init leaked into the hash"
        );
    }

    #[test]
    fn extraction_is_the_canonical_form() {
        let (nl, oa, ob) = two_cones(["a", "x", "b", "y"], false);
        for t in [oa, ob] {
            let ex = extract(&nl, &[t]);
            ex.netlist.validate().expect("extracted cone validates");
            assert_eq!(
                fingerprint(&nl, &[t], &[]),
                fingerprint(&ex.netlist, &ex.targets, &[]),
                "extraction changed the fingerprint"
            );
            assert_eq!(ex.map[t.index()], Some(ex.targets[0]));
        }
        // A register cone (reg-next back edge) also survives extraction.
        let mut b = Builder::new();
        let inp = b.input("in", 3);
        let r = b.reg("r", 3, 5);
        let nx = b.add(r, inp);
        b.set_next(r, nx).unwrap();
        let nl = b.finish().expect("valid");
        let ex = extract(&nl, &[r.id]);
        ex.netlist.validate().expect("register cone validates");
        assert_eq!(
            fingerprint(&nl, &[r.id], &[]),
            fingerprint(&ex.netlist, &ex.targets, &[])
        );
        assert_eq!(ex.netlist.len(), 3);
    }
}
