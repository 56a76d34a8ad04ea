//! Static netlist analyses used by RTL2MµPATH.
//!
//! The key consumer is happens-before candidate-edge generation (§V-B5 of
//! the paper): two performing locations are candidate HB-related when the
//! state variables of one µFSM lie in the *combinational fan-in cone* of the
//! other's next-state logic. The lint layer (`crate::lint`) and the model
//! checker's cone-of-influence reduction (`mc::coi`) build on the same
//! primitives, so cycle detection here reports a *typed* error carrying the
//! offending path instead of panicking.

use crate::ir::{BinOp, Netlist, Op, SignalId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A combinational cycle, reported as the closed path of signals involved.
///
/// `path` lists the signals on the cycle in fan-in order; the last element
/// feeds the first. Render against the netlist for human-readable names.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleError {
    /// The signals on the cycle, in order (no repetition of the start).
    pub path: Vec<SignalId>,
}

impl CycleError {
    /// Renders the cycle with signal names, e.g. `a -> b -> a`.
    pub fn render(&self, nl: &Netlist) -> String {
        let mut names: Vec<String> = self.path.iter().map(|&s| nl.display_name(s)).collect();
        if let Some(first) = names.first().cloned() {
            names.push(first);
        }
        names.join(" -> ")
    }
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<String> = self.path.iter().map(|s| s.to_string()).collect();
        write!(f, "combinational cycle: {}", ids.join(" -> "))
    }
}

impl std::error::Error for CycleError {}

/// Searches the whole netlist for a combinational cycle.
///
/// Returns the first cycle found (in a deterministic node-id order) or
/// `None` when the combinational logic is acyclic. This is the engine behind
/// [`topo_order`]'s error path and the `comb-loop` lint pass. An operand
/// that names no node closes no cycle and is skipped; the width rule
/// reports it.
pub fn find_comb_cycle(nl: &Netlist) -> Option<CycleError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = nl.len();
    let mut marks = vec![Mark::White; n];
    // Iterative DFS keeping the grey path on the explicit stack so a back
    // edge yields the full cycle, not just one member.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if marks[start] != Mark::White {
            continue;
        }
        stack.push((start, 0));
        marks[start] = Mark::Grey;
        while let Some(&mut (node_ix, ref mut child_ix)) = stack.last_mut() {
            let fanin = nl.node(SignalId(node_ix as u32)).op.comb_fanin();
            if *child_ix < fanin.len() {
                let child = fanin[*child_ix].index();
                *child_ix += 1;
                match marks.get(child) {
                    Some(Mark::White) => {
                        marks[child] = Mark::Grey;
                        stack.push((child, 0));
                    }
                    Some(Mark::Grey) => {
                        // The cycle is the stack suffix from `child` on.
                        let from = stack
                            .iter()
                            .position(|&(ix, _)| ix == child)
                            .expect("grey node is on the DFS stack");
                        let path = stack[from..]
                            .iter()
                            .map(|&(ix, _)| SignalId(ix as u32))
                            .collect();
                        return Some(CycleError { path });
                    }
                    _ => {}
                }
            } else {
                marks[node_ix] = Mark::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Computes a topological evaluation order of the combinational logic.
///
/// Registers, constants and inputs appear first (they are sources); every
/// other node appears after all of its combinational fan-in.
///
/// # Errors
/// Returns the combinational cycle when one exists (previously this
/// panicked, which turned a design bug into an opaque crash deep inside the
/// model checker).
pub fn topo_order(nl: &Netlist) -> Result<Vec<SignalId>, CycleError> {
    // Kahn's algorithm over CSR fan-out arrays: `fanout[start[s]..start[s + 1]]`
    // lists the consumers of `s` in node-id order (once per operand use),
    // so the order — and with it every unrolling's variable numbering — is
    // a pure function of the node table.
    let n = nl.len();
    let mut indeg = vec![0u32; n];
    let mut start = vec![0u32; n + 1];
    for (id, node) in nl.iter() {
        for src in node.op.comb_fanin() {
            indeg[id.index()] += 1;
            start[src.index() + 1] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut fanout = vec![SignalId(0); start[n] as usize];
    for (id, node) in nl.iter() {
        for src in node.op.comb_fanin() {
            fanout[fill[src.index()] as usize] = id;
            fill[src.index()] += 1;
        }
    }
    // `order` doubles as the FIFO: entries past `head` are still queued.
    let mut order: Vec<SignalId> = Vec::with_capacity(n);
    order.extend(
        nl.iter()
            .map(|(id, _)| id)
            .filter(|id| indeg[id.index()] == 0),
    );
    let mut head = 0;
    while head < order.len() {
        let i = order[head].index();
        head += 1;
        for &o in &fanout[start[i] as usize..start[i + 1] as usize] {
            indeg[o.index()] -= 1;
            if indeg[o.index()] == 0 {
                order.push(o);
            }
        }
    }
    if order.len() != n {
        return Err(find_comb_cycle(nl).expect("incomplete Kahn order implies a cycle"));
    }
    Ok(order)
}

/// The *sequential sources* (registers and primary inputs) feeding the
/// next-state logic of any register in `regs`: the registers and inputs
/// in the combinational fan-in cones of their `next` signals, found in one
/// walk with one visited set. The walk stops at registers and inputs,
/// which are the cones' frontier.
///
/// This is the paper's notion of "PLs connected via pure combinational
/// logic" lifted to register granularity: if any of µFSM *A*'s state
/// registers is a next-state source of µFSM *B*, then an instruction's
/// occupancy of *A* can causally influence its occupancy of *B* one cycle
/// later — making (A, B) a candidate HB edge.
///
/// # Panics
/// Panics if a listed signal is not a connected register. Callers hold
/// validated netlists, so the walk needs no cycle check.
pub fn next_state_sources(
    nl: &Netlist,
    regs: impl IntoIterator<Item = SignalId>,
) -> HashSet<SignalId> {
    let mut seen = vec![false; nl.len()];
    let mut sources = HashSet::new();
    let mut stack: Vec<SignalId> = regs.into_iter().map(|r| nl.reg_next(r)).collect();
    while let Some(s) = stack.pop() {
        if std::mem::replace(&mut seen[s.index()], true) {
            continue;
        }
        let op = &nl.node(s).op;
        if op.is_reg() || op.is_input() {
            sources.insert(s);
        }
        stack.extend(op.comb_fanin());
    }
    sources
}

/// Evaluates every signal that is a *pure combinational constant*: a cone
/// with no register or input in it. Registers, inputs, and anything fed by
/// them map to `None`.
///
/// Used by the µFSM-reachability lint pass to resolve constant leaves of
/// next-state mux trees (e.g. a state encoding built with `concat`).
///
/// # Errors
/// Returns the cycle when the combinational logic is cyclic.
pub fn comb_consts(nl: &Netlist) -> Result<Vec<Option<u64>>, CycleError> {
    let order = topo_order(nl)?;
    let mut vals: Vec<Option<u64>> = vec![None; nl.len()];
    for &id in &order {
        vals[id.index()] = eval_node(nl, id, &vals);
    }
    Ok(vals)
}

/// Structural *sequential* constant propagation: the greatest fixpoint in
/// which a register is constant iff its next-state cone evaluates to its
/// reset value under the current constant assumptions. Primary inputs are
/// never constant.
///
/// This is the engine behind the annotation-consistency lint pass: a
/// performing/fetch strobe that comes back `Some(0)` here is structurally
/// stuck at zero from reset, for every input sequence.
///
/// # Errors
/// Returns the cycle when the combinational logic is cyclic.
pub fn seq_consts(nl: &Netlist) -> Result<Vec<Option<u64>>, CycleError> {
    let order = topo_order(nl)?;
    // Optimistically assume every connected register holds its reset value
    // forever, then knock out registers whose next-state disagrees until the
    // fixpoint. Unconnected registers are left non-constant (the undriven
    // lint pass reports those separately).
    let mut reg_const: HashMap<SignalId, u64> = nl
        .regs()
        .into_iter()
        .filter(|&r| matches!(nl.node(r).op, Op::Reg { next: Some(_), .. }))
        .map(|r| (r, nl.reg_init(r)))
        .collect();
    loop {
        let mut vals: Vec<Option<u64>> = vec![None; nl.len()];
        for &id in &order {
            vals[id.index()] = match &nl.node(id).op {
                Op::Reg { .. } => reg_const.get(&id).copied(),
                _ => eval_node(nl, id, &vals),
            };
        }
        let demoted: Vec<SignalId> = reg_const
            .iter()
            .filter(|&(&r, &v)| vals[nl.reg_next(r).index()] != Some(v))
            .map(|(&r, _)| r)
            .collect();
        if demoted.is_empty() {
            return Ok(vals);
        }
        for r in demoted {
            reg_const.remove(&r);
        }
    }
}

/// Evaluates one non-register node given the constant assignments of its
/// fan-in (`None` = not constant). Inputs and registers return `None`.
fn eval_node(nl: &Netlist, id: SignalId, vals: &[Option<u64>]) -> Option<u64> {
    let node = nl.node(id);
    let v = |s: SignalId| vals[s.index()];
    match &node.op {
        Op::Input | Op::Reg { .. } => None,
        Op::Const(c) => Some(*c),
        Op::Unary(op, a) => Some(op.eval(v(*a)?, nl.width(*a))),
        Op::Binary(op, a, b) => {
            let (va, vb) = (v(*a), v(*b));
            // Absorbing elements make one constant operand enough — the
            // common "strobe gated by a stuck-at-zero register" shape.
            match (op, va, vb) {
                (BinOp::And | BinOp::Mul, Some(0), _) | (BinOp::And | BinOp::Mul, _, Some(0)) => {
                    Some(0)
                }
                (BinOp::Or, Some(x), _) | (BinOp::Or, _, Some(x))
                    if x == crate::ir::mask(node.width) =>
                {
                    Some(x)
                }
                _ => Some(op.eval(va?, vb?, node.width)),
            }
        }
        Op::Mux { sel, a, b } => match v(*sel) {
            Some(0) => v(*b),
            Some(_) => v(*a),
            // Unknown select but agreeing constant arms.
            None => match (v(*a), v(*b)) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            },
        },
        Op::Slice { src, hi, lo } => {
            let width = hi - lo + 1;
            Some((v(*src)? >> lo) & crate::ir::mask(width))
        }
        Op::Concat { hi, lo } => {
            let lw = nl.width(*lo);
            Some((v(*hi)? << lw) | v(*lo)?)
        }
    }
}

/// Summary statistics of a netlist, analogous to the elaboration statistics
/// the paper reports for CVA6 (§VI: wires, cells, registers, flip-flop bits).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NetlistStats {
    /// Total nodes (signals).
    pub nodes: usize,
    /// Combinational cells (everything except inputs, constants, registers).
    pub cells: usize,
    /// Register count.
    pub regs: usize,
    /// Total flip-flop bits.
    pub flop_bits: usize,
    /// Primary inputs.
    pub inputs: usize,
}

/// Computes [`NetlistStats`] for a netlist.
pub fn stats(nl: &Netlist) -> NetlistStats {
    let mut s = NetlistStats {
        nodes: nl.len(),
        ..Default::default()
    };
    for (_, node) in nl.iter() {
        match &node.op {
            Op::Input => s.inputs += 1,
            Op::Const(_) => {}
            Op::Reg { .. } => {
                s.regs += 1;
                s.flop_bits += node.width as usize;
            }
            _ => s.cells += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Builder;
    use crate::ir::{BinOp, Node, Op};

    /// r2's next depends on r1; r1's next depends only on itself.
    fn two_stage() -> (Netlist, SignalId, SignalId) {
        let mut b = Builder::new();
        let r1 = b.reg("r1", 4, 0);
        let r2 = b.reg("r2", 4, 0);
        let one = b.constant(1, 4);
        let n1 = b.add(r1, one);
        b.set_next(r1, n1).unwrap();
        let n2 = b.add(r1, r1);
        b.set_next(r2, n2).unwrap();
        let nl = b.finish().unwrap();
        let r1 = nl.find("r1").unwrap();
        let r2 = nl.find("r2").unwrap();
        (nl, r1, r2)
    }

    /// A deliberately cyclic netlist: `a = b & in`, `b = a | in` — the
    /// builder cannot express this (operands must already exist), so the
    /// nodes are pushed raw with forward references.
    fn cyclic() -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl
            .push(Node {
                name: Some("in".into()),
                width: 1,
                op: Op::Input,
            })
            .unwrap();
        // a = and(b, in) with b = SignalId(2) pushed next.
        let a = nl
            .push(Node {
                name: Some("a".into()),
                width: 1,
                op: Op::Binary(BinOp::And, SignalId(2), inp),
            })
            .unwrap();
        nl.push(Node {
            name: Some("b".into()),
            width: 1,
            op: Op::Binary(BinOp::Or, a, inp),
        })
        .unwrap();
        nl
    }

    #[test]
    fn topo_order_is_complete_and_ordered() {
        let (nl, _, _) = two_stage();
        let order = topo_order(&nl).unwrap();
        assert_eq!(order.len(), nl.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for (id, node) in nl.iter() {
            for src in node.op.comb_fanin() {
                assert!(pos[&src] < pos[&id], "fan-in after consumer");
            }
        }
    }

    #[test]
    fn cyclic_netlist_yields_typed_error() {
        let nl = cyclic();
        let err = topo_order(&nl).expect_err("cyclic netlist must not order");
        // The reported path is the two-node loop a <-> b (in either
        // rotation), never the acyclic input.
        let names: Vec<_> = err.path.iter().map(|&s| nl.display_name(s)).collect();
        assert_eq!(err.path.len(), 2, "cycle is a two-node loop: {names:?}");
        assert!(names.contains(&"a".to_owned()) && names.contains(&"b".to_owned()));
        let rendered = err.render(&nl);
        assert!(
            rendered == "a -> b -> a" || rendered == "b -> a -> b",
            "rendered cycle closes on itself: {rendered}"
        );
        assert!(find_comb_cycle(&nl).is_some());
    }

    #[test]
    fn acyclic_netlist_has_no_cycle() {
        let (nl, _, _) = two_stage();
        assert!(find_comb_cycle(&nl).is_none());
    }

    #[test]
    fn next_state_sources_stop_at_registers() {
        let (nl, r1, r2) = two_stage();
        // r2's next is r1 + r1: the walk stops at r1 and never reaches r2.
        assert_eq!(next_state_sources(&nl, [r2]), HashSet::from([r1]));
        // r1's next is r1 + 1: a source register is its own cone.
        assert_eq!(next_state_sources(&nl, [r1]), HashSet::from([r1]));
    }

    #[test]
    fn connectivity_is_directional() {
        let (nl, r1, r2) = two_stage();
        assert!(next_state_sources(&nl, [r2]).contains(&r1), "r1 feeds r2");
        assert!(
            !next_state_sources(&nl, [r1]).contains(&r2),
            "r2 does not feed r1"
        );
    }

    #[test]
    fn comb_consts_fold_pure_cones() {
        let mut b = Builder::new();
        let x = b.input("x", 4);
        let c3 = b.constant(3, 4);
        let c4 = b.constant(4, 4);
        let sum = b.add(c3, c4);
        b.name(sum, "sum");
        let mixed = b.add(x, c3);
        b.name(mixed, "mixed");
        let r = b.reg("r", 4, 0);
        b.set_next(r, mixed).unwrap();
        let nl = b.finish().unwrap();
        let vals = comb_consts(&nl).unwrap();
        assert_eq!(vals[nl.find("sum").unwrap().index()], Some(7));
        assert_eq!(vals[nl.find("mixed").unwrap().index()], None);
        assert_eq!(vals[nl.find("r").unwrap().index()], None);
    }

    #[test]
    fn seq_consts_find_stuck_registers() {
        let mut b = Builder::new();
        let x = b.input("x", 1);
        // `stuck` holds itself: constant 0 forever.
        let stuck = b.reg("stuck", 1, 0);
        b.set_next(stuck, stuck).unwrap();
        // `gated` can only change when `stuck` is 1 — never.
        let gated = b.reg("gated", 1, 0);
        let gnext = b.mux(stuck, x, gated);
        b.set_next(gated, gnext).unwrap();
        // `live` follows the input.
        let live = b.reg("live", 1, 0);
        b.set_next(live, x).unwrap();
        // A derived strobe off the stuck register.
        let strobe = b.and(stuck, x);
        b.name(strobe, "strobe");
        let nl = b.finish().unwrap();
        let vals = seq_consts(&nl).unwrap();
        assert_eq!(vals[nl.find("stuck").unwrap().index()], Some(0));
        assert_eq!(vals[nl.find("gated").unwrap().index()], Some(0));
        assert_eq!(vals[nl.find("live").unwrap().index()], None);
        assert_eq!(vals[nl.find("strobe").unwrap().index()], Some(0));
    }

    #[test]
    fn stats_counts() {
        let (nl, _, _) = two_stage();
        let s = stats(&nl);
        assert_eq!(s.regs, 2);
        assert_eq!(s.flop_bits, 8);
        assert!(s.cells >= 2);
    }
}
