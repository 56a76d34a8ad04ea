//! Design metadata (user annotations) required by RTL2MµPATH and SynthLC.
//!
//! Mirrors §V-A of the paper and Table II: the designer identifies the
//! instruction fetch register (IFR), the µFSMs (each a ⟨PCR, state-vars⟩
//! tuple plus its idle states), the commit signal, the operand registers, and
//! the architectural register file / main memory arrays.

use crate::ir::{Netlist, SignalId};
use std::fmt;

/// A concrete valuation of a µFSM's state variables (one `u64` per var, in
/// the same order as [`UFsm::vars`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FsmState(pub Vec<u64>);

impl fmt::Display for FsmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A named µFSM state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NamedState {
    /// Human-readable label used as a µHB row label (e.g. `mulU`, `ldStall`).
    pub name: String,
    /// The state-variable valuation.
    pub state: FsmState,
}

/// A micro-op FSM: the ⟨iir, vars⟩ tuple of §III-C, with the IIR constrained
/// to be a program-counter register (PCR) as §V-A requires.
#[derive(Clone, Debug)]
pub struct UFsm {
    /// Name of the µFSM (e.g. `mul_unit`).
    pub name: String,
    /// The PCR: holds the PC of the in-flight instruction occupying this
    /// µFSM.
    pub pcr: SignalId,
    /// State-variable registers.
    pub vars: Vec<SignalId>,
    /// Idle states: valuations in which no instruction occupies the µFSM.
    pub idle: Vec<FsmState>,
    /// Declared (named) non-idle states. When `None`, feasible states are
    /// enumerated as the cartesian product of the vars' value ranges
    /// (§V-B1), minus idle states, with synthesized names.
    pub states: Option<Vec<NamedState>>,
    /// Whether the PCR was *added* for verification (Table II distinguishes
    /// identified vs added PCRs; added ones exist only in the verification
    /// environment).
    pub pcr_added: bool,
}

impl UFsm {
    /// Enumerates all candidate non-idle states: declared states when
    /// provided, otherwise the full cartesian product of the state vars'
    /// ranges minus the idle states.
    ///
    /// # Panics
    /// Panics if the product enumeration would exceed 4096 states; designs
    /// with large counters must declare their states explicitly.
    pub fn candidate_states(&self, nl: &Netlist) -> Vec<NamedState> {
        if let Some(states) = &self.states {
            return states.clone();
        }
        let widths: Vec<u8> = self.vars.iter().map(|&v| nl.width(v)).collect();
        let total: u128 = widths.iter().map(|&w| 1u128 << w).product();
        assert!(
            total <= 4096,
            "µFSM {} state space too large to enumerate; declare states",
            self.name
        );
        let mut out = Vec::new();
        let mut cur = vec![0u64; widths.len()];
        loop {
            let st = FsmState(cur.clone());
            if !self.idle.contains(&st) {
                let name = format!(
                    "{}{}",
                    self.name,
                    cur.iter().map(|v| format!("_{v}")).collect::<String>()
                );
                out.push(NamedState { name, state: st });
            }
            // increment multi-radix counter
            let mut i = 0;
            loop {
                if i == widths.len() {
                    return out;
                }
                cur[i] += 1;
                if cur[i] < (1u64 << widths[i]) {
                    break;
                }
                cur[i] = 0;
                i += 1;
            }
        }
    }
}

/// The full annotation bundle for a design under verification.
#[derive(Clone, Debug)]
pub struct Annotations {
    /// Instruction fetch register: holds fetched encodings (§V-A).
    pub ifr: SignalId,
    /// 1-bit signal: the IFR holds a valid instruction this cycle.
    pub fetch_valid: SignalId,
    /// PC of the instruction currently in the IFR.
    pub fetch_pc: SignalId,
    /// 1-bit commit strobe.
    pub commit: SignalId,
    /// PC of the committing instruction (valid when `commit` is high).
    pub commit_pc: SignalId,
    /// Operand registers at the issue/register-read stage (taint-introduction
    /// points for SynthLC). Typically `[rs1_value_reg, rs2_value_reg]`.
    pub operand_regs: Vec<SignalId>,
    /// Architectural register file words (taint-blocking boundary).
    pub arf: Vec<SignalId>,
    /// Architectural main memory words (taint-blocking boundary).
    pub amem: Vec<SignalId>,
    /// All µFSMs of the design.
    pub ufsms: Vec<UFsm>,
    /// Microarchitectural state that outlives individual instructions
    /// (cache tags/valid bits/data banks, predictor tables, ...): the
    /// medium of *static* channels. Assumption 3's taint flush spares
    /// these registers (and the architectural AMEM), so only influence
    /// through persistent state survives a transmitter's dematerialisation.
    pub persistent: Vec<SignalId>,
    /// Lines of "SystemVerilog" (here: DSL statements) added purely for
    /// verification, for the Table II analogue.
    pub added_loc: usize,
}

impl Annotations {
    /// Count of PCRs that had to be added for verification (Table II).
    pub fn added_pcrs(&self) -> usize {
        self.ufsms.iter().filter(|f| f.pcr_added).count()
    }

    /// Count of PCRs already present in the design.
    pub fn native_pcrs(&self) -> usize {
        self.ufsms.iter().filter(|f| !f.pcr_added).count()
    }

    /// Total µFSM state-variable registers.
    pub fn fsm_var_regs(&self) -> usize {
        self.ufsms.iter().map(|f| f.vars.len()).sum()
    }

    /// Validates that every referenced signal exists and widths are sane
    /// (1-bit valid/commit strobes, PCR widths match the fetch PC).
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self, nl: &Netlist) -> Result<(), String> {
        let chk = |s: SignalId, what: &str| -> Result<(), String> {
            if s.index() >= nl.len() {
                Err(format!("{what}: signal {s} out of range"))
            } else {
                Ok(())
            }
        };
        chk(self.ifr, "ifr")?;
        chk(self.fetch_valid, "fetch_valid")?;
        chk(self.fetch_pc, "fetch_pc")?;
        chk(self.commit, "commit")?;
        chk(self.commit_pc, "commit_pc")?;
        if nl.width(self.fetch_valid) != 1 {
            return Err("fetch_valid must be 1 bit".into());
        }
        if nl.width(self.commit) != 1 {
            return Err("commit must be 1 bit".into());
        }
        let pcw = nl.width(self.fetch_pc);
        for f in &self.ufsms {
            chk(f.pcr, &format!("ufsm {} pcr", f.name))?;
            if nl.width(f.pcr) != pcw {
                return Err(format!(
                    "ufsm {}: pcr width {} != pc width {pcw}",
                    f.name,
                    nl.width(f.pcr)
                ));
            }
            if f.vars.is_empty() {
                return Err(format!("ufsm {} has no state vars", f.name));
            }
            for &v in &f.vars {
                chk(v, &format!("ufsm {} var", f.name))?;
                if !nl.node(v).op.is_reg() {
                    return Err(format!(
                        "ufsm {}: var {} is not a register",
                        f.name,
                        nl.display_name(v)
                    ));
                }
            }
            if !nl.node(f.pcr).op.is_reg() {
                return Err(format!("ufsm {}: pcr is not a register", f.name));
            }
            for st in &f.idle {
                if st.0.len() != f.vars.len() {
                    return Err(format!("ufsm {}: idle state arity mismatch", f.name));
                }
            }
            if let Some(states) = &f.states {
                for s in states {
                    if s.state.0.len() != f.vars.len() {
                        return Err(format!("ufsm {}: state {} arity mismatch", f.name, s.name));
                    }
                }
            }
        }
        for &r in self
            .operand_regs
            .iter()
            .chain(&self.arf)
            .chain(&self.amem)
            .chain(&self.persistent)
        {
            chk(r, "operand/arf/amem/persistent reg")?;
        }
        Ok(())
    }

    /// Renders a Table II-style annotation summary.
    pub fn table_summary(&self, design: &str) -> String {
        format!(
            "{design}: IFR 1 reg | IIRs(PCRs) {} ({}) regs | uFSM vars {} regs | \
             added PCRs {} regs | commit 1 wire | operand {} regs | ARF {} words | \
             AMEM {} words | added DSL LoC {}",
            self.ufsms.len(),
            self.native_pcrs(),
            self.fsm_var_regs(),
            self.added_pcrs(),
            self.operand_regs.len(),
            self.arf.len(),
            self.amem.len(),
            self.added_loc,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Builder;

    fn tiny_annotated() -> (Netlist, Annotations) {
        let mut b = Builder::new();
        let instr = b.reg("ifr", 8, 0);
        let valid = b.reg("fetch_valid", 1, 0);
        let pc = b.reg("pc", 4, 0);
        let st = b.reg("u_state", 2, 0);
        let upc = b.reg("u_pc", 4, 0);
        let commit = b.reg("commit", 1, 0);
        let cpc = b.reg("commit_pc", 4, 0);
        for r in [instr, valid, pc, st, upc, commit, cpc] {
            let z = b.constant(0, r.width);
            b.set_next(r, z).unwrap();
        }
        let nl = b.finish().unwrap();
        let f = |n: &str| nl.find(n).unwrap();
        let ann = Annotations {
            ifr: f("ifr"),
            fetch_valid: f("fetch_valid"),
            fetch_pc: f("pc"),
            commit: f("commit"),
            commit_pc: f("commit_pc"),
            operand_regs: vec![],
            arf: vec![],
            amem: vec![],
            persistent: vec![],
            ufsms: vec![UFsm {
                name: "u".into(),
                pcr: f("u_pc"),
                vars: vec![f("u_state")],
                idle: vec![FsmState(vec![0])],
                states: None,
                pcr_added: true,
            }],
            added_loc: 2,
        };
        (nl, ann)
    }

    #[test]
    fn validate_ok() {
        let (nl, ann) = tiny_annotated();
        ann.validate(&nl).unwrap();
        assert_eq!(ann.added_pcrs(), 1);
    }

    #[test]
    fn candidate_state_enumeration_skips_idle() {
        let (nl, ann) = tiny_annotated();
        let states = ann.ufsms[0].candidate_states(&nl);
        // 2-bit var => 4 states minus 1 idle = 3 candidates.
        assert_eq!(states.len(), 3);
        assert!(states.iter().all(|s| s.state != FsmState(vec![0])));
    }

    #[test]
    fn declared_states_take_precedence() {
        let (nl, mut ann) = tiny_annotated();
        ann.ufsms[0].states = Some(vec![NamedState {
            name: "busy".into(),
            state: FsmState(vec![1]),
        }]);
        let states = ann.ufsms[0].candidate_states(&nl);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].name, "busy");
    }

    #[test]
    fn validate_rejects_wrong_widths() {
        let (nl, mut ann) = tiny_annotated();
        ann.commit = ann.ifr; // 8-bit, not a valid strobe
        assert!(ann.validate(&nl).is_err());
    }
}
