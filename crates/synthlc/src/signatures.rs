//! Leakage-signature synthesis (§V-C): attribute each candidate
//! transponder's decisions to typed transmitters' unsafe operands via
//! symbolic IFT queries, then assemble leakage signatures (§IV-D).

use crate::harness::{
    build_leak_harness, LeakHarness, LeakHarnessConfig, Operand, TaintEntry, TxKind,
};
use isa::Opcode;
use mc::{CheckStats, Checker, JobRecord, McConfig};
use mupath::{
    synthesize_isa_with, EngineOptions, InstrSynthesis, IsaSynthesis, PlClasses, RobustOptions,
    SynthConfig,
};
use sat::BudgetPool;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use uarch::Design;
use uhb::Decision;

/// A typed transmitter: an explicit input to a leakage function (§IV-C).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypedTransmitter {
    /// The transmitter's instruction type.
    pub opcode: Opcode,
    /// Its unsafe operand.
    pub operand: Operand,
    /// Intrinsic / dynamic (older, younger) / static.
    pub kind: TxKind,
}

impl std::fmt::Display for TypedTransmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}^{}.{}", self.opcode, self.kind, self.operand)
    }
}

/// One dependence tag: decision `decision_ix` of the transponder is a
/// function of `tx`'s operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tag {
    /// Index into the transponder's filtered decision list.
    pub decision_ix: usize,
    /// The typed transmitter.
    pub tx: TypedTransmitter,
    /// Presentation classification: primary leakage (observable without
    /// other transponders' help) vs secondary (stalls in shared structures
    /// behind the transmitter). Heuristic, as in Fig. 8's colouring.
    pub primary: bool,
}

/// A leakage signature (§IV-D): the yellow-highlighted components of
/// Fig. 5.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeakageSignature {
    /// The transponder (function name's instruction part).
    pub transponder: Opcode,
    /// The decision source PL class (function name's location part).
    pub src: String,
    /// Typed transmitters with unsafe operands (explicit inputs).
    pub inputs: BTreeSet<TypedTransmitter>,
    /// Decision destinations (return values): the class-label sets.
    pub outputs: Vec<BTreeSet<String>>,
    /// Whether any input was tagged primary.
    pub has_primary: bool,
}

impl LeakageSignature {
    /// Renders the signature in the paper's Fig. 5 style.
    pub fn render(&self) -> String {
        let inputs: Vec<String> = self.inputs.iter().map(|t| t.to_string()).collect();
        let outputs: Vec<String> = self
            .outputs
            .iter()
            .map(|o| {
                let names: Vec<&str> = o.iter().map(String::as_str).collect();
                format!("{{{}}}", names.join(", "))
            })
            .collect();
        format!(
            "dst {}_{}({}) -> one of [{}]",
            self.transponder,
            self.src,
            inputs.join(", "),
            outputs.join(" | ")
        )
    }
}

/// The full SynthLC result for a design.
#[derive(Clone, Debug)]
pub struct LeakageReport {
    /// Design name.
    pub design: String,
    /// Per-instruction µPATH synthesis (phase 1).
    pub mupath: Vec<InstrSynthesis>,
    /// All synthesized signatures.
    pub signatures: Vec<LeakageSignature>,
    /// Instructions with more than one µPATH.
    pub candidate_transponders: Vec<Opcode>,
    /// Transponders with at least one signature.
    pub transponders: BTreeSet<Opcode>,
    /// All transmitters appearing in some signature.
    pub transmitters: BTreeSet<TypedTransmitter>,
    /// µPATH-phase property statistics.
    pub mupath_stats: CheckStats,
    /// IFT-phase property statistics.
    pub ift_stats: CheckStats,
    /// Jobs (across both phases) that degraded to an undetermined stand-in
    /// (panic, injected fault, or deadline) instead of completing.
    pub degraded_jobs: u64,
    /// Jobs (across both phases) replayed from the checkpoint journal
    /// instead of running. Records are keyed by canonical cone
    /// fingerprint, so these are *cone cache hits* — they survive design
    /// edits outside the cone.
    pub resumed_jobs: u64,
    /// Cone cache misses (across both phases): jobs that had to solve
    /// because no cone-keyed record matched. Zero when no journal is
    /// configured.
    pub cone_misses: u64,
    /// Retry attempts (across both phases) spent recovering transiently
    /// failed jobs ([`RobustOptions::retries`]).
    pub retried_jobs: u64,
}

impl LeakageReport {
    /// The phase-1 report: µPATH synthesis alone, with an empty IFT phase.
    fn from_mupath(design: &Design, isa: IsaSynthesis) -> Self {
        LeakageReport {
            design: design.name.clone(),
            candidate_transponders: isa.candidate_transponders(),
            mupath: isa.instrs,
            signatures: Vec::new(),
            transponders: BTreeSet::new(),
            transmitters: BTreeSet::new(),
            mupath_stats: isa.stats,
            ift_stats: CheckStats::default(),
            degraded_jobs: isa.degraded_jobs,
            resumed_jobs: isa.resumed_jobs,
            cone_misses: isa.cone_misses,
            retried_jobs: isa.retried_jobs,
        }
    }

    /// Both phases' property statistics, merged.
    pub fn stats(&self) -> CheckStats {
        let mut stats = self.mupath_stats;
        stats.absorb(&self.ift_stats);
        stats
    }

    /// Whether the run degraded: some job fell back to an undetermined
    /// stand-in, or some property went undetermined through a deadline,
    /// panic or injected fault. The front ends exit 2 on it.
    pub fn degraded(&self) -> bool {
        self.degraded_jobs > 0 || self.stats().degraded() > 0
    }

    /// Distinct transmitter opcodes of a given kind.
    pub fn transmitter_opcodes(&self, kind: TxKind) -> BTreeSet<Opcode> {
        self.transmitters
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.opcode)
            .collect()
    }

    /// Signatures of one transponder.
    pub fn signatures_of(&self, p: Opcode) -> Vec<&LeakageSignature> {
        self.signatures
            .iter()
            .filter(|s| s.transponder == p)
            .collect()
    }
}

/// SynthLC configuration.
#[derive(Clone, Debug)]
pub struct LeakConfig {
    /// µPATH-phase configuration.
    pub mupath: SynthConfig,
    /// Transmitter opcode candidates (typically one representative per
    /// datapath class — results generalise to the class, as Fig. 8 groups
    /// them).
    pub transmitters: Vec<Opcode>,
    /// Transmitter typings to test.
    pub kinds: Vec<TxKind>,
    /// IFT-phase BMC bound.
    pub bound: usize,
    /// IFT-phase conflict budget.
    pub conflict_budget: Option<u64>,
    /// Worker threads; `0` selects [`mc::default_threads`] (the
    /// `SYNTHLC_THREADS` environment knob / available parallelism).
    pub threads: usize,
    /// Globally shared conflict/propagation account across both phases.
    /// Uncapped pools aggregate statistics only; capped pools cut off
    /// queries once the global cap is hit (scheduling-dependent — see
    /// `DESIGN.md` §6).
    pub budget_pool: Option<Arc<BudgetPool>>,
    /// Base fetch slot for the transponder/transmitter arrangement. The
    /// default 0 places the earliest tracked instruction first after reset;
    /// stateful DUVs (the cache) need `slot_base >= 1` so a context
    /// transaction can warm persistent state (a cold cache cannot hit,
    /// making first-request path choices trivially operand-independent).
    pub slot_base: usize,
    /// Keep only the top-K decision sources per transponder, ranked by
    /// their number of destination PL sets — the artifact's own trimming
    /// for expensive sweeps (Appendix §I-F: "select three source PLs
    /// apiece ... with the highest number of destination PL sets").
    pub max_sources: Option<usize>,
    /// Slice each decision-cover netlist to the cone of influence of its
    /// covers and assume signals before bit-blasting. Verdict-preserving
    /// (see `mc::CoiSlice`); purely a CNF-size reduction.
    pub coi: bool,
    /// Discharge (transmitter operand, decision) pairs with no structural
    /// taint path as `Unreachable` without a SAT call (see
    /// [`ift::taint_reachable`]). Debug builds still run the precise query
    /// and assert agreement.
    pub static_prune: bool,
    /// Fault-tolerance knobs (cancellation, fault injection, journal),
    /// shared with the µPATH phase. See `DESIGN.md` §8.
    pub robust: RobustOptions,
}

impl LeakConfig {
    /// The front ends' leakage audit of a design: one representative
    /// transmitter per datapath class the design implements (add, mul,
    /// div, lw, sw, beq, jalr), all four typings, the IFT phase at the
    /// µPATH phase's bound and budget, the top 3 decision sources, and
    /// both static reductions on.
    pub fn for_design(design: &Design, mupath: SynthConfig) -> Self {
        use Opcode::{Add, Beq, Div, Jalr, Lw, Mul, Sw};
        Self {
            transmitters: design
                .isa
                .iter()
                .copied()
                .filter(|t| matches!(t, Add | Mul | Div | Lw | Sw | Beq | Jalr))
                .collect(),
            kinds: vec![
                TxKind::Intrinsic,
                TxKind::DynamicOlder,
                TxKind::DynamicYounger,
                TxKind::Static,
            ],
            bound: mupath.bound,
            conflict_budget: mupath.conflict_budget,
            mupath,
            threads: 0,
            slot_base: 0,
            max_sources: Some(3),
            budget_pool: None,
            coi: true,
            static_prune: true,
            robust: RobustOptions::default(),
        }
    }
}

/// PL classes in which µPATH variability is a *shared-structure stall*
/// rather than the transponder's own execution behaviour; used for the
/// primary/secondary presentation split (§VII-A1).
const SHARED_CLASSES: &[&str] = &["IF", "ID", "scbIss", "scbFin", "scbCmt"];

fn classify_primary(kind: TxKind, src_class: &str) -> bool {
    kind == TxKind::Intrinsic || !SHARED_CLASSES.contains(&src_class)
}

/// The slot arrangement for a transmitter typing: (slot_p, slot_t),
/// shifted by the configured base slot.
fn slots_for(kind: TxKind, base: usize) -> (usize, usize) {
    match kind {
        TxKind::Intrinsic => (base, base),
        TxKind::DynamicOlder | TxKind::Static => (base + 1, base),
        TxKind::DynamicYounger => (base, base + 1),
    }
}

/// Static taint-reachability pruning state, computed once per design on the
/// *original* (uninstrumented) netlist: the forward-reachable set of each
/// operand's taint-introduction registers, and the µFSM state registers
/// backing each destination class. A decision-taint cover can only fire if
/// some destination class's µFSM register is structurally reachable by the
/// operand's taint — otherwise every taint shadow in the cover's support is
/// identically zero and the query is `Unreachable` by construction.
struct StaticPrune {
    /// Forward taint-reach sets, indexed `[rs1, rs2]`.
    reach: [std::collections::HashSet<netlist::SignalId>; 2],
    /// Per class PlId: the vars + pcr of every µFSM owning a member PL.
    class_regs: Vec<Vec<netlist::SignalId>>,
}

impl StaticPrune {
    fn build(design: &Design, plc: &PlClasses) -> Self {
        let blocked = design.annotations.arch_state();
        // Taint enters where the leak harness introduces it.
        let entry = TaintEntry::of(design);
        let reach = [Operand::Rs1, Operand::Rs2]
            .map(|op| ift::taint_reachable(&design.netlist, &entry.sources(op), &blocked));
        let mut class_regs: Vec<Vec<netlist::SignalId>> = vec![Vec::new(); plc.classes.len()];
        for pl in plc.pls.ids() {
            let ufsm = &design.annotations.ufsms[plc.ufsm_of[pl.index()]];
            let regs = &mut class_regs[plc.class_of[pl.index()].index()];
            for &r in ufsm.vars.iter().chain(std::iter::once(&ufsm.pcr)) {
                if !regs.contains(&r) {
                    regs.push(r);
                }
            }
        }
        Self { reach, class_regs }
    }

    /// Whether taint introduced at `operand` can structurally reach the
    /// µFSM state of any destination class of `d`.
    fn may_reach(&self, operand: Operand, d: &Decision) -> bool {
        let reach = &self.reach[match operand {
            Operand::Rs1 => 0,
            Operand::Rs2 => 1,
        }];
        d.dst
            .iter()
            .any(|c| self.class_regs[c.index()].iter().any(|r| reach.contains(r)))
    }
}

/// One IFT unit's verdict: its leaking tag set plus the query stats.
#[derive(Clone, Debug)]
struct IftUnit {
    tags: Vec<Tag>,
    stats: CheckStats,
}

impl JobRecord for IftUnit {
    /// Serializes one IFT unit verdict for the journal (durations excluded:
    /// nondeterministic). Tags are `[decision_ix, opcode, operand, kind,
    /// primary]` rows with enum discriminants as the stable encoding.
    fn encode(&self) -> String {
        use jsonio::Json;
        let tags: Vec<Json> = self
            .tags
            .iter()
            .map(|t| {
                Json::Arr(vec![
                    Json::Int(t.decision_ix as u64),
                    Json::Int(t.tx.opcode as u64),
                    Json::Int(match t.tx.operand {
                        Operand::Rs1 => 0,
                        Operand::Rs2 => 1,
                    }),
                    Json::Int(match t.tx.kind {
                        TxKind::Intrinsic => 0,
                        TxKind::DynamicOlder => 1,
                        TxKind::DynamicYounger => 2,
                        TxKind::Static => 3,
                    }),
                    Json::Bool(t.primary),
                ])
            })
            .collect();
        Json::Obj(vec![
            // v2: records live under cone-fingerprint keys. v1 records
            // (whole-design keys) decode as cache misses.
            ("v".into(), Json::Int(2)),
            ("tags".into(), Json::Arr(tags)),
            ("stats".into(), self.stats.encode()),
        ])
        .render_compact()
    }

    /// `None` (a cache miss) on any mismatch.
    fn decode(s: &str) -> Option<Self> {
        let j = jsonio::Json::parse(s).ok()?;
        if j.field("v")?.as_u64()? != 2 {
            return None;
        }
        let mut tags = Vec::new();
        for t in j.field("tags")?.as_arr()? {
            let t = t.as_arr()?;
            if t.len() != 5 {
                return None;
            }
            let opcode_n = t[1].as_u64()?;
            let opcode = Opcode::ALL
                .iter()
                .copied()
                .find(|&o| o as u64 == opcode_n)?;
            tags.push(Tag {
                decision_ix: t[0].as_u64()? as usize,
                tx: TypedTransmitter {
                    opcode,
                    operand: match t[2].as_u64()? {
                        0 => Operand::Rs1,
                        1 => Operand::Rs2,
                        _ => return None,
                    },
                    kind: match t[3].as_u64()? {
                        0 => TxKind::Intrinsic,
                        1 => TxKind::DynamicOlder,
                        2 => TxKind::DynamicYounger,
                        3 => TxKind::Static,
                        _ => return None,
                    },
                },
                primary: t[4].as_bool()?,
            });
        }
        Some(IftUnit {
            tags,
            stats: CheckStats::decode(j.field("stats")?)?,
        })
    }

    fn stats(&self) -> &CheckStats {
        &self.stats
    }

    /// No tags.
    fn panicked() -> Self {
        IftUnit {
            tags: Vec::new(),
            stats: CheckStats::job_panicked(),
        }
    }
}

/// Runs the IFT queries of one (transponder, slot arrangement, transmitter
/// typing) job. The harness is shared immutably across every job of its
/// slot arrangement; the checker — unrolling + SAT solver over the
/// pairing's merged decision-cover netlist — is the (pairing, typing)'s
/// context chain's ([`mc::Fleet`]), shared in job order by every
/// transponder of that typing, so learnt clauses carry between them. All
/// per-unit state lives in the assumptions.
///
/// Per (transmitter, operand), the decisions not discharged statically go
/// to [`Checker::check_covers`] in groups with identical assume lists: one
/// group per source PL for a relational typing (its relation assume names
/// the source), and one group for Intrinsic. Tags are pushed in
/// (transmitter, operand, decision) order.
#[allow(clippy::too_many_arguments)]
fn ift_kind_job(
    p: Opcode,
    decisions: &[Decision],
    kind: TxKind,
    harness: &LeakHarness,
    covers: &[netlist::SignalId],
    checker: &mut Checker<'_>,
    prune: Option<&StaticPrune>,
    cfg: &LeakConfig,
) -> IftUnit {
    let mut tags = Vec::new();
    let t_candidates: Vec<Opcode> = if kind == TxKind::Intrinsic {
        vec![p]
    } else {
        cfg.transmitters.clone()
    };
    for t in t_candidates {
        for operand in [Operand::Rs1, Operand::Rs2] {
            let reads = match operand {
                Operand::Rs1 => t.reads_rs1(),
                Operand::Rs2 => t.reads_rs2(),
            };
            if !reads {
                continue;
            }
            let mut assumes = harness.base_assumes.clone();
            assumes.push(harness.p_opcode_assume(p));
            if !harness.intrinsic {
                assumes.push(harness.t_opcode_assume(t));
            }
            assumes.push(harness.operand_assume(operand));
            assumes.push(harness.flush_assume(kind));
            let assumes_at = |relation: Option<uhb::PlId>| {
                let mut a = assumes.clone();
                a.extend(relation.map(|src| harness.relation_assume(kind, src)));
                a
            };
            // Decision indices per relation source (`None`: Intrinsic).
            let mut groups: BTreeMap<Option<uhb::PlId>, Vec<usize>> = BTreeMap::new();
            for (decision_ix, d) in decisions.iter().enumerate() {
                let relation = (kind != TxKind::Intrinsic).then_some(d.src);
                if prune.is_some_and(|pr| !pr.may_reach(operand, d)) {
                    checker.note_static_discharge();
                    if cfg!(debug_assertions) {
                        // Cross-check: the precise IFT query must agree with
                        // the static over-approximation.
                        let o = checker.check_cover(covers[decision_ix], &assumes_at(relation));
                        debug_assert!(
                            !o.is_reachable(),
                            "static taint prune contradicted precise IFT query \
                             ({p} {kind} {operand} decision {decision_ix})"
                        );
                    } else {
                        checker.discharge_unreachable();
                    }
                } else {
                    groups.entry(relation).or_default().push(decision_ix);
                }
            }
            let mut fired = vec![false; decisions.len()];
            for (relation, ixs) in groups {
                let group: Vec<netlist::SignalId> = ixs.iter().map(|&i| covers[i]).collect();
                let outcomes = checker.check_covers(&group, &assumes_at(relation));
                for (i, o) in ixs.into_iter().zip(outcomes) {
                    fired[i] = o.is_reachable();
                }
            }
            for (decision_ix, d) in decisions.iter().enumerate() {
                if fired[decision_ix] {
                    let src_class = harness.class_table().name(d.src);
                    tags.push(Tag {
                        decision_ix,
                        tx: TypedTransmitter {
                            opcode: t,
                            operand,
                            kind,
                        },
                        primary: classify_primary(kind, src_class),
                    });
                }
            }
        }
    }
    IftUnit {
        tags,
        stats: checker.stats(),
    }
}

/// Runs the complete SynthLC flow (Fig. 6 bottom): µPATH synthesis, then
/// symbolic IFT attribution, then signature assembly.
pub fn synthesize_leakage(
    design: &Design,
    transponders: &[Opcode],
    cfg: &LeakConfig,
) -> LeakageReport {
    // Phase 1: RTL2MµPATH.
    let engine = EngineOptions {
        threads: cfg.threads,
        budget_pool: cfg.budget_pool.clone(),
        robust: cfg.robust.clone(),
    };
    let threads = engine.effective_threads();
    let mut report = LeakageReport::from_mupath(
        design,
        synthesize_isa_with(design, transponders, &cfg.mupath, &engine),
    );

    // Phase 2: symbolic IFT per candidate transponder.
    struct Work {
        p: Opcode,
        decisions: Vec<Decision>,
    }
    let work: Vec<Work> = report
        .mupath
        .iter()
        .filter(|i| i.is_candidate_transponder())
        .map(|i| {
            let mut decisions: Vec<Decision> = i
                .class_decisions
                .iter()
                .filter(|d| !d.dst.is_empty())
                .cloned()
                .collect();
            if let Some(k) = cfg.max_sources {
                // Rank sources by their number of distinct destination sets.
                let mut per_src: BTreeMap<uhb::PlId, usize> = BTreeMap::new();
                for d in &decisions {
                    *per_src.entry(d.src).or_default() += 1;
                }
                let mut ranked: Vec<(uhb::PlId, usize)> = per_src.into_iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let keep: BTreeSet<uhb::PlId> =
                    ranked.into_iter().take(k).map(|(s, _)| s).collect();
                decisions.retain(|d| keep.contains(&d.src));
            }
            Work {
                p: i.opcode,
                decisions,
            }
        })
        .collect();
    // Phase 2a: one immutable harness per slot arrangement (the expensive
    // IFT instrumentation + tracker circuitry), shared by every transponder
    // and typing of that arrangement. Transponder binding happens per query
    // through assume signals, so one harness serves them all.
    let pairings: Vec<((usize, usize), Vec<TxKind>)> = if work.is_empty() {
        Vec::new()
    } else {
        let mut by_slots: BTreeMap<(usize, usize), Vec<TxKind>> = BTreeMap::new();
        for &k in &cfg.kinds {
            by_slots
                .entry(slots_for(k, cfg.slot_base))
                .or_default()
                .push(k);
        }
        by_slots.into_iter().collect()
    };
    let p_opcodes: Vec<Opcode> = work.iter().map(|w| w.p).collect();
    let harnesses: Vec<Arc<LeakHarness>> =
        mc::run_jobs(&pairings, threads, |_, &((slot_p, slot_t), _)| {
            Arc::new(build_leak_harness(
                design,
                &LeakHarnessConfig {
                    slot_p,
                    slot_t,
                    p_opcodes: p_opcodes.clone(),
                    t_opcodes: cfg.transmitters.clone(),
                    no_cf_context: true,
                },
            ))
        });

    // Phase 2b: one merged decision-cover netlist per arrangement, holding
    // *every* transponder's covers side by side. Each of the arrangement's
    // typings runs its own solver context over it (Phase 2c).
    struct CoverNet {
        netlist: netlist::Netlist,
        /// Cover signals per work index (same order as `work`).
        covers: Vec<Vec<netlist::SignalId>>,
        /// Every signal a query can reference: all transponders' covers
        /// plus the harness's full assume universe (harness signal ids are
        /// preserved by the cover-netlist extension). The COI slice keeps
        /// exactly these.
        targets: Vec<netlist::SignalId>,
        /// Canonical cone fingerprint per work index: the cone of that
        /// transponder's covers plus the assume universe, with the free
        /// registers. Keys the per-unit journal records, so a design edit
        /// only invalidates the transponders whose cones it touches.
        unit_fps: Vec<mc::ConeFingerprint>,
    }
    let free = design.annotations.arch_state();
    let cover_nets: Vec<CoverNet> = {
        let free = &free;
        mc::run_jobs(&harnesses, threads, |_, harness| {
            let works: Vec<&[Decision]> = work.iter().map(|w| w.decisions.as_slice()).collect();
            let (netlist, covers) = harness.decision_covers_multi(&works);
            let assume_universe = harness.assume_signal_universe();
            let mut targets: Vec<netlist::SignalId> = covers.iter().flatten().copied().collect();
            targets.extend(assume_universe.iter().copied());
            let unit_fps: Vec<mc::ConeFingerprint> = covers
                .iter()
                .map(|cs| {
                    let mut targets: Vec<netlist::SignalId> = cs.clone();
                    targets.extend(assume_universe.iter().copied());
                    mc::ConeFingerprint::compute(&netlist, &targets, free)
                })
                .collect();
            CoverNet {
                netlist,
                covers,
                targets,
                unit_fps,
            }
        })
    };

    // Phase 2c: the query jobs — one per (transponder, arrangement,
    // typing). Each (arrangement, typing) is one context chain over its
    // arrangement's cover netlist, so the typings of one arrangement
    // (DynamicOlder and Static) can run on different engine threads while the
    // transponders of one typing share a checker. Replay is *per unit*
    // ([`mc::Replay::Job`]): each unit's record is keyed by its own cone
    // fingerprint, so after a local design edit only the units whose cones
    // the edit touched re-solve. A chain's misses run in job order — each
    // shared solver's query stream is a pure function of the miss set,
    // independent of worker count. (Verdicts are per-unit pure; only
    // solver-history counters can differ between a partially replayed run
    // and a cold one, and those never enter the verdict report.)
    let chains: Vec<(usize, TxKind)> = pairings
        .iter()
        .enumerate()
        .flat_map(|(pi, (_, kinds))| kinds.iter().map(move |&k| (pi, k)))
        .collect();
    let units: Vec<(usize, usize)> = (0..work.len())
        .flat_map(|wi| (0..chains.len()).map(move |c| (wi, c)))
        .collect();
    let plc = PlClasses::of(design);
    // Built on the first miss that needs it: a fully replayed run never
    // computes it.
    let prune = std::sync::OnceLock::new();
    let fleet = mc::Fleet {
        phase: "ift",
        chains: chains
            .iter()
            .map(|&(pi, _)| mc::ChainNet {
                netlist: &cover_nets[pi].netlist,
                coi: cfg.coi.then_some(cover_nets[pi].targets.as_slice()),
            })
            .collect(),
        free: &free,
        mc: McConfig::bounded(cfg.bound, cfg.conflict_budget),
        replay: mc::Replay::Job,
    };
    let chain_of: Vec<usize> = units.iter().map(|&(_, c)| c).collect();
    let run = fleet.run(
        &chain_of,
        |ix| {
            let (wi, c) = units[ix];
            let (pi, kind) = chains[c];
            ift_job_key(
                cover_nets[pi].unit_fps[wi],
                cfg,
                work[wi].p,
                &work[wi].decisions,
                pairings[pi].0,
                kind,
            )
        },
        &engine,
        |ix, checker| {
            let (wi, c) = units[ix];
            let (pi, kind) = chains[c];
            let w = &work[wi];
            let prune = cfg
                .static_prune
                .then(|| prune.get_or_init(|| StaticPrune::build(design, &plc)));
            ift_kind_job(
                w.p,
                &w.decisions,
                kind,
                &harnesses[pi],
                &cover_nets[pi].covers[wi],
                checker,
                prune,
                cfg,
            )
        },
    );
    report.degraded_jobs += run.degraded_jobs;
    report.resumed_jobs += run.resumed_jobs;
    report.cone_misses += run.cone_misses;
    report.retried_jobs += run.retried_jobs;

    // Phase 3: assemble signatures.
    let class_table = &plc.classes;
    // Merge job results back per transponder, in job order — the merged
    // tag lists are identical for every worker count.
    let mut tags_per_work: Vec<Vec<Tag>> = work.iter().map(|_| Vec::new()).collect();
    for (&(w_ix, _), unit) in units.iter().zip(run.results) {
        report.ift_stats.absorb(&unit.stats);
        tags_per_work[w_ix].extend(unit.tags);
    }
    for (w, tags) in work.iter().zip(tags_per_work) {
        // Group tags per decision source.
        let mut by_src: BTreeMap<uhb::PlId, Vec<&Tag>> = BTreeMap::new();
        for t in &tags {
            by_src
                .entry(w.decisions[t.decision_ix].src)
                .or_default()
                .push(t);
        }
        for (src, src_tags) in by_src {
            let tagged_decisions: BTreeSet<usize> =
                src_tags.iter().map(|t| t.decision_ix).collect();
            // §V-C1 footnote 3: at least two operand-dependent decisions at
            // this source are needed for >1 observations.
            if tagged_decisions.len() < 2 {
                continue;
            }
            let inputs: BTreeSet<TypedTransmitter> = src_tags.iter().map(|t| t.tx).collect();
            let outputs: Vec<BTreeSet<String>> = w
                .decisions
                .iter()
                .filter(|d| d.src == src)
                .map(|d| {
                    d.dst
                        .iter()
                        .map(|&c| class_table.name(c).to_owned())
                        .collect()
                })
                .collect();
            let has_primary = src_tags.iter().any(|t| t.primary);
            report.transmitters.extend(inputs.iter().copied());
            report.transponders.insert(w.p);
            report.signatures.push(LeakageSignature {
                transponder: w.p,
                src: class_table.name(src).to_owned(),
                inputs,
                outputs,
                has_primary,
            });
        }
    }
    report
}

/// What a front end's `paths`/`leak` request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Audit {
    /// RTL2MµPATH alone: the report's IFT phase is empty.
    Paths,
    /// The full SynthLC flow, with [`LeakConfig::for_design`]'s audit.
    Leak,
}

/// The one driver entry point behind the CLI's and the daemon's
/// `paths`/`leak`: audits `op` on `design` under the µPATH knobs `synth`
/// and the engine's threads, shared budget pool and robustness knobs.
pub fn audit(
    design: &Design,
    op: Opcode,
    kind: Audit,
    synth: &SynthConfig,
    engine: EngineOptions,
) -> LeakageReport {
    match kind {
        Audit::Paths => {
            LeakageReport::from_mupath(design, synthesize_isa_with(design, &[op], synth, &engine))
        }
        Audit::Leak => synthesize_leakage(
            design,
            &[op],
            &LeakConfig {
                threads: engine.threads,
                budget_pool: engine.budget_pool,
                robust: engine.robust,
                ..LeakConfig::for_design(design, synth.clone())
            },
        ),
    }
}

/// The stable journal key of one IFT unit job: the unit's canonical cone
/// fingerprint (its covers + the assume universe, with the free
/// registers — so an edit outside that cone leaves the record valid),
/// job identity, and every configuration knob (including the
/// transponder's decision list, hashed) that can change the verdict.
fn ift_job_key(
    cone_fp: mc::ConeFingerprint,
    cfg: &LeakConfig,
    p: Opcode,
    decisions: &[Decision],
    slots: (usize, usize),
    kind: TxKind,
) -> String {
    let dhash = netlist::Fnv::new()
        .bytes(format!("{:?}|{decisions:?}", cfg.transmitters).as_bytes())
        .finish();
    format!(
        "ift:{cone_fp}:{p:?}:{}:{}:{kind:?}:{}:{:?}:{}:{}:{dhash:016x}",
        slots.0, slots.1, cfg.bound, cfg.conflict_budget, cfg.coi, cfg.static_prune
    )
}

#[cfg(test)]
mod codec_tests {
    use super::*;

    fn sample() -> IftUnit {
        let tags = vec![
            Tag {
                decision_ix: 0,
                tx: TypedTransmitter {
                    opcode: Opcode::Div,
                    operand: Operand::Rs1,
                    kind: TxKind::Intrinsic,
                },
                primary: true,
            },
            Tag {
                decision_ix: 3,
                tx: TypedTransmitter {
                    opcode: Opcode::Lw,
                    operand: Operand::Rs2,
                    kind: TxKind::DynamicYounger,
                },
                primary: false,
            },
        ];
        let stats = CheckStats {
            properties: 5,
            reachable: 2,
            unreachable: 3,
            coi_bits_before: 64,
            coi_bits_after: 17,
            ..Default::default()
        };
        IftUnit { tags, stats }
    }

    /// The IFT journal codec is a golden fixed point (encode ∘ decode ∘
    /// encode byte-identical) so a resumed leakage run re-journals
    /// records without churning the journal file.
    #[test]
    fn ift_record_round_trip_is_byte_identical() {
        let unit = sample();
        let once = unit.encode();
        let decoded = IftUnit::decode(&once).expect("own encoding decodes");
        assert_eq!(decoded.encode(), once);
        assert_eq!(decoded.tags, unit.tags);
        assert_eq!(decoded.stats.properties, unit.stats.properties);
        assert_eq!(decoded.stats.coi_bits_after, unit.stats.coi_bits_after);
        // The empty record is also a fixed point (units with no tags).
        let empty = IftUnit {
            tags: Vec::new(),
            stats: CheckStats::default(),
        }
        .encode();
        let decoded = IftUnit::decode(&empty).unwrap();
        assert!(decoded.tags.is_empty());
        assert_eq!(decoded.encode(), empty);
    }

    /// A torn journal tail must read as a cache miss, never as a wrong
    /// (e.g. tag-dropping) verdict — and out-of-range discriminants are
    /// rejected rather than coerced.
    #[test]
    fn ift_record_corrupt_tail_is_rejected() {
        let full = sample().encode();
        for cut in 1..=40.min(full.len() - 1) {
            assert!(
                IftUnit::decode(&full[..full.len() - cut]).is_none(),
                "accepted a record torn {cut} bytes short"
            );
        }
        let mut trailing = full.clone();
        trailing.push_str("{}");
        assert!(IftUnit::decode(&trailing).is_none());
        assert!(IftUnit::decode(&full.replacen("\"v\":2", "\"v\":7", 1)).is_none());
        // The pre-cone-cache v1 schema (whole-design keys) is a miss too.
        assert!(IftUnit::decode(&full.replacen("\"v\":2", "\"v\":1", 1)).is_none());
        // Operand discriminant 2 does not exist.
        let bad = full.replacen(",1,2,", ",2,2,", 1);
        assert_ne!(bad, full);
        assert!(IftUnit::decode(&bad).is_none());
    }
}
