//! The traced run's per-layer numbers. Spans are recorded by the benchmark
//! itself, around the protocol requests of a traced round and around calls
//! into each layer's public functions while it replays one job per class
//! on the round's own inputs. Nothing inside the program is instrumented.
//!
//! Replays only measure. Verdicts and mechanism guards are checked on the
//! protocol side, against the daemon's own answers, so the replays need
//! no knowledge of the daemon's key layout or private defaults.

use crate::stats::{median, tail};
use crate::workloads::{design_job, ledger, Plan, Round, Workload, BUDGET};
use isa::Opcode;
use jsonio::Json;
use mc::{JobStore, McConfig};
use mupath::{ContextMode, EngineOptions, RobustOptions, SynthConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use synthlc::{Journal, LeakConfig, LeakHarnessConfig, Operand, TxKind};
use uarch::Design;

/// One recorded interval. Spans of one replayed job share `job`.
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    job: u64,
}

/// In-memory span recorder; written out once, at exit.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under `parent` (default: the innermost open span).
    pub fn open(&mut self, name: &str, job: u64, parent: Option<usize>) -> usize {
        let parent = parent.or_else(|| self.stack.last().copied());
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent,
            job,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, ix: usize) {
        self.spans[ix].end = self.now();
        self.stack.retain(|&s| s != ix);
    }

    /// Runs `f` inside a span.
    pub fn record<T>(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let ix = self.open(name, job, parent);
        let out = f();
        self.close(ix);
        out
    }

    /// A span's duration minus the time its children cover (children of
    /// one span run one after another, never overlapping).
    pub fn self_time(&self, ix: usize) -> f64 {
        let s = &self.spans[ix];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(ix))
            .map(|c| c.end - c.start)
            .sum();
        s.end - s.start - children
    }

    /// The summed duration of `name` spans, per job.
    fn by_job(&self, name: &str) -> Vec<f64> {
        let mut by_job: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_job.entry(s.job).or_default() += s.end - s.start;
        }
        by_job.into_values().collect()
    }

    /// Median over jobs of the summed duration of `name` spans per job.
    pub fn per_job(&self, name: &str) -> f64 {
        median(&self.by_job(name))
    }

    /// Distinct jobs with a `name` span.
    pub fn jobs(&self, name: &str) -> usize {
        self.by_job(name).len()
    }

    /// Total duration of every `name` span.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// One JSON line per span, with its self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("span", Json::Int(i as u64)),
                ("name", Json::str(&s.name)),
                ("job", Json::Int(s.job)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("start_s", Json::Num(s.start)),
                ("end_s", Json::Num(s.end)),
                ("self_s", Json::Num(self.self_time(i))),
            ]);
            writeln!(out, "{}", line.render_compact())?;
        }
        out.flush()
    }
}

/// Per-layer values by metric name (the names of [`PER_LAYER`]), each with
/// a note for its report line. A layer the workload does not exercise is
/// absent and reads 0.
pub type Layers = BTreeMap<String, (f64, String)>;

pub fn put(out: &mut Layers, name: &str, v: f64) {
    put_noted(out, name, v, String::new());
}

pub fn put_noted(out: &mut Layers, name: &str, v: f64, note: String) {
    debug_assert!(
        PER_LAYER.iter().any(|(n, _)| *n == name),
        "unlisted metric {name}"
    );
    out.insert(name.to_owned(), (v, note));
}

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("serve.stats_rtt_ms", "ms"),
    ("serve.ack_stall_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cone_hits", "count"),
    ("serve.cone_misses", "count"),
    ("serve.retried", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.latency_tail_ms", "ms"),
    ("serve.hit_latency_tail_ms", "ms"),
    ("host.cpu_ms_per_job", "ms"),
    ("host.steal_share", "ratio"),
    ("jsonio.parse_us", "us"),
    ("jsonio.render_us", "us"),
    ("synthlc.journal_put_ms", "ms"),
    ("synthlc.journal_get_us", "us"),
    ("synthlc.leak_harness_ms", "ms"),
    ("synthlc.ift_s", "s"),
    ("synthlc.signatures", "count"),
    ("ift.instrument_ms", "ms"),
    ("mupath.synth_s", "s"),
    ("mupath.warm_ms", "ms"),
    ("mupath.harness_ms", "ms"),
    ("mupath.fingerprint_ms", "ms"),
    ("netlist.frontend_ms", "ms"),
    ("netlist.cone_fp_ms", "ms"),
    ("mc.elab_ms", "ms"),
    ("mc.coi_ms", "ms"),
    ("mc.unroll_ms", "ms"),
    ("mc.check_s", "s"),
    ("mc.properties", "count"),
    ("mc.static_discharged", "count"),
    ("mc.coi_bits_kept", "count"),
    ("mc.frames_extended", "count"),
    ("mc.ctx_reused", "count"),
    ("mc.learnts_carried", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("fuzz.gen_s", "s"),
    ("fuzz.sat_s", "s"),
    ("fuzz.bmc_s", "s"),
    ("fuzz.induction_s", "s"),
    ("fuzz.reductions_s", "s"),
    ("fuzz.ift_s", "s"),
    ("fuzz.text_s", "s"),
    ("fuzz.incremental_s", "s"),
    ("fuzz.cone_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// Library knobs of a replayed MiniCache `lw` job: the bound and budget
/// the requests carry, and the slots, context, transmitters and kinds of
/// the paper's flow.
struct Knobs {
    bound: usize,
    synth: SynthConfig,
}

impl Knobs {
    fn new(design: &Design, plan: &Plan) -> Knobs {
        let bound = plan.bound as usize;
        let context = if design.type_values.is_empty() {
            ContextMode::NoControlFlow
        } else {
            ContextMode::Any
        };
        Knobs {
            bound,
            synth: SynthConfig {
                slots: vec![0, 1],
                context,
                bound,
                conflict_budget: Some(BUDGET),
                max_shapes: 64,
            },
        }
    }

    fn engine(&self, journal: &Arc<Journal>) -> EngineOptions {
        EngineOptions {
            threads: 1,
            budget_pool: None,
            robust: robust(journal),
        }
    }

    fn leak(&self, design: &Design, journal: &Arc<Journal>) -> LeakConfig {
        LeakConfig {
            mupath: self.synth.clone(),
            transmitters: transmitters(design),
            kinds: vec![
                TxKind::Intrinsic,
                TxKind::DynamicOlder,
                TxKind::DynamicYounger,
                TxKind::Static,
            ],
            bound: self.bound,
            conflict_budget: Some(BUDGET),
            threads: 1,
            slot_base: 0,
            max_sources: Some(3),
            coi: true,
            static_prune: true,
            budget_pool: None,
            robust: robust(journal),
        }
    }
}

fn robust(journal: &Arc<Journal>) -> RobustOptions {
    RobustOptions {
        journal: Some(Arc::clone(journal) as Arc<dyn JobStore>),
        ..RobustOptions::default()
    }
}

fn transmitters(design: &Design) -> Vec<Opcode> {
    use Opcode::*;
    design
        .isa
        .iter()
        .copied()
        .filter(|t| matches!(t, Add | Mul | Div | Lw | Sw | Beq | Jalr))
        .collect()
}

fn free_regs(design: &Design) -> Vec<netlist::SignalId> {
    let ann = &design.annotations;
    ann.arf.iter().chain(ann.amem.iter()).copied().collect()
}

/// A latency list's tail, for its report line.
fn tail_noted(out: &mut Layers, name: &str, xs: &[f64]) {
    match tail(xs) {
        Some((p, v, beyond)) => put_noted(
            out,
            name,
            v,
            format!("p{p} of {} samples ({beyond} beyond)", xs.len()),
        ),
        None => put_noted(
            out,
            name,
            0.0,
            format!("{} samples: too few for a tail", xs.len()),
        ),
    }
}

/// Shared metrics of every traced round: serve counters and tails, the
/// delayed-ACK stall, host readings, client ledger, `jsonio` and journal
/// costs on the round's own lines and records.
pub fn common(
    w: Workload,
    tr: &mut Tracer,
    round: &Round,
    scratch: &Path,
    out: &mut Layers,
) -> Result<(), String> {
    let st = round.stats.as_ref().ok_or("traced round has no stats")?;
    let count = |k: &str| st.field(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let rtt = median(&round.stats_rtt);
    put_noted(
        out,
        "serve.stats_rtt_ms",
        rtt,
        format!("p50 of {} requests", round.stats_rtt.len()),
    );
    put_noted(
        out,
        "serve.ack_stall_ms",
        median(&round.stall_rtt) - rtt,
        format!(
            "p50 of {} requests without TCP_QUICKACK minus serve.stats_rtt_ms",
            round.stall_rtt.len()
        ),
    );
    for (name, key) in [
        ("serve.cache_hits", "cache_hits"),
        ("serve.cone_hits", "cone_hits"),
        ("serve.cone_misses", "cone_misses"),
        ("serve.retried", "retried"),
        ("serve.degraded", "degraded"),
        ("serve.shed", "shed"),
    ] {
        put(out, name, count(key));
    }
    tail_noted(out, "serve.latency_tail_ms", &round.main);
    tail_noted(out, "serve.hit_latency_tail_ms", &round.hits);
    put_noted(
        out,
        "host.cpu_ms_per_job",
        round.cpu_ms / round.timed_jobs.max(1) as f64,
        format!("{} timed jobs", round.timed_jobs),
    );
    put(
        out,
        "host.steal_share",
        round.steal_ticks as f64 / round.total_ticks.max(1) as f64,
    );
    let clients: &[&str] = match w {
        Workload::LeakCold => &["leak"],
        Workload::EditWarm => &["edit", "hit"],
        Workload::FuzzSweep => &["fuzz", "hit"],
    };
    put(
        out,
        "sat.conflicts",
        ledger(st, clients, "conflicts") as f64,
    );
    put(
        out,
        "sat.propagations",
        ledger(st, clients, "propagations") as f64,
    );

    // jsonio: parse and re-render every event and store line of the round.
    let lines: Vec<&String> = round.lines.iter().chain(&round.store_lines).collect();
    let parsed: Vec<Json> = tr.record("jsonio.parse", 0, None, || {
        lines.iter().filter_map(|l| Json::parse(l).ok()).collect()
    });
    if parsed.len() != lines.len() {
        return Err("an event or store line did not parse".into());
    }
    let rendered: Vec<String> = tr.record("jsonio.render", 0, None, || {
        parsed.iter().map(Json::render_compact).collect()
    });
    if rendered.iter().zip(&lines).any(|(r, l)| r != *l) {
        return Err("a line did not re-render byte for byte".into());
    }
    let n = lines.len().max(1) as f64;
    let per_line = format!("{} lines", lines.len());
    put_noted(
        out,
        "jsonio.parse_us",
        tr.total("jsonio.parse") * 1e6 / n,
        per_line.clone(),
    );
    put_noted(
        out,
        "jsonio.render_us",
        tr.total("jsonio.render") * 1e6 / n,
        per_line,
    );

    // Journal put (append + fsync) and get on a scratch copy of the
    // round's records.
    let records: Vec<(String, String)> = parsed[round.lines.len()..]
        .iter()
        .filter_map(|j| {
            Some((
                j.field("k")?.as_str()?.to_owned(),
                j.field("r")?.as_str()?.to_owned(),
            ))
        })
        .collect();
    let journal = Journal::create(scratch.join("journal-copy.jsonl")).map_err(|e| e.to_string())?;
    for (i, (k, r)) in records.iter().enumerate() {
        tr.record("synthlc.journal_put", i as u64, None, || journal.put(k, r));
    }
    for (i, (k, r)) in records.iter().enumerate() {
        let got = tr.record("synthlc.journal_get", i as u64, None, || journal.get(k));
        if got.as_deref() != Some(r.as_str()) {
            return Err(format!("journal copy lost record {k}"));
        }
    }
    let per_record = format!("p50 of {} records", records.len());
    put_noted(
        out,
        "synthlc.journal_put_ms",
        tr.per_job("synthlc.journal_put") * 1e3,
        per_record.clone(),
    );
    put_noted(
        out,
        "synthlc.journal_get_us",
        tr.per_job("synthlc.journal_get") * 1e6,
        per_record,
    );
    Ok(())
}

/// `leak_cold`: the cold µPATH stage (the set-up's `paths` job), the `leak`
/// job with its µPATH cones journaled, and the model-checker layers on
/// that job's static-transmitter harness.
pub fn leak_cold(
    tr: &mut Tracer,
    plan: &Plan,
    scratch: &Path,
    out: &mut Layers,
) -> Result<(), String> {
    let design = uarch::cache::build_cache();
    let knobs = Knobs::new(&design, plan);
    let journal =
        Arc::new(Journal::create(scratch.join("replay-store.jsonl")).map_err(|e| e.to_string())?);
    let isa = tr.record("mupath.synth", 0, None, || {
        mupath::synthesize_isa_with(
            &design,
            &[Opcode::Lw],
            &knobs.synth,
            &knobs.engine(&journal),
        )
    });
    let root = tr.open("job.leak", 1, None);
    let design = tr.record("uarch.build", 1, None, uarch::cache::build_cache);
    tr.record("mupath.fingerprint", 1, None, || {
        mupath::design_fingerprint(&design)
    });
    let cfg = knobs.leak(&design, &journal);
    let report = tr.record("synthlc.ift", 1, None, || {
        synthlc::synthesize_leakage(&design, &[Opcode::Lw], &cfg)
    });
    tr.close(root);
    put(out, "mupath.synth_s", tr.total("mupath.synth"));
    put_noted(
        out,
        "synthlc.ift_s",
        tr.total("synthlc.ift"),
        format!(
            "{} µPATH cone(s) replayed, {} cone(s) solved",
            report.resumed_jobs, report.cone_misses
        ),
    );
    put(out, "synthlc.signatures", report.signatures.len() as f64);
    let s = &report.ift_stats;
    for (name, v) in [
        ("mc.properties", s.properties),
        ("mc.static_discharged", s.discharged_static),
        ("mc.coi_bits_kept", s.coi_bits_after),
        ("mc.frames_extended", s.frames_extended),
        ("mc.ctx_reused", s.ctx_reused),
        ("mc.learnts_carried", s.learnts_carried),
    ] {
        put(out, name, v as f64);
    }

    // The static-transmitter arrangement (transponder one slot after the
    // transmitter) and its decision covers, as the IFT stage builds them.
    let harness = tr.record("synthlc.leak_harness", 2, None, || {
        synthlc::build_leak_harness(
            &design,
            &LeakHarnessConfig {
                slot_p: 1,
                slot_t: 0,
                p_opcodes: vec![Opcode::Lw],
                t_opcodes: transmitters(&design),
                no_cf_context: true,
            },
        )
    });
    let decisions = top_decisions(&isa.instrs[0], 3);
    let (net, covers) = harness.decision_covers_multi(&[decisions.as_slice()]);
    let mut targets = covers[0].clone();
    targets.extend(harness.assume_signal_universe());
    let free = free_regs(&design);
    let elab = Arc::new(tr.record("mc.elab", 2, None, || mc::Elab::new(&net)));
    let coi = Arc::new(tr.record("mc.coi", 2, None, || mc::CoiSlice::compute(&net, &targets)));
    tr.record("mc.unroll", 2, None, || {
        let mut u = mc::Unrolling::with_elab(&net, mc::InitMode::Reset, Arc::clone(&elab));
        u.set_free_regs(&free);
        u.set_coi(Some(Arc::clone(&coi)));
        u.extend_to(knobs.bound);
        u.num_frames()
    });
    let mc_cfg = McConfig {
        bound: 0,
        conflict_budget: Some(BUDGET),
        bound_is_complete: true,
        try_induction: false,
        induction_depth: 0,
    };
    let mut checker = mc::Checker::with_coi(&net, mc_cfg, &free, elab, Some(coi));
    checker.ensure_bound(knobs.bound);
    let check = tr.open("mc.check", 2, None);
    let mut queries = 0;
    for t in transmitters(&design) {
        for (operand, reads) in [(Operand::Rs1, t.reads_rs1()), (Operand::Rs2, t.reads_rs2())] {
            if !reads {
                continue;
            }
            for (i, d) in decisions.iter().enumerate() {
                let mut assumes = harness.base_assumes.clone();
                assumes.push(harness.p_opcode_assume(Opcode::Lw));
                if !harness.intrinsic {
                    assumes.push(harness.t_opcode_assume(t));
                }
                assumes.push(harness.operand_assume(operand));
                assumes.push(harness.flush_assume(TxKind::Static));
                assumes.push(harness.relation_assume(TxKind::Static, d.src));
                checker.check_cover(covers[0][i], &assumes);
                queries += 1;
            }
        }
    }
    tr.close(check);
    let check_s = tr.total("mc.check");
    let (_, solver) = checker.solver_stats();
    put(out, "mc.elab_ms", tr.total("mc.elab") * 1e3);
    put(out, "mc.coi_ms", tr.total("mc.coi") * 1e3);
    put(out, "mc.unroll_ms", tr.total("mc.unroll") * 1e3);
    put_noted(
        out,
        "mc.check_s",
        check_s,
        format!("{queries} static-transmitter queries"),
    );
    put(
        out,
        "sat.props_per_s",
        solver.propagations as f64 / check_s.max(1e-9),
    );
    put(
        out,
        "synthlc.leak_harness_ms",
        tr.total("synthlc.leak_harness") * 1e3,
    );
    Ok(())
}

/// The IFT stage's decision list for a transponder: decisions with a
/// destination, from the `keep` sources with the most destination sets.
fn top_decisions(instr: &mupath::InstrSynthesis, keep: usize) -> Vec<uhb::Decision> {
    let mut decisions: Vec<uhb::Decision> = instr
        .class_decisions
        .iter()
        .filter(|d| !d.dst.is_empty())
        .cloned()
        .collect();
    let mut per_src: BTreeMap<uhb::PlId, usize> = BTreeMap::new();
    for d in &decisions {
        *per_src.entry(d.src).or_default() += 1;
    }
    let mut ranked: Vec<(uhb::PlId, usize)> = per_src.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let kept: Vec<uhb::PlId> = ranked.into_iter().take(keep).map(|(s, _)| s).collect();
    decisions.retain(|d| kept.contains(&d.src));
    decisions
}

/// The slot-wide µPATH query universe the daemon fingerprints.
fn slot_universe(h: &mupath::IuvHarness) -> Vec<netlist::SignalId> {
    let mut t = vec![h.iuv_done, h.iuv_seen, h.iuv_pc];
    t.extend_from_slice(&h.assumes);
    t.extend(h.op_assumes.iter().map(|&(_, s)| s));
    for m in &h.monitors {
        t.extend([m.visit_now, m.visited, m.multi, m.noncons]);
    }
    t
}

/// Runs one job on an in-process `serve::Server` (the daemon's engine
/// without its TCP front end) and returns its terminal event.
fn serve_job(server: &serve::Server, req: Json) -> Result<Json, String> {
    let req = serve::Request::parse(&req)?;
    let (tx, rx) = std::sync::mpsc::channel();
    if !matches!(server.submit(req, tx), serve::Submit::Accepted(_)) {
        return Err("in-process serve refused a replayed job".into());
    }
    rx.iter()
        .find(|ev| {
            !matches!(
                ev.field("ev").and_then(Json::as_str),
                Some("accepted" | "progress")
            )
        })
        .ok_or_else(|| "in-process serve dropped a replayed job".into())
}

/// `edit_warm`: whole `edit` jobs (fresh out-of-cone edits the round wrote
/// but did not submit) and `hit` jobs (edits the round submitted) on an
/// in-process server over a copy of the round's verdict store; then each
/// layer an edit job walks through, one call at a time.
pub fn edit_warm(
    tr: &mut Tracer,
    plan: &Plan,
    round: &Round,
    scratch: &Path,
    out: &mut Layers,
) -> Result<(), String> {
    let copy = scratch.join("replay-store.jsonl");
    std::fs::copy(round.dir.join("store.jsonl"), &copy).map_err(|e| e.to_string())?;
    let store = serve::VerdictStore::resume(copy.clone()).map_err(|e| e.to_string())?;
    let server = serve::Server::start(
        serve::ServeConfig {
            workers: 1,
            ..serve::ServeConfig::default()
        },
        Some(Arc::new(store)),
    );
    let edits = round.edits_run.len().saturating_sub(1);
    let hits = plan.traced_jobs.min(edits);
    let resubmitted = (0..hits).map(|k| &round.edits_run[1 + k * edits / hits.max(1)]);
    let jobs: Vec<(&str, &PathBuf)> = round
        .edits_spare
        .iter()
        .map(|p| ("job.edit", p))
        .chain(resubmitted.map(|p| ("job.hit", p)))
        .collect();
    for (n, &(class, path)) in jobs.iter().enumerate() {
        let fields = design_job(&path.display().to_string(), plan);
        let mut req = vec![("op", Json::str("leak")), ("id", Json::str(class))];
        req.extend(fields);
        let ev = tr.record(class, n as u64, None, || serve_job(&server, Json::obj(req)))?;
        if ev.field("ev").and_then(Json::as_str) != Some("done") {
            return Err(format!("replayed {class} answered {}", ev.render_compact()));
        }
    }
    server.shutdown();
    server.join();

    // Layer by layer, on the spare edits. The warm µPATH stage runs
    // against a journal this replay warms with the base design itself.
    let load = |tr: &mut Tracer, job: u64, path: &Path| -> Result<Design, String> {
        let src = tr
            .record("io.read", job, None, || std::fs::read_to_string(path))
            .map_err(|e| e.to_string())?;
        let name = path.display().to_string();
        tr.record("netlist.frontend", job, None, || {
            uarch::frontend::parse_design(&src, &name).0
        })
        .ok_or_else(|| format!("{name} did not compile"))
    };
    let base_path = &round.edits_run[0];
    let base_src = std::fs::read_to_string(base_path).map_err(|e| e.to_string())?;
    let base = uarch::frontend::parse_design(&base_src, &base_path.display().to_string())
        .0
        .ok_or("the base design did not compile")?;
    let knobs = Knobs::new(&base, plan);
    let journal =
        Arc::new(Journal::create(scratch.join("mupath-journal.jsonl")).map_err(|e| e.to_string())?);
    tr.record("mupath.synth", 0, None, || {
        mupath::synthesize_isa_with(&base, &[Opcode::Lw], &knobs.synth, &knobs.engine(&journal))
    });
    let mut cone_misses = 0;
    for (i, path) in round.edits_spare.iter().enumerate() {
        let job = 1 + i as u64;
        let design = load(tr, job, path)?;
        tr.record("mupath.fingerprint", job, None, || {
            mupath::design_fingerprint(&design)
        });
        let free = free_regs(&design);
        for slot in [0, 1] {
            let h = tr.record("mupath.harness", job, None, || {
                mupath::build_harness_multi(&design, &[Opcode::Lw], slot, knobs.synth.context)
            });
            let targets = slot_universe(&h);
            tr.record("netlist.cone_fp", job, None, || {
                mc::ConeFingerprint::compute(&h.netlist, &targets, &free)
            });
        }
        let isa = tr.record("mupath.warm", job, None, || {
            mupath::synthesize_isa_with(
                &design,
                &[Opcode::Lw],
                &knobs.synth,
                &knobs.engine(&journal),
            )
        });
        cone_misses += isa.cone_misses;
        let ann = &design.annotations;
        let use_arf = design.rs_fields.is_some() && !ann.arf.is_empty();
        let opts = ift::IftOptions {
            sources: if use_arf {
                ann.arf.clone()
            } else {
                ann.operand_regs.clone()
            },
            persistent: ann.amem.iter().chain(&ann.persistent).copied().collect(),
            blocked: ann.arf.iter().chain(&ann.amem).copied().collect(),
        };
        tr.record("ift.instrument", job, None, || {
            ift::instrument(&design.netlist, &opts)
        });
        for (slot_p, slot_t) in [(0, 0), (1, 0), (0, 1)] {
            tr.record("synthlc.leak_harness", job, None, || {
                synthlc::build_leak_harness(
                    &design,
                    &LeakHarnessConfig {
                        slot_p,
                        slot_t,
                        p_opcodes: vec![Opcode::Lw],
                        t_opcodes: transmitters(&design),
                        no_cf_context: true,
                    },
                )
            });
        }
    }
    let spares = format!("p50 of {} edits", round.edits_spare.len());
    put(out, "mupath.synth_s", tr.total("mupath.synth"));
    for (name, metric) in [
        ("netlist.frontend", "netlist.frontend_ms"),
        ("mupath.fingerprint", "mupath.fingerprint_ms"),
        ("mupath.harness", "mupath.harness_ms"),
        ("netlist.cone_fp", "netlist.cone_fp_ms"),
        ("ift.instrument", "ift.instrument_ms"),
        ("synthlc.leak_harness", "synthlc.leak_harness_ms"),
    ] {
        put_noted(out, metric, tr.per_job(name) * 1e3, spares.clone());
    }
    put_noted(
        out,
        "mupath.warm_ms",
        tr.per_job("mupath.warm") * 1e3,
        format!("{spares}, {cone_misses} cone miss(es)"),
    );
    Ok(())
}

/// `fuzz_sweep`: every seed of the traced stream once with all oracles
/// (the `fuzz` job), once with none (generation only), then once per
/// oracle alone.
pub fn fuzz_sweep(
    tr: &mut Tracer,
    plan: &Plan,
    round: &Round,
    out: &mut Layers,
) -> Result<(), String> {
    let run = |tr: &mut Tracer, name: &str, job: u64, seed: u64, oracles: Vec<fuzz::OracleKind>| {
        let cfg = fuzz::FuzzConfig {
            seed,
            cases: plan.fuzz_cases,
            oracles,
            ..Default::default()
        };
        tr.record(name, job, None, || fuzz::run_fuzz(&cfg));
    };
    for (i, &seed) in round.fuzz_seeds.iter().enumerate() {
        let job = i as u64 + 1;
        run(tr, "job.fuzz", job, seed, fuzz::OracleKind::ALL.to_vec());
        run(tr, "fuzz.gen", job, seed, Vec::new());
        for k in fuzz::OracleKind::ALL {
            run(tr, &format!("fuzz.{}", k.label()), job, seed, vec![k]);
        }
    }
    let seeds = format!("{} seeds", round.fuzz_seeds.len());
    let gen = tr.total("fuzz.gen");
    put_noted(out, "fuzz.gen_s", gen, seeds.clone());
    for k in fuzz::OracleKind::ALL {
        let span = format!("fuzz.{}", k.label());
        put_noted(
            out,
            &format!("{span}_s"),
            tr.total(&span) - gen,
            seeds.clone(),
        );
    }
    Ok(())
}
