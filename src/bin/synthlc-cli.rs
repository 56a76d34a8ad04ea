//! `synthlc-cli`: the command-line front end of the reproduction.
//!
//! ```text
//! synthlc-cli pls    <design> [pls opts]      # §V-B1 DUV PL reachability
//! synthlc-cli paths  <design> <instr> [opts]  # RTL2MµPATH for one instruction
//! synthlc-cli leak   <design> <instr> [opts]  # SynthLC signatures + contracts
//! synthlc-cli check  <file.nl> [opts]         # frontend static analysis
//! synthlc-cli lint   [<design>|all]           # static-analysis lint suite
//! synthlc-cli fuzz   [opts]                   # differential-oracle fuzzing
//! synthlc-cli sat    <file.cnf>... [--stats]  # solve DIMACS formulas
//!                    [--incremental]          # ...through one pooled solver
//! synthlc-cli serve  [opts]                   # JSONL verification daemon (§13)
//! synthlc-cli client <addr|port> <op> [args]  # submit one job to the daemon
//! synthlc-cli designs                         # list available designs
//!
//! designs: the `uarch::DESIGNS` registry, as `synthlc-cli designs` lists it.
//! A `<design>` argument that is not a registry name may be a path to a
//! `.nl` netlist file ("bring your own design"): the file runs through the
//! full frontend (lex, parse, resolve, lower, lint) before synthesis.
//! options: --slots 0,1   --bound N   --context any|nocf|solo   --budget N   --jobs N
//!          --deadline-secs N   --journal PATH   --resume PATH   --fault-rate F
//!          --retries N   --fail-on-undetermined   --lint   --deny-warnings
//! pls opts: --bound N   --budget N   --lint   --deny-warnings (any other
//!          option is an error: it applies to `paths`/`leak` only)
//!
//! Every synthesis command lints its design first and aborts on error-level
//! findings (`--deny-warnings` makes warnings fatal too; `--lint` prints the
//! report even when clean).
//!
//! Exit codes (paths/leak): 0 = every property decided; 2 = the run
//! completed but some jobs degraded to Undetermined (deadline, fault, or
//! caught panic; any undetermined at all under --fail-on-undetermined);
//! 1 = hard errors (bad arguments, lint failures, unusable journal).
//!
//! `check` runs the textual-netlist frontend on one `.nl` file:
//! lex/parse (E001–E002), name resolution (E003–E005), lowering with its
//! width/type checks (E006–E013), and the L001–L009 lint suite.
//! --diag-json prints one JSON object per diagnostic; --emit prints the
//! canonical re-emission of a clean module. `check` and `lint` share one
//! exit contract: 0 = clean, 2 = warnings rejected by --deny-warnings,
//! 1 = errors.
//!
//! `fuzz` options: --seed S --cases N --max-cells N --bound N
//! --deadline-secs N --oracles a,b,c (restrict to a subset of: sat, bmc,
//! induction, reductions, ift, text, incremental, cone). The report (JSON,
//! byte-deterministic per seed) goes to stdout. Exit codes: 0 = all
//! oracles agreed; 1 = cross-engine mismatch (minimized repros are in the
//! report); 2 = deadline truncated the run before any mismatch was found.
//!
//! `sat` follows the SAT-competition convention: prints `s SATISFIABLE` /
//! `s UNSATISFIABLE` plus `v` model lines, exits 10 / 20 (0 when a
//! `--budget` ran out first). `--stats` dumps solver counters to stderr.
//! ```
//!
//! Run via `cargo run --release --bin synthlc-cli -- <args>`.

use mc::{CancelToken, CheckStats, FaultPlan, JobStore};
use mupath::{ContextMode, EngineOptions, RobustOptions, SynthConfig};
use netlist::text::CompileResult;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use synthlc::{contracts, Audit, Journal, LeakageReport};
use uarch::Design;

/// Resolves a `<design>` argument through [`uarch::load_design`]. A file
/// the frontend rejects has its rendered diagnostics printed to stderr;
/// a surviving file's report rides along so the caller can apply
/// `--deny-warnings`/`--lint`.
fn load_design(spec: &str) -> Result<(Design, Option<CompileResult>), String> {
    uarch::load_design(spec).map_err(|e| {
        eprint!("{}", e.diagnostics);
        e.message
    })
}

/// Applies the pre-synthesis gate to a design loaded from a `.nl` file,
/// whose frontend report was already computed by [`load_design`].
fn gate_file_report(
    result: &netlist::text::CompileResult,
    design_name: &str,
    deny_warnings: bool,
    verbose: bool,
) -> Result<(), String> {
    let failing = deny_warnings && !result.report.is_clean();
    if failing || verbose {
        eprint!("{}", result.report.render_in(&result.source));
    }
    if failing {
        Err(format!(
            "check failed for {design_name}: {}",
            result.report.summary()
        ))
    } else {
        Ok(())
    }
}

#[derive(Debug)]
struct Opts {
    synth: SynthConfig,
    jobs: usize,
    lint: bool,
    deny_warnings: bool,
    deadline_secs: Option<u64>,
    journal: Option<String>,
    resume: Option<String>,
    fault_rate: f64,
    retries: u32,
    fail_on_undetermined: bool,
}

/// The options `pls` reads: it runs one checker, with no engine, journal
/// or fault plan.
const PLS_OPTS: [&str; 4] = ["--bound", "--budget", "--lint", "--deny-warnings"];

/// The value after `flag` in `it`.
fn value(it: &mut std::slice::Iter<String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value after `flag` in `it`, parsed.
fn parsed<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
) -> Result<T, String> {
    value(it, flag)?.parse().map_err(|_| format!("bad {flag}"))
}

/// Parses the options of `cmd` (`pls`, `paths` or `leak`).
fn parse_opts(args: &[String], design: &Design, cmd: &str) -> Result<Opts, String> {
    let mut o = Opts {
        synth: SynthConfig::for_design(design),
        jobs: 0,
        lint: false,
        deny_warnings: false,
        deadline_secs: None,
        journal: None,
        resume: None,
        fault_rate: 0.0,
        retries: 0,
        fail_on_undetermined: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--slots" => {
                o.synth.slots = value(&mut it, a)?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad slot `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--bound" => o.synth.bound = parsed(&mut it, a)?,
            "--budget" => o.synth.conflict_budget = Some(parsed(&mut it, a)?),
            "--jobs" => o.jobs = parsed(&mut it, a)?,
            "--lint" => o.lint = true,
            "--deny-warnings" => o.deny_warnings = true,
            "--deadline-secs" => {
                o.deadline_secs = Some(serve::parse_deadline_secs(&value(&mut it, a)?)?);
            }
            "--journal" => o.journal = Some(value(&mut it, a)?),
            "--resume" => o.resume = Some(value(&mut it, a)?),
            "--fault-rate" => o.fault_rate = serve::parse_fault_rate(&value(&mut it, a)?)?,
            "--retries" => o.retries = parsed(&mut it, a)?,
            "--fail-on-undetermined" => o.fail_on_undetermined = true,
            "--context" => {
                o.synth.context = match value(&mut it, a)?.as_str() {
                    "any" => ContextMode::Any,
                    "nocf" => ContextMode::NoControlFlow,
                    "solo" => ContextMode::Solo,
                    other => return Err(format!("unknown context `{other}`")),
                };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        if cmd == "pls" && !PLS_OPTS.contains(&a.as_str()) {
            return Err(format!(
                "`{a}` applies to `paths`/`leak`; `pls` takes only {}",
                PLS_OPTS.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Opens the verdict journal named by `--journal` (a fresh one) or
/// `--resume` (an existing one to replay); at most one may be given. The
/// `paths`/`leak` and `serve` subcommands share it.
fn open_journal(
    journal: Option<&str>,
    resume: Option<&str>,
) -> Result<Option<Arc<Journal>>, String> {
    match (journal, resume) {
        (Some(_), Some(_)) => Err("--journal and --resume are mutually exclusive: --journal \
                                   starts a fresh verdict journal, --resume replays an existing one"
            .into()),
        (Some(p), None) => Journal::create(p)
            .map(|j| Some(Arc::new(j)))
            .map_err(|e| format!("cannot create journal {p}: {e}")),
        (None, Some(p)) => Journal::resume(p)
            .map(|j| Some(Arc::new(j)))
            .map_err(|e| format!("cannot resume journal {p}: {e}")),
        (None, None) => Ok(None),
    }
}

/// Assembles the robustness knobs from the CLI options: wall-clock
/// deadline, fault plan (seeded by `SYNTHLC_FAULT_SEED`), journal.
fn robust_opts(o: &Opts) -> Result<RobustOptions, String> {
    let journal = open_journal(o.journal.as_deref(), o.resume.as_deref())?;
    Ok(RobustOptions {
        cancel: o
            .deadline_secs
            .map(|s| Arc::new(CancelToken::deadline_in(Duration::from_secs(s)))),
        faults: FaultPlan::new(FaultPlan::env_seed(), o.fault_rate),
        journal: journal.map(|j| j as Arc<dyn JobStore>),
        retries: o.retries,
    })
}

/// Prints the one-line degradation summary and returns the exit code the
/// run has earned: 2 when the report [degraded](LeakageReport::degraded)
/// (or, under `--fail-on-undetermined`, when any property at all went
/// undetermined), 0 otherwise. The `degraded:` prefix is reserved for runs
/// that actually carry a widened verdict — a run whose every retry
/// recovered (and any resumed-from-journal jobs) reports under a neutral
/// `recovered:` heading instead, so scripts grepping for `degraded:` see
/// no false positives.
fn degradation_exit(o: &Opts, report: &LeakageReport) -> ExitCode {
    let stats = report.stats();
    let &LeakageReport {
        degraded_jobs,
        resumed_jobs,
        retried_jobs,
        cone_misses,
        ..
    } = report;
    // Journaled runs report the cone-granular cache economy (DESIGN.md
    // §14): hits replay byte-identical verdicts for cones whose
    // fingerprint is unchanged, misses re-solve. Non-journal runs count
    // nothing and print nothing.
    if resumed_jobs > 0 || cone_misses > 0 {
        println!("cone cache: {resumed_jobs} hit(s), {cone_misses} miss(es)");
    }
    if degraded_jobs > 0 || stats.undetermined > 0 {
        println!(
            "degraded: {degraded_jobs} job(s) [budget={} deadline={} panicked={} fault={}], \
             resumed: {resumed_jobs} job(s), retried: {retried_jobs} attempt(s)",
            stats.undet_budget, stats.undet_deadline, stats.undet_panicked, stats.undet_fault
        );
    } else if resumed_jobs > 0 || retried_jobs > 0 {
        println!("recovered: {resumed_jobs} resumed job(s), {retried_jobs} retry attempt(s)");
    }
    if report.degraded() || (o.fail_on_undetermined && stats.undetermined > 0) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// One-line learnt-database summary of the solver work behind a run
/// (tier gauges are live values from the last query; counters are
/// lifetime totals across all checkers the run absorbed). The reuse
/// block reports the incremental-solving economy: batches run on a
/// context-chain checker already warm instead of a fresh one, unrolling
/// frames grown in place vs. built from scratch, and learnt clauses
/// alive at batch handoff (see DESIGN.md §12).
fn solver_summary(stats: &CheckStats) -> String {
    format!(
        "solver: learnts {}/{}/{} (core/mid/local), {} binaries, \
         {} deleted, {} subsumed, {} strengthened, avg LBD {:.1} (max {}), \
         {} trail reuses ({} levels), reuse: {} ctx, {} frames extended \
         / {} rebuilt, {} learnts carried",
        stats.sat_learnt_core,
        stats.sat_learnt_mid,
        stats.sat_learnt_local,
        stats.sat_binary_clauses,
        stats.sat_clauses_deleted,
        stats.sat_subsumed,
        stats.sat_strengthened,
        stats.sat_avg_lbd(),
        stats.sat_max_lbd,
        stats.sat_trail_reuses,
        stats.sat_reused_levels,
        stats.ctx_reused,
        stats.frames_extended,
        stats.frames_rebuilt,
        stats.learnts_carried
    )
}

/// Lints one design; returns an error message when findings exceed the
/// acceptable severity (`Error` always; `Warning` too under
/// `deny_warnings`). Verbose mode prints the full report even when clean.
fn lint_one(design: &Design, deny_warnings: bool, verbose: bool) -> Result<(), String> {
    let report = uarch::lint_design(design);
    let failing = report.has_errors() || (deny_warnings && !report.is_clean());
    if failing || verbose {
        print!("{}", report.render());
        println!();
    }
    if failing {
        Err(format!(
            "lint failed for {}: {}",
            design.name,
            report.summary()
        ))
    } else {
        Ok(())
    }
}

fn cmd_lint<'a>(
    designs: impl IntoIterator<Item = (&'a str, Design)>,
    deny_warnings: bool,
) -> ExitCode {
    let mut worst = 0u8;
    for (name, design) in designs {
        println!("== {name} ==");
        let report = uarch::lint_design(&design);
        print!("{}", report.render());
        println!();
        worst = worst.max(report.exit_code(deny_warnings));
    }
    ExitCode::from(worst)
}

/// Runs the textual frontend on one `.nl` file (the `check` subcommand):
/// full pipeline plus lints, diagnostics rendered with source snippets
/// (or as JSON lines under `--diag-json`), the canonical re-emission on
/// stdout under `--emit`. Exit: 0 clean, 2 warnings under
/// `--deny-warnings`, 1 errors.
fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut path: Option<String> = None;
    let mut deny_warnings = false;
    let mut json = false;
    let mut emit = false;
    for a in args {
        match a.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--diag-json" => json = true,
            "--emit" => emit = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_owned()),
            other => return Err(format!("unknown check option `{other}`")),
        }
    }
    let path = path.ok_or("`check` needs a .nl file path")?;
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let (_, result) = uarch::frontend::check(&src, &path);
    if json {
        print!("{}", result.report.to_json_lines(Some(&result.source)));
    } else if !result.report.is_clean() {
        eprint!("{}", result.report.render_in(&result.source));
    }
    let code = result.report.exit_code(deny_warnings);
    if code != 1 {
        if let (true, Some(module)) = (emit, &result.module) {
            print!(
                "{}",
                netlist::text::emit_module(&netlist::text::ModuleText {
                    name: &module.name,
                    netlist: &module.netlist,
                    annotations: module.annotations.as_ref(),
                    harness: module.harness.as_ref(),
                })
            );
        } else if let (false, 0, Some(module)) = (json, code, &result.module) {
            println!(
                "{path}: ok ({} nodes, {} flop bits, {})",
                module.netlist.len(),
                module.netlist.state_bits(),
                result.report.summary()
            );
        }
    }
    Ok(ExitCode::from(code))
}

fn cmd_pls(design: &Design, o: &Opts) {
    let report = mupath::duv_pl_reachability(design, &o.synth);
    println!("{} performing locations:", report.pls.len());
    for pl in report.pls.ids() {
        println!(
            "  {:<12} {}",
            report.pls.name(pl),
            if report.reachable[pl.index()] {
                "reachable"
            } else {
                "UNREACHABLE"
            }
        );
    }
    let s = report.stats;
    println!("({} properties, {:.2}s avg)", s.properties, s.avg_seconds());
}

/// Runs `paths` or `leak` through [`synthlc::audit`] and renders its
/// report as text.
fn cmd_audit(design: &Design, op: isa::Opcode, audit: Audit, o: &Opts) -> Result<ExitCode, String> {
    let engine = EngineOptions {
        threads: o.jobs,
        budget_pool: None,
        robust: robust_opts(o)?,
    };
    let report = synthlc::audit(design, op, audit, &o.synth, engine);
    if audit == Audit::Paths {
        let r = &report.mupath[0];
        println!(
            "{op}: {} µPATH(s), complete = {}",
            r.paths.len(),
            r.complete
        );
        let pls = mupath::PlClasses::of(design).pls;
        for (i, p) in r.concrete.iter().enumerate() {
            println!(
                "\nµPATH {i} (latency {} cycles):\n{}",
                p.latency(),
                p.render(&pls)
            );
        }
        for d in &r.decisions {
            println!("decision: {}", d.describe(&pls));
        }
        println!(
            "\n{} properties, {:.2}s avg, {:.1}% undetermined",
            r.stats.properties,
            r.stats.avg_seconds(),
            r.stats.undetermined_pct()
        );
    }
    println!("{}", solver_summary(&report.stats()));
    let exit = degradation_exit(o, &report);
    if audit == Audit::Leak {
        if report.signatures.is_empty() {
            println!("{op}: no leakage signatures (not a transponder, or no tagged decisions)");
            return Ok(exit);
        }
        println!("leakage signatures for {op}:");
        for s in &report.signatures {
            println!("  {}", s.render());
        }
        let c = contracts::derive_contracts(&report);
        println!("\n{}", contracts::render_table1(&c));
    }
    Ok(exit)
}

/// Parses and runs the `fuzz` subcommand: seeded differential fuzzing of
/// the solver / model-checker / simulator / IFT stack (DESIGN.md §9).
fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = fuzz::FuzzConfig {
        cases: 64,
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => cfg.seed = parsed(&mut it, a)?,
            "--cases" => cfg.cases = parsed(&mut it, a)?,
            "--max-cells" => cfg.gen.max_cells = parsed(&mut it, a)?,
            "--bound" => cfg.bound = parsed(&mut it, a)?,
            "--deadline-secs" => {
                let secs = serve::parse_deadline_secs(&value(&mut it, a)?)?;
                cfg.deadline = Some(Arc::new(CancelToken::deadline_in(Duration::from_secs(
                    secs,
                ))));
            }
            "--oracles" => {
                cfg.oracles = value(&mut it, a)?
                    .split(',')
                    .map(|s| {
                        fuzz::OracleKind::from_label(s.trim()).ok_or_else(|| {
                            let known: Vec<&str> =
                                fuzz::OracleKind::ALL.iter().map(|k| k.label()).collect();
                            format!("unknown oracle `{s}` (known: {})", known.join(" "))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
    }
    let report = fuzz::run_fuzz(&cfg);
    print!("{}", report.render());
    if report.has_mismatches() {
        for repro in &report.mismatches {
            eprintln!("repro: {}", repro.encode());
        }
        eprintln!(
            "error: {} cross-engine mismatch(es) — replay with `synthlc-cli fuzz --seed {}`",
            report.mismatches.len(),
            report.seed
        );
        return Ok(ExitCode::FAILURE);
    }
    if !report.completed {
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses and runs the `sat` subcommand: solves one DIMACS CNF with the
/// CDCL core, printing the competition-style answer and model. Exit
/// codes follow the SAT-competition convention (10 = SAT, 20 = UNSAT,
/// 0 = undetermined, 1 = bad file / bad arguments). With
/// `--incremental`, several files are loaded into *one* persistent
/// solver — each file's clauses guarded by a private activation literal
/// and queried via `solve_assuming` — so learnt clauses accumulate
/// across the corpus exactly as they do in the pooled checker contexts;
/// verdicts per file must match the one-shot path.
fn cmd_sat(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut show_stats = false;
    let mut incremental = false;
    let mut budget: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => show_stats = true,
            "--incremental" => incremental = true,
            "--budget" => budget = Some(parsed(&mut it, a)?),
            other if !other.starts_with("--") => paths.push(other.to_owned()),
            other => return Err(format!("unknown sat option `{other}`")),
        }
    }
    if incremental {
        return sat_incremental(&paths, budget, show_stats);
    }
    if paths.len() > 1 {
        return Err("multiple DIMACS files need --incremental".into());
    }
    let path = paths.pop().ok_or("`sat` needs a DIMACS file path")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let cnf = sat::dimacs::parse_dimacs(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut solver = cnf.to_solver();
    solver.set_conflict_budget(budget);
    let result = solver.solve();
    println!("s {}", result.answer());
    if result.is_sat() {
        // DIMACS model lines: 1-based signed literals, 0-terminated.
        let mut line = String::from("v");
        for i in 0..cnf.num_vars {
            let v = sat::Var(i as u32);
            let positive = solver.value(v).unwrap_or(false);
            let tok = format!(" {}{}", if positive { "" } else { "-" }, i + 1);
            if line.len() + tok.len() > 78 {
                println!("{line}");
                line = String::from("v");
            }
            line.push_str(&tok);
        }
        println!("{line} 0");
    }
    if show_stats {
        let st = solver.stats();
        eprintln!(
            "c vars {} clauses {} conflicts {} propagations {} decisions {} restarts {}",
            cnf.num_vars,
            cnf.clauses.len(),
            st.conflicts,
            st.propagations,
            st.decisions,
            st.restarts
        );
        eprintln!(
            "c learnts {} (core {} mid {} local {}) binaries {} deleted {} \
             subsumed {} strengthened {} blocked-restarts {} avg-lbd {:.2} max-lbd {}",
            st.learnts,
            st.learnt_core,
            st.learnt_mid,
            st.learnt_local,
            st.binary_clauses,
            st.clauses_deleted,
            st.subsumed,
            st.strengthened,
            st.blocked_restarts,
            st.avg_lbd(),
            st.max_lbd
        );
    }
    Ok(sat_exit_code(result))
}

fn sat_exit_code(result: sat::SolveResult) -> ExitCode {
    match result {
        sat::SolveResult::Sat => ExitCode::from(10),
        sat::SolveResult::Unsat => ExitCode::from(20),
        sat::SolveResult::Unknown => ExitCode::SUCCESS,
    }
}

/// `sat --incremental`: the whole corpus through one pooled solver. Each
/// file's variables are mapped into a shared space and its clauses are
/// guarded by a fresh activation literal `a_i` (stored as `!a_i ∨ c`),
/// so `solve_assuming([a_i])` answers file `i` while clauses learned on
/// earlier files stay live — the CLI face of the checker's
/// assumption-based incremental discipline (DESIGN.md §12). One verdict
/// line per file; the exit code follows the SAT-competition convention
/// for the *last* file, so single-file invocations keep their one-shot
/// exit codes.
fn sat_incremental(
    paths: &[String],
    budget: Option<u64>,
    show_stats: bool,
) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("`sat --incremental` needs at least one DIMACS file path".into());
    }
    let mut solver = sat::Solver::new();
    let mut queries: Vec<(String, sat::Lit)> = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let cnf = sat::dimacs::parse_dimacs(&text).map_err(|e| format!("{path}: {e}"))?;
        let base: Vec<sat::Var> = (0..cnf.num_vars).map(|_| solver.new_var()).collect();
        let act = solver.new_var();
        for c in &cnf.clauses {
            let mut guarded = Vec::with_capacity(c.len() + 1);
            guarded.push(sat::Lit::neg(act));
            guarded.extend(
                c.iter()
                    .map(|l| sat::Lit::new(base[l.var().0 as usize], l.is_pos())),
            );
            solver.add_clause(&guarded);
        }
        queries.push((path.clone(), sat::Lit::pos(act)));
    }
    let mut last = sat::SolveResult::Unknown;
    for (path, act) in &queries {
        solver.set_conflict_budget(budget);
        last = solver.solve_assuming(&[*act]);
        println!("{path}: s {}", last.answer());
    }
    if show_stats {
        let st = solver.stats();
        eprintln!(
            "c pooled: {} files, {} vars, conflicts {} propagations {} \
             learnts {} (core {} mid {} local {})",
            queries.len(),
            solver.num_vars(),
            st.conflicts,
            st.propagations,
            st.learnts,
            st.learnt_core,
            st.learnt_mid,
            st.learnt_local
        );
    }
    Ok(sat_exit_code(last))
}

/// Parses and runs the `serve` subcommand: the long-lived verification
/// daemon (DESIGN.md §13). Blocks until SIGINT/SIGTERM or a client
/// `shutdown` request, then drains the queue and exits.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = serve::ServeConfig::default();
    let mut port = 0u16;
    let mut journal: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut fault_rate = 0.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => port = parsed(&mut it, a)?,
            "--workers" => cfg.workers = parsed(&mut it, a)?,
            "--queue-cap" => {
                cfg.queue_cap = parsed(&mut it, a)?;
                if cfg.queue_cap == 0 {
                    return Err("--queue-cap must be at least 1 (a zero-capacity \
                                queue sheds every job)"
                        .into());
                }
            }
            "--retries" => cfg.retries = parsed(&mut it, a)?,
            "--deadline-secs" => {
                cfg.deadline_secs = Some(serve::parse_deadline_secs(&value(&mut it, a)?)?);
            }
            "--fault-rate" => fault_rate = serve::parse_fault_rate(&value(&mut it, a)?)?,
            "--backoff-ms" => cfg.backoff_ms = parsed(&mut it, a)?,
            "--client-budget" => cfg.client_budget = Some(parsed(&mut it, a)?),
            "--journal" => journal = Some(value(&mut it, a)?),
            "--resume" => resume = Some(value(&mut it, a)?),
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    if fault_rate > 0.0 {
        cfg.faults = mc::FaultPlan::new(mc::FaultPlan::env_seed(), fault_rate);
    }
    let store = open_journal(journal.as_deref(), resume.as_deref())?;
    let code = serve::serve_tcp(cfg, store, port).map_err(|e| format!("serve failed: {e}"))?;
    Ok(ExitCode::from(code))
}

/// Parses and runs the `client` subcommand: submits one job (or a
/// `stats`/`shutdown` control request) to a running daemon and streams
/// its events to stdout. Exit code is the job's verdict exit.
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let addr_arg = args
        .first()
        .ok_or("`client` needs a daemon address (HOST:PORT, or a bare PORT for 127.0.0.1)")?;
    let addr = if addr_arg.contains(':') {
        addr_arg.clone()
    } else {
        format!("127.0.0.1:{addr_arg}")
    };
    let op_label = args
        .get(1)
        .ok_or("`client` needs an op (paths leak check fuzz stats shutdown)")?;
    let mut req = serve::Request::new(match op_label.as_str() {
        "paths" => serve::Op::Paths,
        "leak" => serve::Op::Leak,
        "check" => serve::Op::Check,
        "fuzz" => serve::Op::Fuzz,
        "stats" => serve::Op::Stats,
        "shutdown" => serve::Op::Shutdown,
        other => {
            return Err(format!(
                "unknown op `{other}` (known: paths leak check fuzz stats shutdown)"
            ))
        }
    });
    let mut rest = &args[2..];
    // `paths`/`leak` take positional <design> <instr> before flags.
    if matches!(req.op, serve::Op::Paths | serve::Op::Leak) {
        let design = rest
            .first()
            .ok_or_else(|| format!("`client {op_label}` needs a design name"))?;
        let instr = rest
            .get(1)
            .ok_or_else(|| format!("`client {op_label}` needs an instruction mnemonic"))?;
        req.design = Some(design.clone());
        req.instr = Some(instr.clone());
        rest = &rest[2..];
    }
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--id" => req.id = value(&mut it, a)?,
            "--client" => req.client = value(&mut it, a)?,
            "--bound" => req.bound = Some(parsed(&mut it, a)?),
            "--budget" => req.budget = Some(parsed(&mut it, a)?),
            "--seed" => req.seed = parsed(&mut it, a)?,
            "--cases" => req.cases = parsed(&mut it, a)?,
            "--source-file" => {
                let p = value(&mut it, a)?;
                req.source =
                    Some(std::fs::read_to_string(&p).map_err(|e| format!("cannot read {p}: {e}"))?);
            }
            other => return Err(format!("unknown client option `{other}`")),
        }
    }
    if req.op == serve::Op::Check && req.source.is_none() {
        return Err("`client check` needs --source-file <file.nl>".into());
    }
    let code = serve::run_client(&addr, &[req])
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    Ok(ExitCode::from(code))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "designs" => {
            for (name, build) in uarch::DESIGNS {
                let design = build();
                println!(
                    "{name:<14} {:>5} nodes {:>4} flop bits  {} µFSMs",
                    design.netlist.len(),
                    design.netlist.state_bits(),
                    design.annotations.ufsms.len()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "lint" => {
            let deny = args.iter().any(|a| a == "--deny-warnings");
            Ok(match args.get(1).map(String::as_str).unwrap_or("all") {
                "all" => cmd_lint(uarch::DESIGNS.iter().map(|&(n, build)| (n, build())), deny),
                spec => cmd_lint([(spec, load_design(spec)?.0)], deny),
            })
        }
        "check" => cmd_check(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "sat" => cmd_sat(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "pls" | "paths" | "leak" => {
            let dname = args
                .get(1)
                .ok_or_else(|| format!("`{cmd}` needs a design name"))?;
            let (design, file_result) = load_design(dname)?;
            let gate = |o: &Opts| -> Result<(), String> {
                match &file_result {
                    Some(result) => gate_file_report(result, &design.name, o.deny_warnings, o.lint),
                    None => lint_one(&design, o.deny_warnings, o.lint),
                }
            };
            if cmd == "pls" {
                let o = parse_opts(&args[2..], &design, cmd)?;
                gate(&o)?;
                cmd_pls(&design, &o);
                return Ok(ExitCode::SUCCESS);
            }
            let iname = args
                .get(2)
                .ok_or_else(|| format!("`{cmd}` needs an instruction mnemonic"))?;
            let op = design
                .opcode(iname)
                .ok_or_else(|| format!("`{iname}` is not implemented by {dname}"))?;
            let o = parse_opts(&args[3..], &design, cmd)?;
            gate(&o)?;
            let audit = if cmd == "paths" {
                Audit::Paths
            } else {
                Audit::Leak
            };
            cmd_audit(&design, op, audit, &o)
        }
        _ => {
            println!(
                "usage:\n  synthlc-cli designs\n  synthlc-cli lint [<design>|all] [--deny-warnings]\n  \
                 synthlc-cli check <file.nl> [--deny-warnings] [--diag-json] [--emit]\n  \
                 synthlc-cli pls <design> [--bound N] [--budget N] [--lint] [--deny-warnings]\n  \
                 synthlc-cli paths <design> <instr> [opts]\n  synthlc-cli leak <design> <instr> [opts]\n  \
                 synthlc-cli fuzz [--seed S] [--cases N] [--max-cells N] [--bound N] [--deadline-secs N] [--oracles a,b]\n  \
                 synthlc-cli sat <file.cnf>... [--incremental] [--stats] [--budget N]  (exit 10 SAT / 20 UNSAT / 0 unknown)\n  \
                 synthlc-cli serve [--port P] [--workers N] [--queue-cap N] [--retries N]\n      \
                 [--deadline-secs N] [--fault-rate F] [--backoff-ms N] [--client-budget N]\n      \
                 [--journal PATH | --resume PATH]  (JSONL daemon; SIGINT drains and exits)\n  \
                 synthlc-cli client <addr|port> <op> [<design> <instr>] [--id I] [--client C]\n      \
                 [--bound N] [--budget N] [--seed S] [--cases N] [--source-file F.nl]\n      \
                 (ops: paths leak check fuzz stats shutdown; exit 75 = shed, resubmit)\n\
                 \ndesigns: {}\n\
                 (a <design> may also be a path to a .nl netlist file)\n\
                 opts: --slots 0,1  --bound N  --context any|nocf|solo  --budget N  --jobs N\n      \
                 --deadline-secs N (degrade, don't hang, past the wall clock)\n      \
                 --journal PATH (checkpoint verdicts)  --resume PATH (replay a journal)\n      \
                 --fault-rate F (inject faults, seed SYNTHLC_FAULT_SEED)\n      \
                 --retries N (re-run degraded jobs up to N times before the verdict stands)\n      \
                 --fail-on-undetermined (exit 2 on any undetermined outcome)\n      \
                 --lint (print lint report)  --deny-warnings (lint warnings are fatal)\n\
                 \nexit codes: 0 all decided; 2 degraded/undetermined; 1 hard error\n\
                 lint/check: 0 clean; 2 warnings under --deny-warnings; 1 errors",
                uarch::DESIGNS.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(" ")
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
