//! The three workloads. A run is a few rounds; every round starts a fresh
//! `synthlc-cli serve` daemon with an empty verdict store, sets it up with
//! real solver jobs, then drives the round's share of the timed stream
//! through one connection with one outstanding job.

use crate::daemon::{host_ticks, Daemon, Reply};
use crate::layers::Tracer;
use jsonio::Json;
use prng::Rng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Expected verdicts of every job class, hand-checked against
/// EXPERIMENTS.md ("Cache static transmitters"): MiniCache's loads are
/// static transmitters, `lw_lkup(…, lw^S.rs1, …)`.
pub const EXPECTED: &str = include_str!("../expected.json");

/// MiniCache registers that hold data only: editing their reset value
/// leaves every cone the `lw` queries read untouched.
pub const DATA_REGS: [&str; 6] = [
    "rsp_data", "wb_data", "rf_data", "wk0_data", "bank0[1]", "bmem[3]",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's flow: `leak minicache lw` after `paths`, solver-bound.
    LeakCold,
    /// Re-verification after out-of-cone RTL edits: solver-free.
    EditWarm,
    /// Differential fuzzing of many tiny designs: nothing shared or cached.
    FuzzSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LeakCold, Workload::EditWarm, Workload::FuzzSweep];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LeakCold => "leak_cold",
            Workload::EditWarm => "edit_warm",
            Workload::FuzzSweep => "fuzz_sweep",
        }
    }

    /// The job class whose round trips are `latency_ms`.
    pub fn main_class(self) -> &'static str {
        match self {
            Workload::LeakCold => "leak",
            Workload::EditWarm => "edit",
            Workload::FuzzSweep => "fuzz",
        }
    }
}

/// The BMC bound of the MiniCache jobs: its maximum latency plus 8, as
/// the one-shot CLI picks it.
const MINICACHE_BOUND: u64 = 18;

/// Per-query conflict budget of the MiniCache jobs.
pub const BUDGET: u64 = 2_000_000;

/// Requests answered inline after a traced round's stream, with
/// `TCP_QUICKACK` off, to measure the delayed-ACK stall.
const STALL_PROBES: usize = 16;

/// Sizes of one run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Fresh-daemon rounds per run; `setup_s` is their median set-up.
    pub rounds: usize,
    /// Timed-stream length of one round (the run's `--seconds` split
    /// evenly over its rounds). Every round runs at least one timed job.
    pub slice: Duration,
    /// Fixed timed-stream length of traced rounds, so their exact counts
    /// repeat run to run.
    pub traced_jobs: usize,
    /// Store-hit resubmissions after the stream (`leak_cold`, `fuzz_sweep`).
    pub hit_probes: usize,
    /// BMC bound of every `paths`/`leak` request. Requests carry it and
    /// [`BUDGET`] explicitly, so the traced replay runs with the same knobs
    /// as the daemon without knowing its defaults.
    pub bound: u64,
    /// Cases per timed `fuzz` job.
    pub fuzz_cases: u64,
    /// Cases of the untimed warm-up `fuzz` job.
    pub warmup_cases: u64,
    /// Edited designs written per `edit_warm` round.
    pub edits: usize,
}

impl Plan {
    pub fn new(w: Workload, seconds: f64, smoke: bool) -> Plan {
        // A `leak_cold` round times a single ~8 s job, whose CPU time alone
        // varies by ±15% on a shared host, so that workload takes a median
        // over four rounds. `fuzz_sweep` store hits take ~0.1 ms of thread
        // hand-offs whose cost depends on where the daemon's threads run,
        // so that workload pools four fresh daemons. `edit_warm` has the
        // longest set-up and fills its time slice in two rounds.
        let rounds = match w {
            _ if smoke => 2,
            Workload::LeakCold | Workload::FuzzSweep => 4,
            Workload::EditWarm => 2,
        };
        let slice = Duration::from_secs_f64(seconds / rounds as f64);
        if smoke {
            Plan {
                rounds,
                slice,
                traced_jobs: 8,
                hit_probes: 6,
                bound: 12,
                fuzz_cases: 4,
                warmup_cases: 8,
                edits: 40,
            }
        } else {
            Plan {
                rounds,
                slice,
                traced_jobs: if w == Workload::FuzzSweep { 16 } else { 64 },
                hit_probes: 100,
                bound: MINICACHE_BOUND,
                fuzz_cases: 32,
                // Enough tiny designs that the set-up time of one seed is
                // close to that of another.
                warmup_cases: 512,
                edits: 1200,
            }
        }
    }
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup: Duration,
    /// Round trips of the workload's main job class, in ms.
    pub main: Vec<f64>,
    /// Round trips of store-hit resubmissions, in ms.
    pub hits: Vec<f64>,
    /// Round trips of inline `stats` requests (traced rounds), in ms,
    /// with and without `TCP_QUICKACK`.
    pub stats_rtt: Vec<f64>,
    pub stall_rtt: Vec<f64>,
    /// Wall time of the timed stream (without resubmissions), and the
    /// verification cases it finished (fuzz cases, or `leak` jobs).
    pub stream_s: f64,
    pub cases: u64,
    /// Properties decided and evaluated (`leak` payloads), or completed
    /// and submitted sweeps (`fuzz` payloads).
    pub decided: u64,
    pub evaluated: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Broken mechanism guards and failed jobs, one line each.
    pub problems: Vec<String>,
    /// Daemon CPU time and jobs over the timed phase.
    pub cpu_ms: f64,
    pub timed_jobs: u64,
    /// Host steal and total ticks over the timed phase.
    pub steal_ticks: u64,
    pub total_ticks: u64,
    pub rss_mb: f64,
    /// The `stats` event at the end of the round.
    pub stats: Option<Json>,
    /// Event lines received and verdict-store lines left behind.
    pub lines: Vec<String>,
    pub store_lines: Vec<String>,
    /// Inputs the traced replay reuses: edited designs submitted and the
    /// ones written but not submitted; fuzz seeds of the timed stream.
    pub edits_run: Vec<PathBuf>,
    pub edits_spare: Vec<PathBuf>,
    pub fuzz_seeds: Vec<u64>,
    /// The round's directory (store copy, inputs).
    pub dir: PathBuf,
}

/// Everything a round needs.
pub struct Ctx<'a> {
    pub cli: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub plan: &'a Plan,
    pub expected: &'a Json,
}

/// A daemon plus the round's bookkeeping.
struct RoundState<'t> {
    d: Daemon,
    out: Round,
    tracer: &'t mut Tracer,
    round_span: usize,
    fixed: bool,
    traced: bool,
    n: u64,
}

impl RoundState<'_> {
    /// Submits one job of `class`, counting it, and fails the job when
    /// the daemon errors, sheds, or exits non-zero.
    fn submit(
        &mut self,
        class: &str,
        op: &str,
        fields: Vec<(&str, Json)>,
    ) -> Result<Reply, String> {
        self.n += 1;
        let id = format!("{class}-{}", self.n);
        let mut req = vec![
            ("op", Json::str(op)),
            ("id", Json::str(&id)),
            ("client", Json::str(class)),
        ];
        req.extend(fields);
        let req = Json::obj(req);
        let (n, parent) = (self.n, self.round_span);
        let d = &mut self.d;
        let reply = if self.traced {
            self.tracer
                .record(&format!("serve.{class}"), n, Some(parent), || {
                    d.request(&req)
                })?
        } else {
            d.request(&req)?
        };
        self.out.attempted += 1;
        if reply.exit() != Some(0) {
            self.out.failed += 1;
            self.out.problems.push(format!(
                "{id}: {} {}",
                reply.ev,
                reply.body.render_compact()
            ));
        }
        if self.traced {
            let t = self.d.stats()?;
            self.out.stats_rtt.push(ms(t.latency));
        }
        Ok(reply)
    }

    /// Counts a verdict mismatch as a failed job.
    fn check(&mut self, reply: &Reply, ok: bool, what: &str) {
        if !ok && reply.exit() == Some(0) {
            self.out.failed += 1;
            self.out.problems.push(format!(
                "verdict mismatch ({what}): {}",
                reply.body.render_compact()
            ));
        }
    }

    fn guard(&mut self, ok: bool, what: String) {
        if !ok {
            self.out
                .problems
                .push(format!("mechanism guard broken: {what}"));
        }
    }

    fn stream_continues(&self, plan: &Plan, started: Instant, jobs: usize) -> bool {
        if self.fixed {
            jobs < plan.traced_jobs
        } else {
            jobs == 0 || started.elapsed() < plan.slice
        }
    }

    /// Ends the round: final counters, host and process readings, a
    /// graceful shutdown, and the store the daemon leaves behind.
    fn finish(mut self, timed: &TimedStart) -> Result<Round, String> {
        let stats = self.d.stats()?;
        self.out.cpu_ms = self.d.cpu_ms() - timed.cpu_ms;
        let (steal, total) = host_ticks();
        self.out.steal_ticks = steal - timed.steal;
        self.out.total_ticks = total - timed.total;
        self.out.rss_mb = self.d.peak_rss_mb();
        self.out.stats = Some(stats.body);
        self.out.lines = std::mem::take(&mut self.d.lines);
        let store = self.d.store.clone();
        let code = self.d.shutdown()?;
        if code != 0 {
            self.out.problems.push(format!("daemon exited with {code}"));
        }
        let text =
            std::fs::read_to_string(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        self.out.store_lines = text.lines().map(str::to_owned).collect();
        Ok(self.out)
    }
}

struct TimedStart {
    cpu_ms: f64,
    steal: u64,
    total: u64,
}

impl TimedStart {
    fn now(d: &Daemon) -> TimedStart {
        let (steal, total) = host_ticks();
        TimedStart {
            cpu_ms: d.cpu_ms(),
            steal,
            total,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats.field(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The sum of `key` (`conflicts` or `propagations`) over the named
/// clients of a `stats` event's per-client ledger.
pub fn ledger(stats: &Json, clients: &[&str], key: &str) -> u64 {
    stats
        .field("clients")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|c| {
            c.field("name")
                .and_then(Json::as_str)
                .is_some_and(|n| clients.contains(&n))
        })
        .filter_map(|c| c.field(key).and_then(Json::as_u64))
        .sum()
}

/// A seed stream for one (run seed, round, purpose).
fn rng(seed: u64, round: usize, purpose: u64) -> Rng {
    Rng::new(
        seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ purpose.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// The `paths`/`leak` request fields for `design` (a built-in name or a
/// `.nl` path).
pub fn design_job(design: &str, plan: &Plan) -> Vec<(&'static str, Json)> {
    vec![
        ("design", Json::str(design)),
        ("instr", Json::str("lw")),
        ("bound", Json::Int(plan.bound)),
        ("budget", Json::Int(BUDGET)),
    ]
}

fn fuzz_job(seed: u64, cases: u64) -> Vec<(&'static str, Json)> {
    vec![("seed", Json::Int(seed)), ("cases", Json::Int(cases))]
}

fn same(reply: &Reply, want: Option<&Json>) -> bool {
    want.is_some_and(|w| reply.body.render_compact() == w.render_compact())
}

/// Decided and evaluated properties of a `leak`/`paths` payload.
fn decided(body: &Json) -> (u64, u64) {
    let p = body.field("properties").and_then(Json::as_u64).unwrap_or(0);
    let u = body
        .field("undetermined")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    (p.saturating_sub(u), p)
}

/// Whether a `fuzz` payload is the clean verdict for `(seed, cases)`.
fn fuzz_ok(body: &Json, seed: u64, cases: u64, expected: &Json) -> bool {
    let want = expected.field("fuzz");
    body.field("seed").and_then(Json::as_u64) == Some(seed)
        && body.field("cases").and_then(Json::as_u64) == Some(cases)
        && ["mismatches", "completed", "exit"].iter().all(|k| {
            want.and_then(|w| w.field(k))
                .is_some_and(|w| body.field(k) == Some(w))
        })
}

/// Runs round `r` of workload `w`. A `fixed` round runs a fixed number of
/// timed jobs instead of filling its time slice; a `traced` one also
/// records a span per request and sends an inline `stats` after every job.
pub fn run_round(
    w: Workload,
    ctx: &Ctx,
    r: usize,
    tracer: &mut Tracer,
    fixed: bool,
    traced: bool,
) -> Result<Round, String> {
    let dir = ctx.work.join(format!("r{r}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Round {
        dir: dir.clone(),
        ..Round::default()
    };
    if w == Workload::EditWarm {
        let (run, spare) = write_edits(ctx, r, &dir)?;
        out.edits_run = run;
        out.edits_spare = spare;
    }
    // Set-up time runs from daemon spawn; writing the inputs is not in it.
    let t0 = Instant::now();
    let d = Daemon::spawn(ctx.cli, dir.join("store.jsonl"), &dir.join("daemon.log"))?;
    let round_span = tracer.open(&format!("round.{r}"), 0, None);
    let mut s = RoundState {
        d,
        out,
        tracer,
        round_span,
        fixed,
        traced,
        n: 0,
    };
    let result = match w {
        Workload::LeakCold => leak_cold(&mut s, ctx, t0),
        Workload::EditWarm => edit_warm(&mut s, ctx, r, t0),
        Workload::FuzzSweep => fuzz_sweep(&mut s, ctx, r, t0),
    };
    s.tracer.close(round_span);
    let timed = result?;
    if traced {
        s.d.quickack = false;
        for _ in 0..STALL_PROBES {
            let t = s.d.stats()?;
            s.out.stall_rtt.push(ms(t.latency));
        }
        s.d.quickack = true;
    }
    s.finish(&timed)
}

/// Set-up: `paths minicache lw` on a fresh store. Timed: the `leak` job,
/// which replays its µPATH cones from set-up and solves its IFT cones
/// cold; then store-hit resubmissions of it.
fn leak_cold(s: &mut RoundState, ctx: &Ctx, t0: Instant) -> Result<TimedStart, String> {
    let plan = ctx.plan;
    let paths = s.submit("setup", "paths", design_job("minicache", plan))?;
    s.check(&paths, same(&paths, ctx.expected.field("paths")), "paths");
    s.out.setup = t0.elapsed();
    let timed = TimedStart::now(&s.d);
    let started = Instant::now();
    let leak = s.submit("leak", "leak", design_job("minicache", plan))?;
    s.out.stream_s = started.elapsed().as_secs_f64();
    s.check(&leak, same(&leak, ctx.expected.field("leak")), "leak");
    s.out.main.push(ms(leak.latency));
    s.out.cases += 1;
    let (dec, eval) = decided(&leak.body);
    s.out.decided += dec;
    s.out.evaluated += eval;
    let cones = leak.cones();
    s.guard(
        matches!(cones, Some((h, m)) if h > 0 && m > 0),
        format!("leak must replay µPATH cones and solve IFT cones, got {cones:?}"),
    );
    for _ in 0..plan.hit_probes {
        resubmit(
            s,
            "leak",
            design_job("minicache", plan),
            ctx.expected.field("leak"),
        )?;
    }
    s.out.timed_jobs = 1 + plan.hit_probes as u64;
    Ok(timed)
}

/// Resubmits an earlier job, which must be answered from the verdict store
/// with its original verdict.
fn resubmit(
    s: &mut RoundState,
    op: &str,
    fields: Vec<(&'static str, Json)>,
    want: Option<&Json>,
) -> Result<Reply, String> {
    let hit = s.submit("hit", op, fields)?;
    s.check(&hit, same(&hit, want), "resubmission");
    s.guard(
        hit.store_hit(),
        format!("resubmission {} was not a store hit", s.n),
    );
    s.out.hits.push(ms(hit.latency));
    Ok(hit)
}

/// Writes the base design and `plan.edits` seeded out-of-cone edits of
/// it: one data register's reset value each, no two alike. Returns the
/// files in submission order, split into the ones the stream may use
/// and a few spares the traced replay submits fresh.
fn write_edits(ctx: &Ctx, r: usize, dir: &Path) -> Result<(Vec<PathBuf>, Vec<PathBuf>), String> {
    let base = uarch::frontend::design_to_text(&uarch::cache::build_cache());
    // Requests name the files by absolute path: the daemon resolves
    // relative ones against its own working directory.
    let dir = std::fs::canonicalize(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| -> Result<PathBuf, String> {
        let p = dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(p)
    };
    let mut files = vec![write("base.nl", &base)?];
    let lines: Vec<&str> = base.lines().collect();
    let reg_line: Vec<usize> = DATA_REGS
        .iter()
        .map(|reg| {
            let prefix = format!("  reg {reg} : w8 = ");
            lines
                .iter()
                .position(|l| l.starts_with(&prefix))
                .ok_or_else(|| format!("MiniCache has no 8-bit register `{reg}`"))
        })
        .collect::<Result<_, _>>()?;
    // A seeded permutation of every (register, non-zero reset value).
    let mut space: Vec<(usize, u64)> = (0..DATA_REGS.len())
        .flat_map(|i| (1..256u64).map(move |v| (i, v)))
        .collect();
    let mut g = rng(ctx.seed, r, 1);
    for i in (1..space.len()).rev() {
        space.swap(i, g.range(0, i as u64 + 1) as usize);
    }
    let n = ctx.plan.edits.min(space.len());
    for (k, &(reg, value)) in space[..n].iter().enumerate() {
        let mut text = String::with_capacity(base.len() + 4);
        for (li, l) in lines.iter().enumerate() {
            if li == reg_line[reg] {
                text.push_str(&format!("  reg {} : w8 = {value}", DATA_REGS[reg]));
            } else {
                text.push_str(l);
            }
            text.push('\n');
        }
        files.push(write(&format!("e{k}.nl"), &text)?);
    }
    let spare = files.split_off(files.len() - (n / 4).min(32));
    Ok((files, spare))
}

/// Set-up: cold `paths` and `leak lw` on the base design. Timed: `leak`
/// jobs on new out-of-cone edits (job-key miss, every cone a hit, one
/// store write each), alternating with resubmissions of earlier edits
/// (job-level store hits) in a seeded order.
fn edit_warm(s: &mut RoundState, ctx: &Ctx, r: usize, t0: Instant) -> Result<TimedStart, String> {
    let plan = ctx.plan;
    let files = std::mem::take(&mut s.out.edits_run);
    let path = |p: &PathBuf| p.display().to_string();
    let paths = s.submit("setup", "paths", design_job(&path(&files[0]), plan))?;
    s.check(&paths, same(&paths, ctx.expected.field("paths")), "paths");
    let base = s.submit("setup", "leak", design_job(&path(&files[0]), plan))?;
    s.check(&base, same(&base, ctx.expected.field("leak")), "leak");
    s.out.setup = t0.elapsed();
    let before = s.d.stats()?.body;
    let timed = TimedStart::now(&s.d);
    let started = Instant::now();
    let mut order = rng(ctx.seed, r, 2);
    let mut run = vec![files[0].clone()];
    let mut jobs = 0;
    for file in &files[1..] {
        if !s.stream_continues(plan, started, jobs) {
            break;
        }
        let edit = s.submit("edit", "leak", design_job(&path(file), plan))?;
        s.check(&edit, same(&edit, Some(&base.body)), "edit vs base design");
        let cones = edit.cones();
        s.guard(
            !edit.store_hit() && matches!(cones, Some((h, 0)) if h > 0),
            format!(
                "edit {} must miss the job key and hit every cone, got {cones:?}",
                file.display()
            ),
        );
        let (dec, eval) = decided(&edit.body);
        s.out.decided += dec;
        s.out.evaluated += eval;
        s.out.main.push(ms(edit.latency));
        run.push(file.clone());
        jobs += 1;
        let earlier = &run[1 + order.range(0, run.len() as u64 - 1) as usize];
        let hit = resubmit(
            s,
            "leak",
            design_job(&path(earlier), plan),
            Some(&base.body),
        )?;
        let (dec, eval) = decided(&hit.body);
        s.out.decided += dec;
        s.out.evaluated += eval;
        jobs += 1;
    }
    s.out.stream_s = started.elapsed().as_secs_f64();
    s.out.cases = jobs as u64;
    s.out.timed_jobs = jobs as u64;
    let after = s.d.stats()?.body;
    let d = |k: &str| stat(&after, k) - stat(&before, k);
    s.guard(
        d("cone_misses") == 0,
        format!("timed phase had {} cone misses", d("cone_misses")),
    );
    let conflicts = ledger(&after, &["edit", "hit"], "conflicts");
    s.guard(
        conflicts == 0,
        format!("timed phase charged {conflicts} conflicts"),
    );
    let job_hits = d("cache_hits") - d("cone_hits");
    s.guard(
        job_hits == s.out.hits.len() as u64,
        format!(
            "{job_hits} job-level store hits for {} resubmissions",
            s.out.hits.len()
        ),
    );
    s.out.edits_run = run;
    Ok(timed)
}

/// A seed outside every timed set: the top bit is set only here.
fn warmup_seed(seed: u64, r: usize) -> u64 {
    (rng(seed, r, 3).next_u64() >> 33) | (1 << 31)
}

/// Set-up: one untimed warm-up `fuzz` job. Timed: `fuzz` jobs on distinct
/// seeds, then store-hit resubmissions of some of them.
fn fuzz_sweep(s: &mut RoundState, ctx: &Ctx, r: usize, t0: Instant) -> Result<TimedStart, String> {
    let plan = ctx.plan;
    let warm = warmup_seed(ctx.seed, r);
    let w = s.submit("setup", "fuzz", fuzz_job(warm, plan.warmup_cases))?;
    s.check(
        &w,
        fuzz_ok(&w.body, warm, plan.warmup_cases, ctx.expected),
        "warm-up fuzz",
    );
    s.out.setup = t0.elapsed();
    let before = s.d.stats()?.body;
    let timed = TimedStart::now(&s.d);
    let started = Instant::now();
    let mut g = rng(ctx.seed, r, 4);
    let mut seeds: Vec<u64> = Vec::new();
    let mut results: Vec<Json> = Vec::new();
    while s.stream_continues(plan, started, seeds.len()) {
        let seed = loop {
            let c = g.next_u64() >> 33;
            if !seeds.contains(&c) {
                break c;
            }
        };
        let f = s.submit("fuzz", "fuzz", fuzz_job(seed, plan.fuzz_cases))?;
        s.check(
            &f,
            fuzz_ok(&f.body, seed, plan.fuzz_cases, ctx.expected),
            "fuzz",
        );
        s.guard(
            !f.store_hit(),
            format!("fuzz seed {seed} was answered from the store"),
        );
        s.out.main.push(ms(f.latency));
        s.out.cases += plan.fuzz_cases;
        s.out.evaluated += 1;
        if f.body.field("completed").and_then(Json::as_bool) == Some(true) {
            s.out.decided += 1;
        }
        seeds.push(seed);
        results.push(f.body);
    }
    s.out.stream_s = started.elapsed().as_secs_f64();
    let mid = s.d.stats()?.body;
    let hits = stat(&mid, "cache_hits") - stat(&before, "cache_hits");
    s.guard(
        hits == 0,
        format!("timed fuzz stream had {hits} store hits"),
    );
    for _ in 0..plan.hit_probes {
        let k = g.range(0, seeds.len() as u64) as usize;
        resubmit(
            s,
            "fuzz",
            fuzz_job(seeds[k], plan.fuzz_cases),
            Some(&results[k]),
        )?;
    }
    s.out.timed_jobs = (seeds.len() + plan.hit_probes) as u64;
    s.out.fuzz_seeds = seeds;
    Ok(timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_leak_verdict_has_the_documented_static_transmitter() {
        let expected = Json::parse(EXPECTED).unwrap();
        let sigs = expected
            .field("leak")
            .and_then(|l| l.field("signatures"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(sigs
            .iter()
            .filter_map(Json::as_str)
            .any(|s| s.contains("lw_lkup(") && s.contains("lw^S.rs1")));
    }

    #[test]
    fn every_data_register_is_an_eight_bit_register_of_minicache() {
        let text = uarch::frontend::design_to_text(&uarch::cache::build_cache());
        for reg in DATA_REGS {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&format!("  reg {reg} : w8 = 0"))),
                "{reg}"
            );
        }
    }
}
