//! perfbench: the end-to-end and per-layer benchmark of the served
//! RTL2MµPATH/SynthLC pipeline. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload leak_cold|edit_warm|fuzz_sweep --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.

mod daemon;
mod layers;
mod stats;
mod workloads;

use jsonio::Json;
use layers::{Layers, Tracer, PER_LAYER};
use stats::{median, tail};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{run_round, Ctx, Plan, Round, Workload, EXPECTED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, 1, 10.0, false, false);
        while let Some(a) = it.next() {
            let mut val = || it.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => {
                    let v = val()?;
                    workload = Some(Workload::parse(&v).ok_or(format!(
                        "unknown workload `{v}` (known: leak_cold edit_warm fuzz_sweep)"
                    ))?);
                }
                "--seed" => seed = val()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => {
                    seconds = val()?.parse().map_err(|_| "bad --seconds")?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("perfbench/Cargo.toml").is_file() {
        return Err("run from the repository root".into());
    }
    let cli = build_cli(&root)?;
    let work_root = root.join(".perfbench");
    let work = work_root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(&args, &cli, &work, &work_root);
    let _ = std::fs::remove_dir_all(&work);
    let result = result?;
    println!("{}", result.render_compact());
    Ok(())
}

/// Builds `synthlc-cli` (release) and returns its path.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--message-format=json",
        ])
        .args([
            "--manifest-path",
            "perfbench/Cargo.toml",
            "-p",
            "synthlc-suite",
            "--bin",
            "synthlc-cli",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building synthlc-cli failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|m| {
            m.field("target")
                .and_then(|t| t.field("name"))
                .and_then(Json::as_str)
                == Some("synthlc-cli")
        })
        .find_map(|m| {
            m.field("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no synthlc-cli executable".into())
}

fn measure(args: &Args, cli: &Path, work: &Path, work_root: &Path) -> Result<Json, String> {
    let expected = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e:?}"))?;
    let plan = Plan::new(args.workload, args.seconds, args.smoke);
    let ctx = Ctx {
        cli,
        work,
        seed: args.seed,
        plan: &plan,
        expected: &expected,
    };
    let w = args.workload;
    let mut tracer = Tracer::new();
    let mut rounds: Vec<Round> = Vec::new();
    // A traced run has two rounds of a fixed stream length: an untraced
    // reference, then the round that records spans.
    let round_count = if args.trace { 2 } else { plan.rounds };
    for r in 0..round_count {
        let traced = args.trace && r == 1;
        rounds.push(run_round(w, &ctx, r, &mut tracer, args.trace, traced)?);
    }
    let problems: Vec<String> = rounds.iter().flat_map(|r| r.problems.clone()).collect();
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    println!(
        "perfbench workload={} seed={} seconds={} rounds={} trace={}{}",
        w.name(),
        args.seed,
        args.seconds,
        round_count,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    let metrics = if args.trace {
        let layers = traced_layers(w, &plan, &mut tracer, &rounds, work)?;
        let trace_file = work_root.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        tracer
            .write(&trace_file)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        println!("  spans written to {}", trace_file.display());
        println!(
            "  peak_rss_mb {:.4} MB (traced round's daemon)",
            rounds[rounds.len() - 1].rss_mb
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (v, note) = layers.get(name).cloned().unwrap_or_default();
                println!("  {name:<28} {v:>14.4} {unit:<5} {note}");
                (name, metric(v, unit))
            })
            .collect::<Vec<_>>()
    } else {
        end_to_end(w, &rounds)
    };
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    Ok(Json::obj([
        ("correct", Json::Bool(problems.is_empty() && failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The end-to-end metrics, each printed with its unit and sample count,
/// plus the run's host-noise record.
fn end_to_end(w: Workload, rounds: &[Round]) -> Vec<(&'static str, Json)> {
    let pool = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let main = pool(|r| &r.main);
    let hits = pool(|r| &r.hits);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let rss: Vec<f64> = rounds.iter().map(|r| r.rss_mb).collect();
    let cases: u64 = rounds.iter().map(|r| r.cases).sum();
    let stream_s: f64 = rounds.iter().map(|r| r.stream_s).sum();
    let throughput: Vec<f64> = rounds
        .iter()
        .map(|r| r.cases as f64 / r.stream_s.max(1e-9))
        .collect();
    let decided: u64 = rounds.iter().map(|r| r.decided).sum();
    let evaluated: u64 = rounds.iter().map(|r| r.evaluated).sum();
    let describe = |xs: &[f64], what: &str| match tail(xs) {
        Some((p, v, beyond)) => format!(
            "p50 of {} {what}; p{p} = {v:.3} ms ({beyond} beyond)",
            xs.len()
        ),
        None => {
            let each: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
            format!("p50 of {} {what}: {}", xs.len(), each.join(", "))
        }
    };
    let class = w.main_class();
    let rows = [
        (
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        (
            "latency_ms",
            median(&main),
            "ms",
            describe(&main, &format!("`{class}` jobs")),
        ),
        (
            "hit_latency_ms",
            median(&hits),
            "ms",
            describe(&hits, "store-hit resubmissions"),
        ),
        (
            "cases_per_s",
            median(&throughput),
            "1/s",
            format!(
                "median over rounds; {cases} {} in {stream_s:.3} s",
                if w == Workload::FuzzSweep {
                    "fuzz cases"
                } else {
                    "jobs"
                }
            ),
        ),
        (
            "decided_share",
            decided as f64 / evaluated.max(1) as f64,
            "ratio",
            format!(
                "{decided} of {evaluated} {}",
                if w == Workload::FuzzSweep {
                    "sweeps completed"
                } else {
                    "properties decided"
                }
            ),
        ),
        (
            "peak_rss_mb",
            median(&rss),
            "MB",
            format!("median VmHWM of {} daemons", rss.len()),
        ),
    ];
    let cpu: f64 = rounds.iter().map(|r| r.cpu_ms).sum();
    let jobs: u64 = rounds.iter().map(|r| r.timed_jobs).sum();
    let steal: u64 = rounds.iter().map(|r| r.steal_ticks).sum();
    let total: u64 = rounds.iter().map(|r| r.total_ticks).sum();
    let mut out = Vec::new();
    for (name, v, unit, how) in rows {
        println!("  {name:<16} {v:>12.4} {unit:<5} {how}");
        out.push((name, metric(v, unit)));
    }
    println!(
        "  host: steal_share={:.4} cpu_ms_per_job={:.3} ({jobs} timed jobs)",
        steal as f64 / total.max(1) as f64,
        cpu / jobs.max(1) as f64
    );
    out
}

/// The traced run: shared serve/host/jsonio/journal metrics of the traced
/// round, the workload's layer replay, then the tracing overhead and the
/// unattributed remainder of its main job class.
fn traced_layers(
    w: Workload,
    plan: &Plan,
    tr: &mut Tracer,
    rounds: &[Round],
    work: &Path,
) -> Result<Layers, String> {
    let (untraced, traced) = (&rounds[0], &rounds[rounds.len() - 1]);
    let scratch = work.join("replay");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut out = Layers::new();
    layers::common(w, tr, traced, &scratch, &mut out)?;
    match w {
        Workload::LeakCold => layers::leak_cold(tr, plan, &scratch, &mut out)?,
        Workload::EditWarm => layers::edit_warm(tr, plan, traced, &scratch, &mut out)?,
        Workload::FuzzSweep => layers::fuzz_sweep(tr, plan, traced, &mut out)?,
    }
    let class = w.main_class();
    let p50 = median(&traced.main);
    layers::put_noted(
        &mut out,
        "trace.overhead_ms",
        p50 - median(&untraced.main),
        format!(
            "p50 of {} traced minus p50 of {} untraced `{class}` jobs",
            traced.main.len(),
            untraced.main.len()
        ),
    );
    let span = format!("job.{class}");
    layers::put_noted(
        &mut out,
        "trace.unattributed_ms",
        p50 - tr.per_job(&span) * 1e3,
        format!(
            "traced p50 minus the median of {} replayed `{span}` spans",
            tr.jobs(&span)
        ),
    );
    Ok(out)
}
