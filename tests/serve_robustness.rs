//! Chaos tests for the serve daemon (DESIGN.md §13, ISSUE 9).
//!
//! Three layers:
//!
//! * **in-process fault sweep** — pinned-seed [`mc::FaultPlan`] schedules
//!   (worker panics, deadline expiries, queue stalls, torn journal
//!   writes) against a live [`serve::Server`], asserting the verdicts
//!   only *widen* (clean payload byte-identical to the fault-free
//!   baseline, or `exit: 2`) and that a retry budget converges a
//!   transient fault back to the clean verdict;
//! * **in-process cache reuse** — an identical resubmission is answered
//!   from the verdict store byte-identically, with the reuse counter
//!   advancing;
//! * **kill-and-restart** — a real `synthlc-cli serve` process is
//!   SIGKILLed mid-batch and restarted on the same journal
//!   (`--resume`); the resumed daemon must answer the already-completed
//!   job byte for byte identically, from cache.

use jsonio::{jsonl, Json};
use mc::{FaultPlan, ServeFault};
use serve::{Op, Request, ServeConfig, Server, Submit};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use synthlc::Journal;

fn paths_req(id: &str) -> Request {
    let mut r = Request::new(Op::Paths);
    r.id = id.to_owned();
    r.design = Some("tinycore".to_owned());
    r.instr = Some("add".to_owned());
    r
}

fn check_req(id: &str, source: &str) -> Request {
    let mut r = Request::new(Op::Check);
    r.id = id.to_owned();
    r.source = Some(source.to_owned());
    r
}

/// Runs `reqs` through a one-worker server and returns, per request id,
/// the `done` payload plus every `progress` note seen for it.
fn run_jobs(
    cfg: ServeConfig,
    store: Option<Arc<Journal>>,
    reqs: &[Request],
) -> (HashMap<String, Json>, HashMap<String, Vec<String>>) {
    let server = Server::start(cfg, store);
    let (tx, rx) = mpsc::channel();
    for r in reqs {
        assert!(
            matches!(server.submit(r.clone(), tx.clone()), Submit::Accepted(_)),
            "submission under queue_cap must be accepted"
        );
    }
    drop(tx);
    server.join();
    collect_events(rx)
}

fn collect_events(
    rx: mpsc::Receiver<Json>,
) -> (HashMap<String, Json>, HashMap<String, Vec<String>>) {
    let mut dones = HashMap::new();
    let mut notes: HashMap<String, Vec<String>> = HashMap::new();
    for ev in rx {
        let id = ev
            .field("id")
            .and_then(Json::as_str)
            .expect("every event is id-tagged")
            .to_owned();
        match ev.field("ev").and_then(Json::as_str) {
            Some("done") => {
                let prev = dones.insert(id, ev.field("result").expect("done has result").clone());
                assert!(prev.is_none(), "exactly one done event per job");
            }
            Some("progress") => {
                let note = ev
                    .field("note")
                    .and_then(Json::as_str)
                    .expect("progress has note")
                    .to_owned();
                notes.entry(id).or_default().push(note);
            }
            Some("accepted") => {}
            Some("error") => panic!("unexpected error event: {}", ev.render_compact()),
            other => panic!("unexpected event kind {other:?}"),
        }
    }
    (dones, notes)
}

fn exit_of(payload: &Json) -> u64 {
    payload
        .field("exit")
        .and_then(Json::as_u64)
        .expect("every verdict carries exit")
}

fn one_worker(faults: FaultPlan, retries: u32) -> ServeConfig {
    ServeConfig {
        workers: 1,
        retries,
        faults,
        backoff_ms: 1,
        ..ServeConfig::default()
    }
}

/// The fault-free baseline verdict for `paths tinycore add` — what every
/// clean run, retried run, cached run, and restarted run must reproduce
/// byte for byte.
fn baseline_paths_verdict() -> String {
    let (dones, _) = run_jobs(
        one_worker(FaultPlan::disabled(), 0),
        None,
        &[paths_req("b")],
    );
    let payload = &dones["b"];
    assert_eq!(exit_of(payload), 0, "baseline must be clean");
    payload.render_compact()
}

/// The exact `done` payloads of a clean `paths` and `leak` job on
/// `tinycore add`, pinned byte for byte so a refactor of the report path
/// cannot drift a field, its order, or a count.
#[test]
fn tinycore_add_done_payloads_are_pinned() {
    let mut leak = paths_req("l");
    leak.op = Op::Leak;
    let (dones, _) = run_jobs(
        one_worker(FaultPlan::disabled(), 0),
        None,
        &[paths_req("p"), leak],
    );
    assert_eq!(
        dones["p"].render_compact(),
        r#"{"op":"paths","design":"TinyCore","instr":"add","mupaths":1,"complete":true,"properties":4,"undetermined":0,"exit":0}"#
    );
    assert_eq!(
        dones["l"].render_compact(),
        r#"{"op":"leak","design":"TinyCore","instr":"add","signatures":[],"transponder":false,"properties":4,"undetermined":0,"exit":0}"#
    );
}

#[test]
fn fault_sweep_verdicts_only_widen() {
    let baseline = baseline_paths_verdict();
    // A pinned sweep of seeds at a punishing rate: whatever schedule each
    // seed plans (panics, expiries, stalls, torn writes), the verdict is
    // either the clean baseline or an explicit widening to exit 2 —
    // never a third thing.
    for seed in [1u64, 7, 13, 42, 99] {
        let store = Arc::new(Journal::create(tmp_path(&format!("sweep-{seed}"))).unwrap());
        let reqs: Vec<Request> = (0..3).map(|i| paths_req(&format!("j{i}"))).collect();
        let (dones, _) = run_jobs(
            one_worker(FaultPlan::new(seed, 0.8), 1),
            Some(Arc::clone(&store)),
            &reqs,
        );
        for (id, payload) in &dones {
            let rendered = payload.render_compact();
            assert!(
                rendered == baseline || exit_of(payload) == 2,
                "seed {seed} job {id}: fault produced a *different* clean verdict:\n  \
                 got      {rendered}\n  expected {baseline} (or exit 2)"
            );
        }
        // Whatever reached the store is a clean verdict by construction:
        // replaying the journal must never surface a widened record.
        drop(dones);
        std::fs::remove_file(tmp_path(&format!("sweep-{seed}"))).ok();
    }
}

#[test]
fn transient_worker_panic_converges_clean_via_retry() {
    let baseline = baseline_paths_verdict();
    // serve::CI_SMOKE_SEED pins: job seq 0 panics on attempt 0 and runs
    // clean on attempt 1 (asserted in crates/serve/src/lib.rs).
    let cfg = one_worker(FaultPlan::new(serve::CI_SMOKE_SEED, 0.5), 2);
    let server = Server::start(cfg, None);
    let (tx, rx) = mpsc::channel();
    assert!(matches!(
        server.submit(paths_req("p"), tx),
        Submit::Accepted(0)
    ));
    server.join();
    assert!(
        server.retried() >= 1,
        "the injected panic must cost a retry"
    );
    assert_eq!(server.degraded(), 0, "the retry must converge, not degrade");
    let (dones, notes) = collect_events(rx);
    assert_eq!(dones["p"].render_compact(), baseline);
    assert!(
        notes["p"].iter().any(|n| n.contains("panic caught")),
        "the supervisor must report the caught panic: {:?}",
        notes["p"]
    );
}

#[test]
fn exhausted_retry_budget_degrades_to_undetermined() {
    // Find a seed whose schedule hard-faults job seq 0 on both attempt 0
    // and attempt 1 (retries = 1): the budget exhausts and the verdict
    // stands widened.
    let hard = |f: Option<ServeFault>| {
        matches!(
            f,
            Some(ServeFault::WorkerPanic | ServeFault::DeadlineExpired)
        )
    };
    let seed = (0..200_000u64)
        .find(|&s| {
            let p = FaultPlan::new(s, 0.8);
            hard(p.serve_fault_for("serve-worker", 0, 0))
                && hard(p.serve_fault_for("serve-worker", 0, 1))
        })
        .expect("some seed plans back-to-back hard faults");
    let (dones, _) = run_jobs(
        one_worker(FaultPlan::new(seed, 0.8), 1),
        None,
        &[paths_req("x")],
    );
    assert_eq!(
        exit_of(&dones["x"]),
        2,
        "an exhausted retry budget widens to exit 2 (seed {seed}): {}",
        dones["x"].render_compact()
    );
}

#[test]
fn deadline_expiry_widens_never_flips() {
    let baseline = baseline_paths_verdict();
    // A seed that plans exactly DeadlineExpired for job 0 attempt 0 with
    // no retries: the watchdog starts the attempt pre-expired, so the
    // solver degrades cooperatively.
    let seed = (0..200_000u64)
        .find(|&s| {
            FaultPlan::new(s, 0.5).serve_fault_for("serve-worker", 0, 0)
                == Some(ServeFault::DeadlineExpired)
        })
        .expect("some seed plans a deadline expiry first");
    let (dones, _) = run_jobs(
        one_worker(FaultPlan::new(seed, 0.5), 0),
        None,
        &[paths_req("d")],
    );
    let payload = &dones["d"];
    assert!(
        payload.render_compact() == baseline || exit_of(payload) == 2,
        "an expired watchdog may only widen: {}",
        payload.render_compact()
    );
    assert_ne!(
        exit_of(payload),
        0,
        "with zero retries an expired watchdog cannot produce the clean verdict's exit"
    );
}

#[test]
fn identical_resubmission_is_served_from_cache_byte_identically() {
    let path = tmp_path("cache-hit");
    let store = Arc::new(Journal::create(&path).unwrap());
    let server = Server::start(
        one_worker(FaultPlan::disabled(), 0),
        Some(Arc::clone(&store)),
    );
    let (tx, rx) = mpsc::channel();
    assert!(matches!(
        server.submit(paths_req("first"), tx.clone()),
        Submit::Accepted(_)
    ));
    server.drain();
    assert_eq!(store.hits(), 0, "a first-ever job cannot hit the cache");
    assert!(matches!(
        server.submit(paths_req("second"), tx.clone()),
        Submit::Accepted(_)
    ));
    drop(tx);
    server.join();
    assert_eq!(store.hits(), 1, "the resubmission must be a cache hit");
    let (dones, notes) = collect_events(rx);
    assert_eq!(
        dones["first"].render_compact(),
        dones["second"].render_compact(),
        "a cached answer must be byte-identical to the computed one"
    );
    assert!(
        notes["second"].iter().any(|n| n.contains("verdict store")),
        "cache provenance rides in progress events: {:?}",
        notes.get("second")
    );
    assert!(
        notes
            .get("first")
            .is_none_or(|ns| ns.iter().all(|n| !n.contains("verdict store"))),
        "the first run must not claim cache provenance"
    );
    std::fs::remove_file(path).ok();
}

/// `stats`' `cache_hits` counts every store hit: whole jobs answered from
/// the verdict store *and* the cones the engines replay from it (the store
/// is their journal). Job-level reuse is therefore `cache_hits −
/// cone_hits`.
#[test]
fn cache_hits_count_cone_replays_and_store_served_jobs() {
    let path = tmp_path("cache-hit-arithmetic");
    let store = Arc::new(Journal::create(&path).unwrap());
    let server = Server::start(
        one_worker(FaultPlan::disabled(), 0),
        Some(Arc::clone(&store)),
    );
    let stat = |name: &str| {
        server
            .stats_json()
            .field(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats lack {name}"))
    };
    let (tx, rx) = mpsc::channel();
    let mut leak = paths_req("leak");
    leak.op = Op::Leak;
    for req in [paths_req("paths"), leak.clone()] {
        assert!(matches!(
            server.submit(req, tx.clone()),
            Submit::Accepted(_)
        ));
        server.drain();
    }
    // The leak job replays the two µPATH slot cones the paths job solved
    // (tinycore has no candidate transponder, so no IFT cone), and no job
    // was served whole.
    assert_eq!((stat("cache_hits"), stat("cone_hits")), (2, 2));
    leak.id = "leak-again".into();
    assert!(matches!(
        server.submit(leak, tx.clone()),
        Submit::Accepted(_)
    ));
    server.drain();
    assert_eq!(stat("cache_hits") - stat("cone_hits"), 1);
    drop(tx);
    server.join();
    let (_, notes) = collect_events(rx);
    let served = |id: &str| {
        notes
            .get(id)
            .is_some_and(|ns| ns.iter().any(|n| n.contains("verdict store")))
    };
    assert!(!served("paths") && !served("leak") && served("leak-again"));
    std::fs::remove_file(path).ok();
}

/// The job-level store key covers the whole design, not just its netlist:
/// the same RTL with one µFSM annotation fewer is a different question,
/// so it must be solved, never answered with the first design's verdict.
#[test]
fn annotation_only_edit_is_not_served_from_cache() {
    const TINYCORE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/tinycore.nl");
    let src = std::fs::read_to_string(TINYCORE).unwrap();
    let block = src
        .find("    ufsm u_wb {")
        .expect("tinycore.nl annotates u_wb");
    let end = block + src[block..].find("    }\n").unwrap() + "    }\n".len();
    let edited = tmp_path("no-u_wb").with_extension("nl");
    std::fs::write(&edited, format!("{}{}", &src[..block], &src[end..])).unwrap();
    let path = tmp_path("annotation-edit");
    let store = Arc::new(Journal::create(&path).unwrap());
    let mut reqs = [paths_req("full"), paths_req("no-u_wb")];
    reqs[0].design = Some(TINYCORE.into());
    reqs[1].design = Some(edited.to_str().unwrap().into());
    let (dones, notes) = run_jobs(
        one_worker(FaultPlan::disabled(), 0),
        Some(Arc::clone(&store)),
        &reqs,
    );
    assert_eq!(exit_of(&dones["no-u_wb"]), 0);
    // Its `done` payload happens to equal the first one, so provenance is
    // the tell: a solved job reports its cone cache, a store hit does not.
    let edited_notes = notes.get("no-u_wb").cloned().unwrap_or_default();
    assert!(
        edited_notes.iter().all(|n| !n.contains("verdict store"))
            && edited_notes.iter().any(|n| n.starts_with("cone cache:")),
        "served the unedited design's verdict: {edited_notes:?}"
    );
    std::fs::remove_file(path).ok();
    std::fs::remove_file(edited).ok();
}

/// A job's store key comes from its design's source bytes, not from the
/// parsed design: a built-in and its canonical `examples/` file are one
/// entry, while a byte-level edit outside every cone (a comment) misses
/// the job key yet replays every cone.
#[test]
fn store_keys_follow_source_bytes() {
    const TINYCORE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/tinycore.nl");
    let commented = tmp_path("commented").with_extension("nl");
    let src = std::fs::read_to_string(TINYCORE).unwrap();
    std::fs::write(&commented, format!("{src}# a comment line\n")).unwrap();
    let path = tmp_path("source-keys");
    let store = Arc::new(Journal::create(&path).unwrap());
    let mut reqs = [
        paths_req("builtin"),
        paths_req("file"),
        paths_req("commented"),
    ];
    reqs[1].design = Some(TINYCORE.into());
    reqs[2].design = Some(commented.to_str().unwrap().into());
    let (dones, notes) = run_jobs(
        one_worker(FaultPlan::disabled(), 0),
        Some(Arc::clone(&store)),
        &reqs,
    );
    let served = |id: &str| {
        notes
            .get(id)
            .is_some_and(|ns| ns.iter().any(|n| n == "served from verdict store"))
    };
    assert!(!served("builtin") && served("file") && !served("commented"));
    let cone_notes = notes.get("commented").cloned().unwrap_or_default();
    assert!(
        cone_notes
            .iter()
            .any(|n| n.starts_with("cone cache:") && n.ends_with(" 0 miss(es)")),
        "a comment edit must replay every cone: {cone_notes:?}"
    );
    for id in ["file", "commented"] {
        assert_eq!(
            dones[id].render_compact(),
            dones["builtin"].render_compact(),
            "{id}"
        );
    }
    std::fs::remove_file(path).ok();
    std::fs::remove_file(commented).ok();
}

/// The daemon's `check` is the CLI's: an untrusted µFSM whose undeclared
/// state space is too large to enumerate is an `E012` verdict, not a
/// worker panic on every attempt, and a harnessed module must convert into
/// a design, so an unknown ISA mnemonic is `E013`.
#[test]
fn check_answers_as_the_cli_does_without_a_worker_panic() {
    let tinycore = include_str!("../examples/tinycore.nl");
    let wide = tinycore.replace(
        "vars wb_valid\n      idle (0)\n      state WB = (1)",
        "vars ifr\n      idle (0)",
    );
    let frob = tinycore.replace("isa nop", "isa frobnicate nop");
    assert!(wide != tinycore && frob != tinycore, "the edits must apply");
    let cases = [
        ("wide", &wide[..], 1),
        ("frob", &frob[..], 1),
        ("ok", tinycore, 0),
    ];
    let reqs: Vec<Request> = cases
        .iter()
        .map(|&(id, src, _)| check_req(id, src))
        .collect();
    let (dones, notes) = run_jobs(one_worker(FaultPlan::disabled(), 2), None, &reqs);
    for (id, src, exit) in cases {
        // What `synthlc-cli check` reports for the same text.
        let (_, cli) = uarch::frontend::check(src, "x.nl");
        assert_eq!(u64::from(cli.report.exit_code(false)), exit, "{id}");
        let summary = cli.report.summary();
        let want = format!(r#"{{"op":"check","summary":"{summary}","exit":{exit}}}"#);
        assert_eq!(dones[id].render_compact(), want, "{id}");
    }
    assert!(
        notes
            .values()
            .flatten()
            .all(|n| !n.contains("worker panic")),
        "{notes:?}"
    );
}

/// Keying a job without its design must not let a `.nl` design run an
/// instruction it does not implement: the store misses, the design loads,
/// and the job gets an `error` naming the design.
#[test]
fn an_instruction_the_design_lacks_is_an_error() {
    let path = tmp_path("lacks-instr");
    let store = Arc::new(Journal::create(&path).unwrap());
    let server = Server::start(one_worker(FaultPlan::disabled(), 0), Some(store));
    let (tx, rx) = mpsc::channel();
    let mut req = paths_req("lacks");
    req.design = Some(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/minicache.nl").into());
    assert!(matches!(server.submit(req, tx), Submit::Accepted(_)));
    server.join();
    let terminal: Vec<Json> = rx
        .iter()
        .filter(|ev| ev.field("ev").and_then(Json::as_str) != Some("accepted"))
        .collect();
    assert_eq!(terminal.len(), 1, "{terminal:?}");
    assert_eq!(
        terminal[0].render_compact(),
        r#"{"ev":"error","id":"lacks","msg":"`add` is not implemented by MiniCache"}"#
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn overload_sheds_explicitly_and_shutdown_refuses() {
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        retries: 0,
        faults: FaultPlan::disabled(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, None);
    let (tx, rx) = mpsc::channel();
    // Fill the queue faster than one worker drains it; at least the
    // accepted ones complete, the rest shed with an explicit answer.
    let mut accepted = 0;
    let mut shed = 0;
    for i in 0..6 {
        match server.submit(paths_req(&format!("q{i}")), tx.clone()) {
            Submit::Accepted(_) => accepted += 1,
            Submit::Overloaded => shed += 1,
            Submit::ShuttingDown => panic!("not shutting down yet"),
        }
    }
    assert!(accepted >= 1, "at least one job fits the queue");
    server.shutdown();
    assert!(
        matches!(
            server.submit(paths_req("late"), tx.clone()),
            Submit::ShuttingDown
        ),
        "a draining daemon refuses new work explicitly"
    );
    drop(tx);
    server.join();
    let (dones, _) = collect_events(rx);
    assert_eq!(
        dones.len(),
        accepted,
        "graceful drain: every accepted job gets its done event, shed ones don't ({shed} shed)"
    );
}

// --- kill-and-restart against the real binary --------------------------

struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Drop for Daemon {
    /// A test that fails before its shutdown must not leave the daemon
    /// running (it would also hold the test harness's output pipe open).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(journal_flag: &str, journal: &std::path::Path) -> Daemon {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_synthlc-cli"))
        .args([
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            journal_flag,
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn synthlc-cli serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_owned();
    Daemon { child, addr }
}

/// Writes `reqs` and returns the raw `done`/`bye` line per id, byte for
/// byte as the daemon sent it.
fn client_roundtrip(addr: &str, reqs: &[Request]) -> HashMap<String, String> {
    let sock = TcpStream::connect(addr).expect("connect to daemon");
    sock.set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let mut writer = sock.try_clone().unwrap();
    for r in reqs {
        jsonl::write_line(&mut writer, &r.encode()).unwrap();
    }
    let mut reader = BufReader::new(sock);
    let mut terminal = HashMap::new();
    while terminal.len() < reqs.len() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("daemon stays up") > 0,
            "daemon closed the connection early"
        );
        let ev = Json::parse(line.trim_end()).expect("well-formed event line");
        let kind = ev.field("ev").and_then(Json::as_str).unwrap_or("");
        if matches!(kind, "done" | "bye") {
            let id = ev
                .field("id")
                .and_then(Json::as_str)
                .expect("tagged")
                .to_owned();
            terminal.insert(id, line.trim_end().to_owned());
        }
        assert_ne!(kind, "error", "unexpected error event: {}", line.trim());
    }
    terminal
}

#[test]
fn killed_daemon_resumes_byte_identically_from_its_journal() {
    let journal = tmp_path("kill-restart");
    std::fs::remove_file(&journal).ok();

    // Phase 1: fresh daemon, complete one job, then SIGKILL it mid-batch
    // (two more jobs submitted on a second connection are still queued or
    // in flight when the kill lands).
    let mut d1 = spawn_daemon("--journal", &journal);
    let first = client_roundtrip(&d1.addr, &[paths_req("j1")]);
    {
        // Mid-batch load the crash interrupts; answers never arrive.
        let sock = TcpStream::connect(&d1.addr).unwrap();
        let mut w = sock.try_clone().unwrap();
        jsonl::write_line(&mut w, &paths_req("j2").encode()).unwrap();
        jsonl::write_line(
            &mut w,
            &check_req("j3", "module m { input clk: 1; }").encode(),
        )
        .unwrap();
    }
    d1.child.kill().expect("SIGKILL the daemon");
    d1.child.wait().expect("reap the daemon");

    // Phase 2: restart on the same journal. The completed job must be
    // answered byte for byte identically, from cache (no re-solve).
    let mut d2 = spawn_daemon("--resume", &journal);
    let resumed = client_roundtrip(
        &d2.addr,
        &[
            paths_req("j1"),
            paths_req("j2"),
            check_req("j3", "module m { input clk: 1; }"),
        ],
    );
    assert_eq!(
        resumed["j1"], first["j1"],
        "the restarted daemon must answer a journaled job byte-identically"
    );
    assert_eq!(
        resumed["j2"],
        resumed["j1"].replace("\"j1\"", "\"j2\""),
        "identical work under a different id differs only in the id tag"
    );

    // The restarted daemon served j1 (and j2, identical work) from the
    // replayed journal: stats must show the reuse.
    let sock = TcpStream::connect(&d2.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut w = sock.try_clone().unwrap();
    jsonl::write_line(&mut w, &Request::new(Op::Stats).encode()).unwrap();
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).unwrap();
    let stats = Json::parse(line.trim_end()).unwrap();
    assert!(
        stats
            .field("cache_hits")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "resume must answer from the replayed journal: {line}"
    );

    // Phase 3: graceful shutdown drains and exits 0.
    let bye = client_roundtrip(&d2.addr, &[Request::new(Op::Shutdown)]);
    assert!(bye.values().next().unwrap().contains("bye"));
    let status = d2.child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "graceful drain exits 0, got {status:?}");
    std::fs::remove_file(journal).ok();
}

/// Reads event lines, past `accepted` and `progress`, until the next
/// terminal one and returns it.
fn next_terminal(reader: &mut impl BufRead) -> Json {
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("daemon stays up") > 0,
            "daemon closed the connection"
        );
        let ev = Json::parse(line.trim_end()).expect("well-formed event line");
        if !matches!(
            ev.field("ev").and_then(Json::as_str),
            Some("accepted" | "progress")
        ) {
            return ev;
        }
    }
}

#[test]
fn hostile_lines_get_error_events_and_the_connection_survives() {
    let journal = tmp_path("hostile-lines");
    std::fs::remove_file(&journal).ok();
    let mut d = spawn_daemon("--journal", &journal);
    let sock = TcpStream::connect(&d.addr).expect("connect to daemon");
    sock.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);
    let source = "module m { input clk: 1; }";
    // Nesting deep enough to overflow a recursive parser's stack, which
    // would abort the whole daemon: it must be a plain parse error.
    let deep = "[".repeat(200_000) + "\n";
    // A well-formed request whose line exceeds the cap.
    let long = check_req(
        "long",
        &format!("{source}{}", " ".repeat(serve::net::MAX_LINE)),
    );
    for (hostile, what) in [
        (deep, "nested too deep"),
        (long.encode().render_compact() + "\n", "length cap"),
    ] {
        w.write_all(hostile.as_bytes()).unwrap();
        let ev = next_terminal(&mut r);
        assert_eq!(
            ev.field("ev").and_then(Json::as_str),
            Some("error"),
            "{ev:?}"
        );
        let msg = ev.field("msg").and_then(Json::as_str).unwrap_or("");
        assert!(msg.contains(what), "error names the cap: {msg}");
        // The same connection still serves the next request.
        jsonl::write_line(&mut w, &check_req("next", source).encode()).unwrap();
        let done = next_terminal(&mut r);
        assert_eq!(
            done.field("ev").and_then(Json::as_str),
            Some("done"),
            "{done:?}"
        );
    }
    let bye = client_roundtrip(&d.addr, &[Request::new(Op::Shutdown)]);
    assert!(bye.values().next().unwrap().contains("bye"));
    assert!(d.child.wait().expect("daemon exits").success());
    std::fs::remove_file(journal).ok();
}

/// The daemon reads at most [`serve::net::MAX_LINE`] bytes of a design
/// file, the cap an inline `check` source already has: a larger file is an
/// `error` event, and the connection goes on serving.
#[test]
fn oversized_design_file_gets_an_error_and_the_connection_survives() {
    const TINYCORE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/tinycore.nl");
    let big = tmp_path("oversized").with_extension("nl");
    let mut text = std::fs::read_to_string(TINYCORE).unwrap();
    while text.len() <= serve::net::MAX_LINE {
        text.push_str("# padding past the daemon's source size cap\n");
    }
    std::fs::write(&big, &text).unwrap();
    let journal = tmp_path("oversized-journal");
    std::fs::remove_file(&journal).ok();
    let mut d = spawn_daemon("--journal", &journal);
    let sock = TcpStream::connect(&d.addr).expect("connect to daemon");
    sock.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);
    let mut req = paths_req("big");
    req.design = Some(big.to_str().unwrap().into());
    jsonl::write_line(&mut w, &req.encode()).unwrap();
    let ev = next_terminal(&mut r);
    assert_eq!(
        ev.field("ev").and_then(Json::as_str),
        Some("error"),
        "{ev:?}"
    );
    let msg = ev.field("msg").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("size cap"), "error names the cap: {msg}");
    jsonl::write_line(&mut w, &paths_req("next").encode()).unwrap();
    let done = next_terminal(&mut r);
    assert_eq!(
        done.field("ev").and_then(Json::as_str),
        Some("done"),
        "{done:?}"
    );
    let bye = client_roundtrip(&d.addr, &[Request::new(Op::Shutdown)]);
    assert!(bye.values().next().unwrap().contains("bye"));
    assert!(d.child.wait().expect("daemon exits").success());
    std::fs::remove_file(journal).ok();
    std::fs::remove_file(big).ok();
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("synthlc-serve-robustness");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}
