#!/bin/bash
# CI gate: formatting, lints, and the full workspace test suite.
#
# Offline-friendly: runs with --offline by default (the workspace has no
# third-party dependencies); set SYNTHLC_CI_ONLINE=1 to let cargo touch
# the network. SYNTHLC_THREADS bounds the parallel engine in tests.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=(--offline)
if [ "${SYNTHLC_CI_ONLINE:-0}" != 0 ]; then
  OFFLINE=()
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q "${OFFLINE[@]}" --workspace

echo "== docs (rustdoc, warnings fatal) =="
# Broken or ambiguous intra-doc links, and public docs linking private
# items, fail the build here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc -q "${OFFLINE[@]}" --workspace --no-deps
echo "docs OK"

echo "== lint-designs (static-analysis suite, warnings fatal) =="
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- lint all --deny-warnings
# `lint` takes any <design>, so the shipped .nl files must lint clean too.
for NL in examples/*.nl; do
  cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    lint "$NL" --deny-warnings >/dev/null
done

echo "== leak-golden (byte-identical report at --jobs 1, 2 and 4) =="
# The blessed `leak minicache lw` report: signatures, the solver-counter
# line and the contract table, no timings. Each solver context must see
# the same query stream at every worker count, so every run must match
# the golden byte for byte. The IFT phase has four context chains (one
# per slot pairing and typing), so --jobs 4 runs them all at once.
for JOBS in 1 2 4; do
  if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    leak minicache lw --jobs "$JOBS" | diff -u tests/golden/leak_minicache_lw.txt -; then
    echo "leak-golden: --jobs $JOBS drifted from tests/golden/leak_minicache_lw.txt" >&2
    exit 1
  fi
done
echo "leak-golden OK (--jobs 1, 2 and 4 match the golden)"

echo "== paths-golden (byte-identical µPATH report at --jobs 1 and 2) =="
# The blessed `paths minicache lw` report: every µPATH, its decisions,
# the property count and the solver-counter line. The summary line's
# wall-clock average is the one timing, so it is masked before the diff.
for JOBS in 1 2; do
  if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    paths minicache lw --jobs "$JOBS" | sed 's/, [0-9.]*s avg,/, <t>s avg,/' |
    diff -u tests/golden/paths_minicache_lw.txt -; then
    echo "paths-golden: --jobs $JOBS drifted from tests/golden/paths_minicache_lw.txt" >&2
    exit 1
  fi
done
echo "paths-golden OK (--jobs 1 and 2 match the golden)"

echo "== fault-smoke (inject a fault, journal, resume clean) =="
# Seed 2 at rate 0.5 deterministically faults one of tinycore add's two
# µPATH jobs and leaves the other clean: the run must degrade (exit 2),
# journal exactly the clean verdict, and a --resume replay must converge
# to a clean exit 0.
JOURNAL=$(mktemp -t synthlc-fault-smoke.XXXXXX)
trap 'rm -f "$JOURNAL"' EXIT
rm -f "$JOURNAL"
set +e
SYNTHLC_FAULT_SEED=2 cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  paths tinycore add --fault-rate 0.5 --journal "$JOURNAL" >/dev/null
FAULT_EXIT=$?
set -e
if [ "$FAULT_EXIT" != 2 ]; then
  echo "fault-smoke: expected exit 2 from the faulted run, got $FAULT_EXIT" >&2
  exit 1
fi
if ! grep -q '^{"k":"mupath:' "$JOURNAL"; then
  echo "fault-smoke: journal has no well-formed µPATH record:" >&2
  cat "$JOURNAL" >&2
  exit 1
fi
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  paths tinycore add --resume "$JOURNAL" >/dev/null
# tinycore has no candidate transponder, so no IFT job ran above. Seed 3
# at rate 0.5 leaves leak minicache lw's two µPATH jobs clean and faults
# two of its four IFT units (a panic and an expired deadline): the run
# must degrade, journal a clean IFT verdict, and a --resume replay must
# exit 0 with the golden report's signatures and contracts.
LEAK_JOURNAL=$(mktemp -t synthlc-fault-smoke-leak.XXXXXX)
LEAK_ERR=$(mktemp -t synthlc-fault-smoke-leak-err.XXXXXX)
trap 'rm -f "$JOURNAL" "$LEAK_JOURNAL" "$LEAK_ERR"' EXIT
rm -f "$LEAK_JOURNAL"
set +e
SYNTHLC_FAULT_SEED=3 cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  leak minicache lw --fault-rate 0.5 --journal "$LEAK_JOURNAL" >/dev/null 2>"$LEAK_ERR"
FAULT_EXIT=$?
set -e
if [ "$FAULT_EXIT" != 2 ]; then
  echo "fault-smoke: expected exit 2 from the faulted leak run, got $FAULT_EXIT" >&2
  cat "$LEAK_ERR" >&2
  exit 1
fi
if ! grep -q '^{"k":"ift:' "$LEAK_JOURNAL"; then
  echo "fault-smoke: leak journal has no IFT record:" >&2
  cat "$LEAK_JOURNAL" >&2
  exit 1
fi
if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  leak minicache lw --resume "$LEAK_JOURNAL" | sed -n '/^leakage signatures/,$p' |
  diff -u <(sed -n '/^leakage signatures/,$p' tests/golden/leak_minicache_lw.txt) -; then
  echo "fault-smoke: resumed leak run drifted from tests/golden/leak_minicache_lw.txt" >&2
  exit 1
fi
# The retry leg. Seed 5 (CI_RETRY_SMOKE_SEED in
# tests/parallel_determinism.rs, pinned there) at rate 0.5 expires the
# deadline of one IFT unit's first attempt and runs its retry clean. Every
# attempt runs on fresh checkers, so the recovered run must exit 0, report
# its retry on a `recovered:` line, and otherwise print the golden report
# byte for byte, `solver:` line included.
RETRY_OUT=$(mktemp -t synthlc-fault-smoke-retry.XXXXXX)
trap 'rm -f "$JOURNAL" "$LEAK_JOURNAL" "$LEAK_ERR" "$RETRY_OUT"' EXIT
if ! SYNTHLC_FAULT_SEED=5 cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  leak minicache lw --fault-rate 0.5 --retries 3 >"$RETRY_OUT"; then
  echo "fault-smoke: the --retries run must recover and exit 0" >&2
  cat "$RETRY_OUT" >&2
  exit 1
fi
if ! grep -q '^recovered: 0 resumed job(s), [1-9][0-9]* retry attempt(s)$' "$RETRY_OUT"; then
  echo "fault-smoke: the --retries run printed no recovered: line with a retry:" >&2
  cat "$RETRY_OUT" >&2
  exit 1
fi
if ! grep -v '^recovered: ' "$RETRY_OUT" | diff -u tests/golden/leak_minicache_lw.txt -; then
  echo "fault-smoke: the recovered run drifted from tests/golden/leak_minicache_lw.txt" >&2
  exit 1
fi
echo "fault-smoke OK (degrade -> journal -> resume clean, µPATH and IFT phases; retries recover the clean report)"

echo "== incremental-smoke (cone-granular re-verification after an edit) =="
# The edit-locality contract of the cone-granular verdict cache
# (DESIGN.md §14), end to end through the CLI: journal a full leakage
# run on the pristine cache DUV, apply a pinned one-gate edit —
# rsp_data's reset value, a pure-data register outside every queried
# cone — and resume. Every cone must answer from the cache (>=1 hit,
# 0 misses); the cones the edit does not touch are never re-solved.
EDIT_JOURNAL=$(mktemp -t synthlc-edit-smoke.XXXXXX)
EDIT_NL=$(mktemp -t synthlc-edit-smoke-XXXXXX.nl)
trap 'rm -f "$JOURNAL" "$LEAK_JOURNAL" "$LEAK_ERR" "$RETRY_OUT" "$EDIT_JOURNAL" "$EDIT_NL"' EXIT
rm -f "$EDIT_JOURNAL"
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  leak examples/minicache.nl lw --journal "$EDIT_JOURNAL" >/dev/null
sed 's/^  reg rsp_data : w8 = 0$/  reg rsp_data : w8 = 1/' \
  examples/minicache.nl > "$EDIT_NL"
if cmp -s examples/minicache.nl "$EDIT_NL"; then
  echo "incremental-smoke: the pinned rsp_data edit did not apply" >&2
  exit 1
fi
WARM_OUT=$(cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  leak "$EDIT_NL" lw --resume "$EDIT_JOURNAL")
CONE_LINE=$(printf '%s\n' "$WARM_OUT" | grep '^cone cache: ' || true)
if [ -z "$CONE_LINE" ]; then
  echo "incremental-smoke: resumed run printed no cone-cache summary:" >&2
  printf '%s\n' "$WARM_OUT" >&2
  exit 1
fi
CONE_HITS=$(printf '%s' "$CONE_LINE" | sed -n 's/^cone cache: \([0-9]*\) hit.*/\1/p')
CONE_MISSES=$(printf '%s' "$CONE_LINE" | sed -n 's/.* \([0-9]*\) miss(es)$/\1/p')
if [ "${CONE_HITS:-0}" -lt 1 ] || [ "${CONE_MISSES:-1}" != 0 ]; then
  echo "incremental-smoke: out-of-cone edit must replay everything, got: $CONE_LINE" >&2
  exit 1
fi
echo "incremental-smoke OK ($CONE_LINE after the rsp_data edit)"

echo "== frontend (textual netlist: goldens, diagnostics, text oracle) =="
# The frontend gate has five legs:
#   1. every shipped examples/*.nl passes `check --deny-warnings` (the
#      designs we tell users to imitate must be diagnostic-clean);
#   2. `check --emit` reproduces each golden byte-for-byte (the canonical
#      emitter is a fixpoint on its own output);
#   3. the golden-file and diagnostic-snapshot test suites pass (emission
#      drift and message drift both show up as readable diffs);
#   4. two processes render every diagnostic-corpus file identically, so
#      a report that follows a hash map's per-process order fails here;
#   5. a 200-design fuzz sweep of the text oracle alone: emit -> check ->
#      lower must stay diagnostic-free and structurally faithful on
#      random netlists, not just the shipped six.
for NL in examples/*.nl; do
  cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    check "$NL" --deny-warnings >/dev/null
  if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    check "$NL" --emit | diff -q - "$NL" >/dev/null; then
    echo "frontend: $NL is not an emission fixpoint" >&2
    exit 1
  fi
done
cargo test -q "${OFFLINE[@]}" --test frontend_roundtrip
cargo test -q "${OFFLINE[@]}" -p netlist --test diag_snapshots
for NL in crates/netlist/tests/diag/*.nl; do
  if ! cmp -s \
    <(cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- check "$NL" 2>&1) \
    <(cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- check "$NL" 2>&1); then
    echo "frontend: two runs of \`check $NL\` differ" >&2
    exit 1
  fi
done
if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  fuzz --seed 7 --cases 200 --oracles text --deadline-secs 45 >/dev/null; then
  echo "frontend: text-oracle fuzz sweep failed (repro above, if any)" >&2
  exit 1
fi
echo "frontend OK (goldens clean + fixpoint, snapshots, run-to-run diagnostics, 200-seed text oracle)"

echo "== fuzz-smoke (differential oracles, pinned seeds) =="
# Two pinned seeds x 64 designs, each design through all eight oracles
# (sat, bmc, induction, reductions, ift, text, incremental, cone), under
# a hard 90s wall budget split across the runs. Exit 0 = all oracles
# agreed; exit 1 = mismatch (the CLI already printed the minimized repro
# JSON line to stderr — replay it with `synthlc-cli fuzz`); exit 2 =
# deadline truncated the sweep before 64 designs, which this gate also
# treats as a failure.
for SEED in 1 20260806; do
  if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    fuzz --seed "$SEED" --cases 64 --deadline-secs 45 >/dev/null; then
    echo "fuzz-smoke: seed $SEED failed (mismatch repro JSON above, if any)" >&2
    exit 1
  fi
done
# The cases run on the engine threads and fold into the report in case
# order, so the report must not depend on the thread count; and it is
# pinned, so an oracle refactor that moves any count fails here.
for T in 1 2; do
  if ! SYNTHLC_THREADS=$T cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
    fuzz --seed 1 --cases 64 | diff -u tests/golden/fuzz_seed1_64.txt -; then
    echo "fuzz-smoke: seed 1 report at SYNTHLC_THREADS=$T drifted from tests/golden/fuzz_seed1_64.txt" >&2
    exit 1
  fi
done
# A dedicated deeper sweep of the incremental oracle alone: 256 designs'
# property fleets through one persistent pooled solver vs. fresh
# per-query solvers (batch restarts, in-place bound extension, witness
# replay on every reachable leg).
if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  fuzz --seed 11 --cases 256 --oracles incremental --deadline-secs 30 >/dev/null; then
  echo "fuzz-smoke: incremental-oracle sweep failed (repro above, if any)" >&2
  exit 1
fi
# And of the cone oracle alone: 64 designs' verdict fleets cached by
# cone fingerprint, one random in-place edit each, warm resume vs.
# fresh re-verification (hits must replay their cached witnesses on the
# edited design; a miss takes the fresh verdict, which is what a cone
# cache's miss path solves).
if ! cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  fuzz --seed 13 --cases 64 --oracles cone --deadline-secs 30 >/dev/null; then
  echo "fuzz-smoke: cone-oracle sweep failed (repro above, if any)" >&2
  exit 1
fi
echo "fuzz-smoke OK (2 seeds x 64 designs, eight oracles, zero mismatches, seed 1 matches its golden at 1 and 2 threads)"

echo "== serve-smoke (daemon: retry a worker panic, cache hit, drain) =="
# The daemon leg of the fault-smoke contract. SYNTHLC_FAULT_SEED=209
# (serve::CI_SMOKE_SEED, pinned by a unit test) at rate 0.5 plans a
# worker panic for the first job's first attempt and a clean retry, so:
#   1. `leak minicache lw` must survive its injected panic and exit 0;
#   2. an identical resubmission must be a cache hit (no re-solve);
#   3. `stats` must show retried >= 1 and cache_hits >= 1;
#   4. the same job naming examples/minicache.nl must be a store hit too;
#   5. a client `shutdown` must drain the queue and exit the daemon 0.
SERVE_JOURNAL=$(mktemp -t synthlc-serve-smoke.XXXXXX)
SERVE_LOG=$(mktemp -t synthlc-serve-log.XXXXXX)
trap 'rm -f "$JOURNAL" "$LEAK_JOURNAL" "$LEAK_ERR" "$RETRY_OUT" "$EDIT_JOURNAL" "$EDIT_NL" "$SERVE_JOURNAL" "$SERVE_LOG"; kill "${SERVE_PID:-}" 2>/dev/null || true' EXIT
rm -f "$SERVE_JOURNAL"
SYNTHLC_FAULT_SEED=209 cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  serve --port 0 --workers 1 --retries 2 --fault-rate 0.5 \
  --journal "$SERVE_JOURNAL" > "$SERVE_LOG" &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 100); do
  SERVE_ADDR=$(sed -n 's/^listening on //p' "$SERVE_LOG")
  [ -n "$SERVE_ADDR" ] && break
  sleep 0.2
done
if [ -z "$SERVE_ADDR" ]; then
  echo "serve-smoke: daemon never printed its address" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi
# Leg 1: the first job draws the planned worker panic, retries, exits 0.
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  client "$SERVE_ADDR" leak minicache lw --id smoke1 > /dev/null
# Leg 2: identical job again — must be answered from the verdict store.
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  client "$SERVE_ADDR" leak minicache lw --id smoke2 > /dev/null
STATS=$(cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  client "$SERVE_ADDR" stats)
for WANT in '"retried":' '"cache_hits":'; do
  if ! printf '%s' "$STATS" | grep -q "$WANT"; then
    echo "serve-smoke: stats lack $WANT: $STATS" >&2
    exit 1
  fi
done
RETRIED=$(printf '%s' "$STATS" | sed -n 's/.*"retried":\([0-9]*\).*/\1/p')
HITS=$(printf '%s' "$STATS" | sed -n 's/.*"cache_hits":\([0-9]*\).*/\1/p')
if [ "${RETRIED:-0}" -lt 1 ] || [ "${HITS:-0}" -lt 1 ]; then
  echo "serve-smoke: expected retried>=1 and cache_hits>=1, got $STATS" >&2
  exit 1
fi
# Leg 3: store keys hash design source bytes, and examples/minicache.nl is
# the built-in's canonical emission, so naming the file is the same job:
# job-level hits (cache_hits − cone_hits) must rise by exactly one.
job_hits() {
  local hits cones
  hits=$(printf '%s' "$1" | sed -n 's/.*"cache_hits":\([0-9]*\).*/\1/p')
  cones=$(printf '%s' "$1" | sed -n 's/.*"cone_hits":\([0-9]*\).*/\1/p')
  echo $(( ${hits:-0} - ${cones:-0} ))
}
BEFORE=$(job_hits "$STATS")
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  client "$SERVE_ADDR" leak "$PWD/examples/minicache.nl" lw --id smoke3 > /dev/null
STATS=$(cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  client "$SERVE_ADDR" stats)
if [ "$(job_hits "$STATS")" != $((BEFORE + 1)) ]; then
  echo "serve-smoke: leak examples/minicache.nl lw was not a store hit: $STATS" >&2
  exit 1
fi
# Leg 4: graceful shutdown drains and the daemon exits 0.
cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  client "$SERVE_ADDR" shutdown > /dev/null
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
if [ "$SERVE_EXIT" != 0 ]; then
  echo "serve-smoke: daemon exited $SERVE_EXIT after graceful shutdown" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi
echo "serve-smoke OK (panic retried to exit 0, cache hits by name and by file, graceful drain)"

echo "== sat-regression (DIMACS corpus, one-shot and pooled) =="
# Every corpus file encodes its brute-force-verified status in its name;
# the CLI must reproduce it through the SAT-competition exit codes
# (10 = SAT, 20 = UNSAT). CDCL-vs-DPLL agreement on generated CNFs is
# fuzz-smoke's job (oracle `sat`).
for CNF in crates/sat/tests/corpus/*.cnf; do
  case "$CNF" in
    *-sat.cnf)   WANT=10 ;;
    *-unsat.cnf) WANT=20 ;;
    *) echo "sat-regression: $CNF has no -sat/-unsat suffix" >&2; exit 1 ;;
  esac
  set +e
  cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- sat "$CNF" >/dev/null
  GOT=$?
  set -e
  if [ "$GOT" != "$WANT" ]; then
    echo "sat-regression: $CNF exited $GOT, expected $WANT" >&2
    exit 1
  fi
done
# Incremental replay: the same corpus loaded into ONE pooled solver
# (per-file activation literals, solve_assuming per file) must reproduce
# every one-shot verdict, with learnt clauses carried across files.
set +e
INC_OUT=$(cargo run -q --release "${OFFLINE[@]}" --bin synthlc-cli -- \
  sat --incremental crates/sat/tests/corpus/*.cnf)
INC_EXIT=$?
set -e
N_FILES=$(ls crates/sat/tests/corpus/*.cnf | wc -l)
N_LINES=$(printf '%s\n' "$INC_OUT" | wc -l)
if [ "$N_LINES" != "$N_FILES" ]; then
  echo "sat-regression: incremental replay printed $N_LINES verdicts for $N_FILES files" >&2
  exit 1
fi
while IFS= read -r LINE; do
  FILE=${LINE%%: *}
  case "$FILE" in
    *-sat.cnf)   WANT="s SATISFIABLE" ;;
    *-unsat.cnf) WANT="s UNSATISFIABLE" ;;
    *) echo "sat-regression: unexpected incremental verdict line: $LINE" >&2; exit 1 ;;
  esac
  if [ "$LINE" != "$FILE: $WANT" ]; then
    echo "sat-regression: pooled verdict drifted: got '$LINE', want '$FILE: $WANT'" >&2
    exit 1
  fi
done <<< "$INC_OUT"
# The exit code follows the last corpus file (xor-contra-unsat -> 20),
# unchanged from the one-shot convention.
if [ "$INC_EXIT" != 20 ]; then
  echo "sat-regression: incremental replay exited $INC_EXIT, expected 20" >&2
  exit 1
fi
echo "sat-regression OK (corpus exit codes, one-solver incremental replay)"

echo "== perfbench-smoke (benchmark builds and runs its tiny-size mode) =="
# perfbench is its own package outside the workspace and calls layer
# functions (Elab::new, CoiSlice::compute, Unrolling::extend_to, ...)
# directly, so API drift in those layers only shows here. Its smoke test
# runs every workload at tiny size, untraced and traced.
cargo test -q --release "${OFFLINE[@]}" --manifest-path perfbench/Cargo.toml
echo "perfbench-smoke OK"

echo "CI OK"
