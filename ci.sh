#!/bin/bash
# Repo CI gate: formatting, lints, the pnoc-verify correctness gate, and
# the full test suite. Run before committing; run_harnesses.sh invokes it
# first so harness results always come from a clean tree.
set -e
cd "$(dirname "$0")"

# --deep: append the pre-merge deep-fuzz job (10k differential cases unless
# PNOC_FUZZ_CASES says otherwise) after the standard gate, and compare the
# full-fidelity results/ outputs with a fresh run. The default quick gate is
# unchanged; see EXPERIMENTS.md "Pre-merge deep fuzz" for when a PR must run
# this.
DEEP=0
for arg in "$@"; do
  case "$arg" in
    --deep) DEEP=1 ;;
    *)
      echo "ci.sh: unknown argument '$arg' (supported: --deep)" >&2
      exit 2
      ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings; pedantic in pnoc-noc and pnoc-fleet) =="
# The simulator core is held to a stricter bar than the rest of the
# workspace: crates/noc/src/lib.rs enables clippy::pedantic crate-wide
# (with a short, justified allow list), and -D warnings makes every
# pedantic finding an error here. The fleet layer gets the same pedantic
# treatment (crate-level attribute in crates/fleet/src/lib.rs). The
# attributes live in the crates rather than on this command line so the
# vendored path dependencies are not swept into the stricter lint set, and
# this one workspace pass enforces them.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy pedantic (pnoc-fleet, model-sync build) =="
# The model-sync build compiles the fleet against the model scheduler, so
# the model checker itself is held to the pedantic bar too.
cargo clippy -p pnoc-fleet --all-targets --features model-sync --offline -- -D warnings

echo "== pnoc-verify (lints + model check + invariant audit) =="
# Custom determinism lints (exemptions live in crates/verify/allowlist.txt —
# additions show up as a diff to that file), bounded model checking of the
# handshake/credit FSMs, and the cycle-level invariant audit of full runs.
# The audit matrix includes admission-enabled multi-tenant runs, where the
# per-class starvation audit (no backlogged class unserved for a full
# refill window) is chained onto the conservation checks.
# The lint set includes the concurrency rules: fleet code must route
# synchronization through its crate::sync facade, Ordering::Relaxed is
# allowlist-only, and unsafe blocks require // SAFETY: comments.
cargo run --release -q -p pnoc-verify --offline -- --all

echo "== pnoc-fleet concurrency model check (mini-loom) =="
# Exhaustive bounded interleaving exploration of the fleet's two
# protocols — deque push/steal and the queued/idle park/wake handshake —
# with the shipping executor code compiled against the deterministic model
# scheduler (modeled weak memory, mandatory spurious wakeups, preemption
# bounding).
# Then the sabotage self-test: with sabotage-lost-wake compiled in (the
# idle decrement moved before the condvar wait in Core::park, reopening
# the classic check-then-sleep race), the checker must FIND the lost-wakeup
# interleaving and report it as a deadlock with a trace — proving the model
# check is alive, not vacuously green.
cargo test -q -p pnoc-fleet --features model-sync --offline --lib
cargo test -q -p pnoc-fleet --features "model-sync sabotage-lost-wake" --offline --lib

echo "== pnoc-fleet suite at thread extremes =="
# The executor must behave identically degenerate (one worker: stealing
# never fires, parking is pure handshake) and oversubscribed (32 workers on
# fewer cores: maximal preemption noise). PNOC_THREADS overrides the width
# of every scenario-agnostic fleet in the suite (Fleet::with_suite_threads);
# tests whose assertions demand a particular width keep explicit counts.
PNOC_THREADS=1 cargo test -q -p pnoc-fleet --offline
PNOC_THREADS=32 cargo test -q -p pnoc-fleet --offline

echo "== pnoc-oracle differential smoke (fuzz --quick) =="
# Differential testing against the independent reference simulator: 200
# generated cases (override the count with PNOC_FUZZ_CASES) spanning all 7
# paper schemes, half with fault schedules and roughly a third with
# multi-tenant QoS configs (tenant mixes + per-class token-bucket
# admission — the oracle carries its own independent admission mirror),
# must show zero divergences in counters, per-packet ejection logs, and
# drain state. Then the sabotage
# self-test on the same build: with duplicate suppression disabled at run
# time in pnoc-noc only (FuzzCase::sabotage), the harness must DETECT the
# divergence and shrink it — proving the diff is alive, not vacuously
# green.
cargo run --release -q -p pnoc-oracle --offline --bin fuzz -- --quick
cargo run --release -q -p pnoc-oracle --offline --bin fuzz -- --sabotage-check

echo "== build pnoc (every pnoc-bench tool) =="
# One binary holds the figure harnesses and the fleet, serve, obs, trace and
# perf tools; every smoke below runs its subcommands.
cargo build --release -q -p pnoc-bench --offline --bin pnoc
PNOC=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/pnoc

echo "== pnoc-fleet checkpoint/resume smoke (kill mid-flight, byte-identical) =="
# The fleet engine's headline guarantee, exercised at the process level:
# a sweep killed mid-flight (exit code 3) and resumed from its checkpoint
# journal must produce a report byte-identical to the uninterrupted run.
# The demo spec is 24 jobs; --kill-after 9 dies with 15 still outstanding,
# so the resume genuinely recomputes work rather than replaying a
# fully-complete journal. Before the resume, half a snapshot line is
# appended to the journal, as a kill in the middle of a write would leave
# it: the tail-first reader must skip it and fall back to the last whole
# snapshot.
FLEET_DIR=target/fleet-smoke
rm -rf "$FLEET_DIR" && mkdir -p "$FLEET_DIR"
"$PNOC" fleet --out "$FLEET_DIR/ref.json"
rc=0
"$PNOC" fleet --ckpt "$FLEET_DIR/sweep.ckpt" --ckpt-every 4 --kill-after 9 \
  --out "$FLEET_DIR/never.json" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "fleet smoke: expected kill exit code 3, got $rc" >&2
  exit 1
fi
if [ -e "$FLEET_DIR/never.json" ]; then
  echo "fleet smoke: killed run must not write its output file" >&2
  exit 1
fi
printf '{"seq":99,"completed":{"ranges":[{"lo":0,' >> "$FLEET_DIR/sweep.ckpt"
"$PNOC" fleet --ckpt "$FLEET_DIR/sweep.ckpt" --ckpt-every 4 \
  --out "$FLEET_DIR/resumed.json"
cmp "$FLEET_DIR/ref.json" "$FLEET_DIR/resumed.json"
echo "fleet smoke: interrupted+resumed report (torn tail skipped) is byte-identical"

echo "== pnoc-bench serve smoke (NDJSON protocol) =="
# One scripted session: set ckpt_every (the reply echoes the applied knobs
# and epoch 1), reject a sweep whose hotspot target is past the base's
# node count (an error line rather than a panicking worker that kills the
# service, so the next sweep still runs), run a small sweep (streams one
# cell line per aggregation cell, then a done line), reject a mistyped set, a malformed line, a
# line nested 100k arrays deep (past the JSON parser's depth limit, so an
# error rather than a stack overflow), a sweep whose warmup + measure +
# drain overflows u64 (an error rather than an empty "complete" cell) and a
# sweep whose cells × replicas overflows u64 (an error rather than a
# wrapped job count of 0) with one error line each, shut down cleanly.
NESTED=$(head -c 100000 /dev/zero | tr '\0' '[')
printf '%s\n' \
  '{"set":{"ckpt_every":4}}' \
  '{"id":"hotspot","sweep":{"base":"Small","schemes":["TokenSlot"],"patterns":[{"Hotspot":{"target":999,"fraction":0.5}}],"rates":[0.05],"replicas":1,"master_seed":7,"warmup":50,"measure":200,"drain":50}}' \
  '{"id":"ci","sweep":{"base":"Small","schemes":["TokenSlot"],"patterns":["UniformRandom"],"rates":[0.05,0.1],"replicas":2,"master_seed":7,"warmup":50,"measure":200,"drain":50}}' \
  '{"set":{"ckpt_every":"4"}}' \
  'this is not json' \
  "$NESTED" \
  '{"id":"overflow","sweep":{"base":"Small","schemes":["TokenSlot"],"patterns":["UniformRandom"],"rates":[0.05],"replicas":1,"master_seed":7,"warmup":18446744073709551615,"measure":200,"drain":50}}' \
  '{"id":"jobs","sweep":{"base":"Small","schemes":["TokenSlot","TokenChannel"],"patterns":["UniformRandom"],"rates":[0.05],"replicas":9223372036854775808,"master_seed":7,"warmup":50,"measure":200,"drain":50}}' \
  '{"shutdown":true}' \
  | "$PNOC" serve > "$FLEET_DIR/serve.ndjson"
grep -q '"ok":true,"epoch":1,"ckpt_every":4' "$FLEET_DIR/serve.ndjson"
grep -q '"done":true' "$FLEET_DIR/serve.ndjson"
grep -q '"complete":true' "$FLEET_DIR/serve.ndjson"
errors=$(grep -c '"error":' "$FLEET_DIR/serve.ndjson" || true)
if [ "$errors" -ne 6 ]; then
  echo "serve smoke: expected 6 error lines (out-of-range hotspot, mistyped set, non-JSON, too deep, overflowing plan, overflowing job count), got $errors" >&2
  exit 1
fi
grep -q '"bye":true' "$FLEET_DIR/serve.ndjson"
# Every error line of a sweep request names the request.
grep '"error":' "$FLEET_DIR/serve.ndjson" | grep -q '"id":"hotspot"'
echo "serve smoke: set/sweep/errors/shutdown all answered"

echo "== results gate (quick figure outputs vs results/quick) =="
# Regenerate the --quick stdout and --json export of every figure harness
# and compare them byte for byte with the copies checked in under
# results/quick/. A change that moves a figure fails here; a change meant
# to move one regenerates results/quick/ and says why (EXPERIMENTS.md
# "Refreshing the quick figure outputs").
QUICK_DIR=target/quick-results
rm -rf "$QUICK_DIR"
./quick_results.sh "$QUICK_DIR"
diff -r results/quick "$QUICK_DIR"
echo "results gate: every quick figure output is byte-identical"

if [ "$DEEP" -eq 1 ]; then
  echo "== results gate, full fidelity (results/ vs a fresh run) =="
  # Rerun every harness whose full-fidelity output is checked in, with
  # run_harnesses.sh's flags, inside a scratch directory laid out like the
  # repo (so the `wrote results/...` lines match), and diff the tree
  # against results/: a changed, missing or extra .txt, SVG or JSON fails.
  FULL_DIR=target/full-results
  rm -rf "$FULL_DIR" && mkdir -p "$FULL_DIR/results/json"
  for name in table1 fig12 fig2b fig8 fig9 fig10 ipc ablations swmr mesh_vs_ring fig11 resilience fairness; do
    (cd "$FULL_DIR" && "$PNOC" figure "$name" --svg results --json results/json > "results/$name.txt" 2>&1)
  done
  diff -r -x quick -x README.md results "$FULL_DIR/results"
  echo "results gate: every full-fidelity figure output is byte-identical"
fi

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== perfbench build + self-test =="
# The repo benchmark (perfbench/, its own cargo workspace) builds against
# the workspace crates by path. Building and testing it here makes a
# public-API change in pnoc-noc/pnoc-fleet/... that breaks the benchmark
# fail CI instead of the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== obs smoke =="
# The demo harness attaches the event trace and occupancy sampler at run
# time, exports a trace + occupancy timeline and reports a finite p99 on a
# deliberately saturated run. (That attaching them never perturbs the run,
# and that the trace agrees with the metrics counters, is pinned by
# crates/noc/tests/obs_trace.rs in the workspace suite above.)
"$PNOC" obs --quick --out target/obs-smoke

echo "== trace gate (PTRC round-trip, corruption fuzz, replay pin, RSS smoke) =="
# The streaming-trace subsystem's correctness contract (DESIGN.md §17):
#  1. property + corruption suites: write→read identity across chunk sizes,
#     every single-byte flip / truncation / chunk reorder rejected as
#     InvalidData with no phantom events, and the frozen golden.ptrc
#     fixture still byte-exact;
#  2. record→replay on the shipped binary: `pnoc trace record` a live run,
#     `pnoc trace replay` the file, require byte-identical summary JSON (the
#     per-scheme replay pin, fault schedules included, is
#     tests/replay_identical.rs in the workspace suite above);
#  3. bounded-memory smoke: generate a multi-chunk trace with the
#     streaming generator and re-ingest it under a peak-RSS ceiling far
#     below the trace's decoded size — the operational proof that
#     ingestion is O(chunk), not O(trace).
cargo test -q -p pnoc-trace --offline
TRACE_DIR=target/trace-smoke
rm -rf "$TRACE_DIR" && mkdir -p "$TRACE_DIR"
"$PNOC" trace record --quick --scheme dhs-setaside --out "$TRACE_DIR/recorded.ptrc" \
  | sed -n 's/^recorded .*; summary: //p' > "$TRACE_DIR/recorded.json"
"$PNOC" trace replay "$TRACE_DIR/recorded.ptrc" --quick --scheme dhs-setaside \
  > "$TRACE_DIR/replayed.json"
test -s "$TRACE_DIR/recorded.json"
cmp "$TRACE_DIR/recorded.json" "$TRACE_DIR/replayed.json"
"$PNOC" trace gen --app nas.is --cores 256 --nodes 64 --length 60000 --seed 7 \
  --out "$TRACE_DIR/smoke.ptrc"
"$PNOC" trace ingest "$TRACE_DIR/smoke.ptrc" --max-rss-mb 64
echo "trace gate: format, replay, and bounded-memory ingestion hold"

echo "== trace-ingestion baseline (quick vs BENCH_trace.json) =="
# Trace data-path regression gate, the sibling of the perf gate below:
# re-measure PTRC encode (streaming synthesis) and decode (streaming
# ingest, CRC checked) throughput at reduced length and fail if either
# dropped more than the tolerance in pnoc_bench::trace_bench against the
# checked-in BENCH_trace.json. Same baseline bookkeeping as BENCH_perf:
# refresh deliberately with `pnoc trace bench --quick --json
# BENCH_trace.json`; BENCH_trace.ci.json is gitignored per-run scratch.
"$PNOC" trace bench --quick --json BENCH_trace.ci.json --check BENCH_trace.json

echo "== perf baseline (quick sweep vs BENCH_perf.json) =="
# Simulator-throughput regression gate: re-measure the 64-node sweep at
# reduced fidelity, validate the report schema, and fail if aggregate
# cycles/sec dropped more than the tolerance in pnoc_bench::perf against
# the checked-in baseline.
#
# Baseline bookkeeping — there is exactly ONE checked-in baseline:
#   BENCH_perf.json     the committed reference, refreshed deliberately via
#                       `pnoc perf --quick --json BENCH_perf.json` when a
#                       PR intentionally shifts throughput.
#   BENCH_perf.ci.json  gitignored per-run scratch output, written below so
#                       a failing gate leaves the fresh numbers on disk for
#                       inspection. Never commit it; a stray copy in the
#                       repo root is stale garbage and should be deleted.
# The observation hooks are compiled in and detached here, as in every
# build: their detached branches must keep throughput inside the tolerance.
"$PNOC" perf --quick --json BENCH_perf.ci.json --check BENCH_perf.json

if [ "$DEEP" -eq 1 ]; then
  echo "== pnoc-oracle deep fuzz (${PNOC_FUZZ_CASES:-10000} cases) =="
  # Pre-merge depth for PRs that touch the simulator hot path: the same
  # differential harness as the smoke gate above, at 50x the case count.
  # PNOC_FUZZ_CASES overrides the depth (the harness reads it only under
  # --quick, so pass an explicit --cases here).
  cargo run --release -q -p pnoc-oracle --offline --bin fuzz -- \
    --cases "${PNOC_FUZZ_CASES:-10000}"

  echo "== multi-tenant QoS sweep sample (pnoc fleet --qos) =="
  # The built-in QoS demo: every tenant mix crossed with the demo grid
  # under token-bucket admission. Checks the tenant axis end to end —
  # spec decomposition, classed sources, admission in the arbiters, and
  # the per-class fairness column in the streamed report.
  "$PNOC" fleet --qos --out "$FLEET_DIR/qos.json"
  grep -q '"mix": "EM"' "$FLEET_DIR/qos.json"
  grep -q '"mix": "HT"' "$FLEET_DIR/qos.json"
  grep -q '"class_jain"' "$FLEET_DIR/qos.json"
  echo "qos sweep sample: tenant mixes and per-class fairness present"
fi

echo CI_OK
