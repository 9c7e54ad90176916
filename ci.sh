#!/usr/bin/env bash
# Local CI: formatting, lints, docs, release build, full test suite, and a
# cluster-engine smoke run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo deny (licenses, advisories)"
# Supply-chain gate, configured in deny.toml. The tool is not part of the
# minimal toolchain image, so skip (loudly) where it is absent.
if command -v cargo-deny >/dev/null 2>&1; then
  cargo deny check licenses advisories
else
  echo "cargo-deny not installed; skipping (install with: cargo install cargo-deny)"
fi

echo "== panic-site ratchet (panic_sites.txt)"
# Non-test panic!/unreachable!/assert*!/.expect( sites per crate under
# crates/*/src (comment lines and #[cfg(test)] blocks excluded). A crate
# may only lower its count; lower the baseline in the same change.
count_panic_sites() {
  for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
      FNR == 1 { skip = 0 }
      !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0 }
      skip {
        o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c
        if (o > 0) opened = 1
        if (opened && depth <= 0) skip = 0
        next
      }
      /^[[:space:]]*\/\// { next }
      { n += gsub(/(panic|unreachable|(debug_)?assert(_eq|_ne)?)!\(|\.expect\(/, "&") }
      END { print n + 0 }')
    echo "$crate $n"
  done
}
count_panic_sites | while read -r crate n; do
  base=$(awk -v c="$crate" '$1 == c { print $2 }' panic_sites.txt)
  if [ "$n" -gt "${base:-0}" ]; then
    echo "panic sites in crates/$crate rose: $n > baseline ${base:-0}" >&2
    exit 1
  elif [ "$n" -lt "${base:-0}" ]; then
    echo "crates/$crate: $n panic sites, below baseline $base; lower panic_sites.txt"
  fi
done

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== wallbench build and tests"
# The benchmark is a workspace of its own over path dependencies on
# crates/*, so the workspace steps above neither build nor test it: a
# library change that breaks it shows here, not first in a benchmark run.
cargo test --offline -q --manifest-path wallbench/Cargo.toml

echo "== scenario golden round-trip (--dump-scenario)"
# Every golden scenario file must load, re-serialize byte-identically,
# and be accepted by its binary: the scenario spec's fixed-point check.
scenario_bin() {
  case "$1" in
    fig5_4node) echo fig5_full_benchmark ;;
    whatif_record*) echo whatif ;;
    *) echo "$1" ;;
  esac
}
for f in scenarios/*.json; do
  name=$(basename "$f" .json)
  bin=$(scenario_bin "$name")
  cargo run --release -p repro-bench --bin "$bin" -- \
    --scenario "$f" --dump-scenario | diff - "$f" >/dev/null || {
    echo "scenario round-trip failed for $f" >&2
    exit 1
  }
done

echo "== simlint scenario gate (scenarios/*.json)"
# Every golden scenario must pass the static analyzer with zero
# error-severity findings (warnings are allowed but printed). Exit 1
# from the lint binary means an admission-blocking diagnostic.
for f in scenarios/*.json; do
  cargo run --release -p repro-bench --bin lint -- --scenario "$f" || {
    echo "simlint gate failed for $f" >&2
    exit 1
  }
done

echo "== fig5 cluster smoke (scenarios/fig5_4node.json)"
# The JSONL traces it writes are checked line by line further down.
rm -f target/ci_fig5_trace-*.jsonl
cargo run --release -p repro-bench --bin fig5_full_benchmark -- \
  --scenario scenarios/fig5_4node.json --trace-out target/ci_fig5_trace.jsonl >/dev/null

echo "== engine-throughput bench (smoke mode)"
# Validates the bench harness end to end and the shape of the JSON it
# emits; the numbers themselves are not gated here (machine-dependent).
# Absolute path: the bench binary's cwd is the package dir, not the root.
bench_json="$PWD/target/ci_bench_engine.json"
BENCH_ENGINE_SMOKE=1 BENCH_ENGINE_OUT="$bench_json" \
  cargo bench -q -p repro-bench --bench engine >/dev/null
jq -e '
  .mode == "smoke"
  and (.results | length == 6)
  and (.results | all(.events_per_sec > 0 and .iters > 0))
  and ([.results[].nodes] | unique == [1, 8, 64])
' "$bench_json" >/dev/null || {
  echo "BENCH_engine.json malformed:" >&2
  cat "$bench_json" >&2
  exit 1
}
rm -f "$bench_json"

echo "== sweep-throughput bench (smoke mode)"
# Validates the batched (compile-once) vs naive sweep harness and its
# JSON shape: both paths must report throughput, the batched path must be
# faster, and its identity point must match the oracle bit for bit.
sweep_json="$PWD/target/ci_bench_sweep.json"
BENCH_SWEEP_SMOKE=1 BENCH_SWEEP_OUT="$sweep_json" \
  cargo bench -q -p repro-bench --bench sweep >/dev/null
jq -e '
  .mode == "smoke"
  and .grid_points == 120
  and .identity_bit_identical == true
  and (.results | length == 2)
  and (.results | all(.points_per_sec > 0 and .iters > 0))
  and .speedup_batched_vs_naive > 1
' "$sweep_json" >/dev/null || {
  echo "BENCH_sweep.json malformed:" >&2
  cat "$sweep_json" >&2
  exit 1
}
rm -f "$sweep_json"

echo "== whatif record->replay differential smoke"
# The identity replay must reproduce the recorded makespan bit for bit
# (the repricer's differential oracle); an H100-like preset must complete
# from the recorded charges alone.
workload="target/ci_whatif_workload.jsonl"
cargo run --release -p repro-bench --bin whatif -- \
  --scenario scenarios/whatif_record.json --record "$workload" >/dev/null
cargo run --release -p repro-bench --bin whatif -- --replay "$workload" \
  | grep "identity check: .* delta 0.000000000" >/dev/null
cargo run --release -p repro-bench --bin whatif -- --replay "$workload" --calib h100 \
  | grep "^makespan: " >/dev/null

echo "== record->lint smoke"
# A fresh recording straight off the runner must pass the workload-level
# analyzer cleanly (exit 0): the record path may not produce traces the
# admission gate would reject.
cargo run --release -p repro-bench --bin lint -- --recording "$workload"

echo "== whatif sweep smoke"
# The batched Pareto search over the same recording: a small grid with a
# loose deadline must evaluate points, extract a front and name a winner.
sweep_out=$(cargo run --release -p repro-bench --bin whatif -- sweep \
  --record "$workload" --gpus 2..4 --calib identity,h100 --deadline 1.0)
echo "$sweep_out" | grep -E "^sweep: 6 point\(s\), " >/dev/null
echo "$sweep_out" | grep -E "^pareto front: [1-9][0-9]* point\(s\)" >/dev/null
echo "$sweep_out" | grep "^best under deadline " >/dev/null

echo "== sweep --preflight bit-identity"
# The statically-gated sweep must serialize byte-identically to the
# unpruned sweep over the same grid (the analyzer predicts the exact
# errors replays would produce).
cargo run --release -p repro-bench --bin whatif -- sweep \
  --record "$workload" --gpus 1..4 --calib identity,h100 \
  --out target/ci_sweep_full.jsonl >/dev/null
cargo run --release -p repro-bench --bin whatif -- sweep \
  --record "$workload" --gpus 1..4 --calib identity,h100 --preflight \
  --out target/ci_sweep_preflight.jsonl | grep " rejected by preflight" >/dev/null
diff target/ci_sweep_full.jsonl target/ci_sweep_preflight.jsonl || {
  echo "preflight sweep output diverged from the unpruned sweep" >&2
  exit 1
}
rm -f target/ci_sweep_full.jsonl target/ci_sweep_preflight.jsonl

echo "== golden sweep bit-identity (whatif sweep --out vs checked-in JSONL)"
# The CLI sweep over the golden grid, without and with overlapped
# transfers, must reproduce the checked-in file byte for byte (the same
# file pins the library path in crates/bench/tests/golden_replay.rs).
golden_grid="gpus=1,2,4,8;calib=identity,h100,a100-nvlink;schedule=auto,mps,timeslice,fifo,priority"
overlap_workload="target/ci_whatif_workload_overlap.jsonl"
cargo run --release -p repro-bench --bin whatif -- \
  --scenario scenarios/whatif_record.json --overlap --record "$overlap_workload" >/dev/null
for w in "$workload" "$overlap_workload"; do
  cargo run --release -p repro-bench --bin whatif -- sweep \
    --record "$w" --grid "$golden_grid" --out "$w.sweep" >/dev/null
done
cat "$workload.sweep" "$overlap_workload.sweep" \
  | diff - crates/bench/tests/golden/sweep_whatif_record.jsonl || {
  echo "golden sweep output diverged from crates/bench/tests/golden/sweep_whatif_record.jsonl" >&2
  exit 1
}
# The sweep fans grid points out over worker threads; the same file pins
# one worker (inline, no threads) and three (uneven shares).
for threads in 1 3; do
  for w in "$workload" "$overlap_workload"; do
    RAYON_NUM_THREADS=$threads cargo run --release -p repro-bench --bin whatif -- sweep \
      --record "$w" --grid "$golden_grid" --out "$w.sweep.$threads" >/dev/null
  done
  cat "$workload.sweep.$threads" "$overlap_workload.sweep.$threads" \
    | diff - crates/bench/tests/golden/sweep_whatif_record.jsonl || {
    echo "golden sweep output diverged at RAYON_NUM_THREADS=$threads" >&2
    exit 1
  }
done
rm -f "$workload".sweep* "$overlap_workload".sweep* "$overlap_workload"

echo "== simd serve smoke (example job stream, admission accept/reject)"
# The worked example under scenarios/ must run end to end: every job
# admitted and completed. A mangled scenario (procs that do not divide
# the cores) must be rejected at admission with the typed reason, and a
# rejection must not take the service down.
simd=target/release/simd
serve_out=$("$simd" < scenarios/serve_jobs.ndjson)
[ "$(echo "$serve_out" | grep -c '"state":"done"')" = 2 ] || {
  echo "serve_jobs.ndjson did not complete both jobs:" >&2
  echo "$serve_out" >&2
  exit 1
}
reject_out=$( {
  jq -c '{type:"submit", id:"ci-reject", scenario:(.procs_per_node=7 | .output={})}' \
    scenarios/whatif_record.json
  echo '{"type":"stats"}'
} | "$simd")
echo "$reject_out" | grep '"id":"ci-reject","state":"rejected","reason":"invalid"' >/dev/null
echo "$reject_out" | grep '"rejected_invalid":1' >/dev/null

echo "== simd checkpoint kill/resume differential"
# A sweep SIGKILLed at a checkpoint boundary and resumed must produce
# output byte-identical to the uninterrupted run.
ckdir="target/ci_simd_ckpt"
rm -rf "$ckdir" target/ci_simd_a.jsonl target/ci_simd_b.jsonl
mkdir -p "$ckdir"
sweep_req() {
  printf '{"type":"sweep","id":"ci-sweep","recording":"%s","grid":"gpus=1..6;calib=identity,a100,h100","out":"%s"}\n' \
    "$workload" "$1"
}
sweep_req target/ci_simd_a.jsonl | "$simd" >/dev/null
mkfifo "$ckdir/in"
SIMD_SERVE_CHUNK_SLEEP_MS=2000 "$simd" --checkpoint-dir "$ckdir" --checkpoint-every 4 \
  < "$ckdir/in" > "$ckdir/log" &
simd_pid=$!
exec 9>"$ckdir/in"
sweep_req target/ci_simd_b.jsonl >&9
echo '{"type":"drain"}' >&9
for _ in $(seq 1 100); do
  grep -q '"state":"checkpoint"' "$ckdir/log" 2>/dev/null && break
  sleep 0.1
done
kill -9 "$simd_pid" 2>/dev/null || true
wait "$simd_pid" 2>/dev/null || true
exec 9>&-
[ -f "$ckdir/ci-sweep.ckpt.jsonl" ] || {
  echo "killed simd left no checkpoint cursor" >&2
  exit 1
}
sweep_req target/ci_simd_b.jsonl \
  | "$simd" --checkpoint-dir "$ckdir" --checkpoint-every 4 --resume \
  | grep -E '"state":"running".*"resumed":[1-9]' >/dev/null || {
  echo "resumed simd did not adopt the cursor" >&2
  exit 1
}
diff target/ci_simd_a.jsonl target/ci_simd_b.jsonl || {
  echo "resumed sweep output diverged from the uninterrupted run" >&2
  exit 1
}
rm -rf "$ckdir" target/ci_simd_a.jsonl target/ci_simd_b.jsonl
rm -f "$workload"

echo "== JSON validity of every written line (hostile scenario name)"
# A scenario named with control characters, a quote and a backslash must
# come out of every writer as one valid JSON object per line: the
# recording, the sweep result, the fig5 JSONL traces and the simd event
# stream. jq -R reads each line on its own, so a record split by a raw
# newline fails. The identity replay of that recording stays exact.
hostile_name='"a\n\t\u0001\"\\b"'
hostile="target/ci_hostile"
rm -rf "$hostile"
mkdir -p "$hostile"
jq ".name = $hostile_name" scenarios/whatif_record.json >"$hostile/scenario.json"
cargo run --release -p repro-bench --bin whatif -- \
  --scenario "$hostile/scenario.json" --record "$hostile/rec.jsonl" >/dev/null
cargo run --release -p repro-bench --bin whatif -- --replay "$hostile/rec.jsonl" \
  | grep "identity check: .* delta 0.000000000" >/dev/null
cargo run --release -p repro-bench --bin whatif -- sweep \
  --record "$hostile/rec.jsonl" --gpus 1..4 --calib identity,h100 \
  --out "$hostile/sweep.jsonl" >/dev/null
{
  jq -c "{type:\"submit\", id:$hostile_name, scenario:(.output={})}" "$hostile/scenario.json"
  printf '{"type":"sweep","id":"ci-hostile","recording":"%s"}\n' "$hostile/rec.jsonl"
  echo 'not json'
  echo '{"type":"stats"}'
} | "$simd" >"$hostile/events.jsonl"
[ "$(grep -c '"state":"done"' "$hostile/events.jsonl")" = 2 ] || {
  echo "simd did not complete both hostile-named jobs:" >&2
  cat "$hostile/events.jsonl" >&2
  exit 1
}
for f in "$hostile"/rec.jsonl "$hostile"/sweep.jsonl "$hostile"/events.jsonl target/ci_fig5_trace-*.jsonl; do
  jq -enR 'all(inputs; fromjson | type == "object")' "$f" >/dev/null || {
    echo "$f holds a line that is not one JSON object" >&2
    exit 1
  }
done
rm -rf "$hostile" target/ci_fig5_trace-*.jsonl

echo "CI OK"
