#!/usr/bin/env bash
# Quick performance smoke: the formatting, rustdoc and lint gates, the
# oracle suites, the downstream suites against the
# feature-off rmb-core, release build, the two hot-path bench suites with
# a short sampling window and a regression gate against the baseline in
# BENCH_PR2.json. Intended as the pre-merge check for changes touching
# rmb-core's tick path; full runs use plain `cargo bench`.
#
# Every section runs as a step: a step that fails is reported and the
# script goes on with the next one, so one failing gate does not hide the
# rest. At the end the script lists the failed steps and exits 1 if there
# are any.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gates' bounds. They are constants, because a bound that a variable
# could loosen would gate nothing.
# A bench median may exceed its recorded baseline by 10 %.
readonly GATE_FACTOR=1.10
# A duty-cycle tick costs at most this many ns per active circuit.
readonly NS_BUDGET=10
# The hierarchy's serial throughput may fall to 1/1.5 of its recorded
# baseline (a 33 % dip): wall-clock throughput is noisier than the benches.
readonly HIER_GATE_FACTOR=1.5

failed=()
# step TITLE COMMAND...: runs COMMAND in a subshell that stops at its
# first failing command, and records TITLE if it fails.
step() {
  local title="$1"
  shift
  echo "== $title =="
  set +e
  (
    set -e
    "$@"
  )
  local status=$?
  set -e
  if ((status != 0)); then
    echo "step FAILED (exit $status): $title" >&2
    failed+=("$title")
  fi
}

# The benches step writes the medians the gates after it read.
bench_json="$(mktemp)"
trap 'rm -f "$bench_json"' EXIT

step "non-test LOC per crate (print only, no gate)" scripts/loc.sh

step "rustfmt (the workspace is formatted)" cargo fmt --all -- --check

check_rustdoc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
  RUSTDOCFLAGS="-D warnings" cargo doc -p rmb-core --features oracle --no-deps
}
step "rustdoc (warnings as errors, rmb-core with and without its oracle feature)" check_rustdoc

step "clippy (all warnings as errors on every crate)" \
  cargo clippy --workspace --all-targets -- -D warnings

# Tests of rmb-core enable its dev-only `oracle` feature, and a root
# `cargo test` unifies it on for every crate. The library target alone
# builds without dev-dependencies, so this lints the one production path.
step "clippy (all warnings as errors on the rmb-core that ships, oracle feature off)" \
  cargo clippy -p rmb-core --lib -- -D warnings

# Selecting only crates that do not enable the feature builds rmb-core
# without it: the pinned hierarchy and route identities, the lone-circuit
# replay suites, the scenario goldens and the serving tests then run the
# production path. Fail if anything turns the feature on for them.
shipping_suites() {
  shipping=(-p rmb-hier -p rmb-analysis -p rmb-scenario -p rmb-serve)
  features="$(cargo tree -e features -i rmb-core "${shipping[@]}")"
  if grep -q oracle <<<"$features"; then
    echo "the oracle feature is enabled outside rmb-core's own tests" >&2
    exit 1
  fi
  cargo test -q "${shipping[@]}"
}
step "downstream suites against the rmb-core that ships (oracle feature off)" shipping_suites

# The dense sweep shares the event engine's stream phase, so only the
# flit-level engine checks stream timing independently: run both oracles.
step "oracle suites (event engine vs the dense-sweep and flit-level oracles, oracle feature on)" \
  cargo test -q -p rmb-core --test scheduler_equivalence --test cross_validation

composition_equivalence() {
  cargo test -q -p rmb-core --test properties lone_circuit
  cargo test -q -p rmb-hier --test parent_identity --test lone_legs
  cargo test -q -p rmb-analysis --test lone_replay
  cargo test -q -p rmb-analysis --test route_identity
}
step "composition engine equivalence (pinned routes, replayed vs ticked lone circuits)" \
  composition_equivalence

step "release build" cargo build --release -p rmb-bench --benches

run_benches() {
  CRITERION_JSON="$bench_json" CRITERION_SAMPLE_MS="${CRITERION_SAMPLE_MS:-20}" \
    cargo bench -p rmb-bench --bench rmb_protocol
  CRITERION_SAMPLE_MS="${CRITERION_SAMPLE_MS:-20}" cargo bench -p rmb-bench --bench cycle_machine
  CRITERION_JSON="$bench_json" CRITERION_SAMPLE_MS="${CRITERION_SAMPLE_MS:-20}" \
    cargo bench -p rmb-bench --bench tick_kernel
}
step "rmb_protocol + cycle_machine + tick_kernel (short window)" run_benches

# The saturated N=64, k=4 tick is the reference hot-path number. Fail if
# the just-measured median exceeds the recorded baseline by more than
# GATE_FACTOR (+10 %).
pr2_gate() {
  gate_bench="rmb_tick/loaded/N64_k4"
  baseline="$(awk -F'"after_median_ns": ' '
    /"benchmark": "rmb_tick\/loaded\/N64_k4"/ { grab = 1 }
    grab && NF > 1 { split($2, a, ","); print a[1]; exit }
  ' BENCH_PR2.json)"
  measured="$(awk -F'"median_ns": ' '
    /"name": "rmb_tick\/loaded\/N64_k4"/ && NF > 1 { split($2, a, ","); print a[1]; exit }
  ' "$bench_json")"
  if [[ -z "$baseline" || -z "$measured" ]]; then
    echo "regression gate: could not extract $gate_bench medians" >&2
    exit 1
  fi
  awk -v m="$measured" -v b="$baseline" -v f="$GATE_FACTOR" 'BEGIN {
    limit = b * f
    printf "%s: measured %.1f ns, baseline %.1f ns, limit %.1f ns\n",
      "rmb_tick/loaded/N64_k4", m, b, limit
    exit (m > limit) ? 1 : 0
  }' || { echo "regression gate FAILED for $gate_bench" >&2; exit 1; }
}
step "regression gate (rmb_tick/loaded/N64_k4 vs BENCH_PR2.json)" pr2_gate

# The tentpole invariant of the bit-parallel kernel: a duty-cycle tick
# costs at most NS_BUDGET (10) ns per active circuit, at any
# ring size. The gate measures the active16 shapes, where the fixed
# ~5 ns empty-tick cost is amortised enough that the number is the true
# per-circuit marginal rather than harness overhead divided by four.
# The budget check uses the median (it passes with >30% headroom, so a
# noisy smoke window won't flake); the regression check compares against
# the committed BENCH_PR7.json baseline with the same GATE_FACTOR
# slack as the PR 2 gate. Each shape is a step of its own.
per_circuit_gate() {
  gate_bench="$1"
  esc="${gate_bench//\//\\/}"
  measured="$(awk -F'"median_ns": ' '
    /"name": "'"$esc"'"/ && NF > 1 { split($2, a, ","); print a[1]; exit }
  ' "$bench_json")"
  baseline="$(awk -F'"after_median_ns": ' '
    /"benchmark": "'"$esc"'"/ { grab = 1 }
    grab && NF > 1 { split($2, a, ","); print a[1]; exit }
  ' BENCH_PR7.json)"
  if [[ -z "$baseline" || -z "$measured" ]]; then
    echo "perf gate: could not extract $gate_bench numbers" >&2
    exit 1
  fi
  awk -v m="$measured" -v bud="$NS_BUDGET" -v active=16 -v name="$gate_bench" 'BEGIN {
    per = m / active
    printf "%s: %.2f ns per active circuit (budget %d ns)\n", name, per, bud
    exit (per > bud) ? 1 : 0
  }' || { echo "per-circuit budget gate FAILED for $gate_bench" >&2; exit 1; }
  awk -v m="$measured" -v b="$baseline" -v f="$GATE_FACTOR" -v name="$gate_bench" 'BEGIN {
    limit = b * f
    printf "%s: measured %.1f ns, baseline %.1f ns, limit %.1f ns\n", name, m, b, limit
    exit (m > limit) ? 1 : 0
  }' || { echo "regression gate FAILED for $gate_bench" >&2; exit 1; }
}
for gate_bench in "tick_kernel/per_circuit/N64_k8_active16" "tick_kernel/per_circuit/N1024_k8_active16"; do
  step "per-active-circuit budget gate ($gate_bench vs $NS_BUDGET ns + BENCH_PR7.json)" \
    per_circuit_gate "$gate_bench"
done

# Every checked-in scenario must reproduce its pinned golden exactly.
# The alphabetical glob runs trace_record before trace_replay, so the
# recorded trace is rewritten before the replay scenario re-reads it —
# and the rewrite itself must be byte-identical to the checked-in trace.
scenario_goldens() {
  trace_before="$(cksum scenarios/traces/smoke.trace.json)"
  for f in scenarios/*.toml; do
    stem="$(basename "$f" .toml)"
    got="$(cargo run --release -q -p rmb-bench --bin experiments -- --scenario "$f" --json)"
    if ! diff <(printf '%s\n' "$got") "scenarios/golden/$stem.json" >/dev/null; then
      echo "scenario golden drift for $stem:" >&2
      diff <(printf '%s\n' "$got") "scenarios/golden/$stem.json" >&2 || true
      echo "if intentional, regenerate with: experiments --scenario $f --json" >&2
      exit 1
    fi
  done
  trace_after="$(cksum scenarios/traces/smoke.trace.json)"
  if [[ "$trace_before" != "$trace_after" ]]; then
    echo "trace_record rewrote scenarios/traces/smoke.trace.json with different bytes" >&2
    exit 1
  fi
}
step "scenario goldens (byte-identical envelopes)" scenario_goldens

fault_sweep() {
  ft_json="$(cargo run --release -q -p rmb-bench --bin experiments -- \
    --exp fault-tolerance --n 12 --k 3 --flits 4 --json)"
  grep -q '"experiment": "fault-tolerance"' <<<"$ft_json"
  if grep -q '"stalled": true' <<<"$ft_json"; then
    echo "fault-tolerance sweep stalled" >&2
    exit 1
  fi
}
step "fault-tolerance sweep (tiny size)" fault_sweep

hier_sweep() {
  hier_json="$(cargo run --release -q -p rmb-bench --bin experiments -- \
    --exp hier-scaling --n 8 --k 2 --flits 4 --json)"
  grep -q '"experiment": "hier-scaling"' <<<"$hier_json"
  if grep -q '"stalled": true' <<<"$hier_json"; then
    echo "hier-scaling sweep stalled" >&2
    exit 1
  fi
}
step "hierarchical scaling sweep (2 rings, tiny size)" hier_sweep

# The 64-ring high-locality cell's sim_ticks_per_sec against the serial
# row recorded in BENCH_PR9.json (whose other rows are the deleted sharded
# engine's). The cell draws the same traffic as that row, so its tick
# count must match exactly. Wall-clock throughput is noisier than the
# nanosecond benches above, so the slack factor is wider
# (HIER_GATE_FACTOR, 1.5: tolerate a 33 % dip).
hier_throughput_gate() {
  tp_json="$(cargo run --release -q -p rmb-bench --bin experiments -- \
    --exp hier-throughput --json)"
  grep -q '"experiment": "hier-throughput"' <<<"$tp_json"
  cell_field() { # FIELD [FILE]: FIELD of the first serial 64-ring, locality-0.9 row
    awk -F'"'"$1"'": ' '
      /"rings": 64,/ && /"locality": 0.9,/ && (!/"threads"/ || /"threads": 1,/) && NF > 1 {
        split($2, a, ","); print a[1]; exit
      }
    ' "${2:-/dev/stdin}"
  }
  measured="$(cell_field sim_ticks_per_sec <<<"$tp_json")"
  baseline="$(cell_field sim_ticks_per_sec BENCH_PR9.json)"
  measured_ticks="$(cell_field ticks <<<"$tp_json")"
  baseline_ticks="$(cell_field ticks BENCH_PR9.json)"
  if [[ -z "$baseline" || -z "$measured" || -z "$measured_ticks" || -z "$baseline_ticks" ]]; then
    echo "hier-throughput gate: could not extract the 64-ring row" >&2
    exit 1
  fi
  if [[ "$measured_ticks" != "$baseline_ticks" ]]; then
    echo "hier-throughput gate: the cell ran $measured_ticks ticks, BENCH_PR9.json's row" \
      "$baseline_ticks; it no longer draws the recorded traffic" >&2
    exit 1
  fi
  awk -v m="$measured" -v b="$baseline" -v f="$HIER_GATE_FACTOR" 'BEGIN {
    floor = b / f
    printf "hier serial throughput: measured %.0f ticks/s, baseline %.0f ticks/s, floor %.0f ticks/s\n",
      m, b, floor
    exit (m < floor) ? 1 : 0
  }' || { echo "hier-throughput regression gate FAILED" >&2; exit 1; }
}
step "hierarchy throughput gate (64-ring cell vs BENCH_PR9.json)" hier_throughput_gate

# A scaled-down version of the BENCH_PR8.json soak: same topology, rate
# and seed, 200k ticks instead of 10M. Gates the serving stack on the
# properties that must never regress — exact loss accounting and zero
# retained records under counters-only retention — and cross-checks the
# delivered count against the recorded 10M-tick run pro rata (the soak
# is deterministic, but tick count scales the totals, so the comparison
# is a ratio bound, not equality).
serving_soak() {
  soak_json="$(cargo run --release -q -p rmb-bench --bin experiments -- \
    --exp open-loop-soak --ticks 200000 --json)"
  grep -q '"experiment": "open-loop-soak"' <<<"$soak_json"
  grep -q '"loss_accounted": true' <<<"$soak_json" \
    || { echo "open-loop soak lost arrivals" >&2; exit 1; }
  grep -q '"retained_records": 0' <<<"$soak_json" \
    || { echo "open-loop soak retained records under counters-only" >&2; exit 1; }
  soak_delivered="$(awk -F'"delivered": ' 'NF > 1 { split($2, a, ","); print a[1]; exit }' <<<"$soak_json")"
  bench_delivered="$(awk -F'"delivered": ' '
    /"soak"/ { grab = 1 }
    grab && NF > 1 { split($2, a, ","); print a[1]; exit }
  ' BENCH_PR8.json)"
  awk -v s="$soak_delivered" -v b="$bench_delivered" 'BEGIN {
    # 200k of 10M ticks => expect ~2% of the recorded deliveries; allow 2x
    # slack either way for warmup-fraction effects.
    expected = b / 50.0
    printf "open-loop soak: delivered %d over 200k ticks (recorded 10M-tick run: %d)\n", s, b
    exit (s > expected * 2 || s < expected / 2) ? 1 : 0
  }' || { echo "open-loop soak delivered count off vs BENCH_PR8.json" >&2; exit 1; }
}
step "open-loop serving soak (short, counters-only retention)" serving_soak

if ((${#failed[@]} > 0)); then
  echo "bench smoke FAILED: ${#failed[@]} step(s):" >&2
  printf '  %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "bench smoke OK"
