#!/usr/bin/env bash
# Interleaved parent/change comparison on perfbench.
#
#   scripts/perf-ab.sh [-n PAIRS] [-s SECONDS] [-e SEED] BASE WORKLOAD...
#
# Builds perfbench at revision BASE (the parent) and from the working tree
# (the change), each into its own target directory under target/perf-ab/,
# and restores perfbench/Cargo.lock after each build. Then, per workload,
# runs PAIRS pairs (default 10) of SECONDS-second runs (default:
# BENCHMARK.json's run_seconds) at seed SEED (default 1996). The two runs
# of a pair go back to back, and odd pairs run the parent first, even
# pairs the change. Each side runs from its own checkout, so its `method`
# line names its revision; the change's names HEAD, which does not show
# uncommitted edits.
#
# For every end-to-end metric in BENCHMARK.json, and for perfbench's
# `raw_wall_s.median` (the pass time before the host probe's scaling,
# listed next to `wall_s`), the report gives both
# sides' medians with quartiles, the change/parent ratio of the medians,
# the pairs the change won by the metric's `better`, and whether the
# medians differ by more than the parent's interquartile range in the
# change's favour. It then says whether every simulated metric (unit
# `ticks`) was identical across all runs of the workload, and counts
# failed operations and failed output checks. Raw outputs stay in
# target/perf-ab/runs/.
#
# The parent is a shared clone, not a `git worktree`: perfbench reads its
# revision from a `.git` directory, and a worktree's `.git` is a file.
# Nothing under perfbench/ is edited.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

usage() {
  echo "usage: scripts/perf-ab.sh [-n PAIRS] [-s SECONDS] [-e SEED] BASE WORKLOAD..." >&2
  exit 2
}

pairs=10
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"
seed=1996
while getopts "n:s:e:" opt; do
  case "$opt" in
    n) pairs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    e) seed="$OPTARG" ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
(($# >= 2)) || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
base="$1"
shift
workloads=("$@")

# `name:better` for each end-to-end metric, in BENCHMARK.json's order,
# with the unscaled pass time after `wall_s`: the probe that scales
# `wall_s` can move with code placement alone.
metrics="$(awk '
  /"end_to_end"/ { on = 1; next }
  on && /\]/ { on = 0 }
  on && /"name"/ {
    name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
    printf "%s%s:%s", sep, name, better; sep = ","
    if (name == "wall_s") printf ",raw_wall_s.median:lower"
  }' BENCHMARK.json)"

work="$root/target/perf-ab"
mkdir -p "$work/runs"
rev="$(git rev-parse --verify "$base^{commit}")"
parent_dir="$work/parent"
if [[ ! -d "$parent_dir/.git" ]]; then
  git clone --quiet --shared --no-checkout "$root" "$parent_dir"
fi
git -C "$parent_dir" checkout --quiet --force --detach "$rev"

# build CHECKOUT TARGET_DIR: builds perfbench in CHECKOUT and puts back
# the perfbench/Cargo.lock the build rewrites.
build() {
  local lock="$1/perfbench/Cargo.lock"
  cp "$lock" "$work/Cargo.lock.saved"
  echo "building perfbench in $1" >&2
  CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline \
    --manifest-path "$1/perfbench/Cargo.toml"
  cp "$work/Cargo.lock.saved" "$lock"
}
build "$parent_dir" "$work/parent-target"
build "$root" "$work/change-target"
bin=rmb-perfbench
declare -A checkout=([parent]="$parent_dir" [change]="$root")
declare -A binary=([parent]="$work/parent-target/release/$bin" [change]="$work/change-target/release/$bin")

# run SIDE WORKLOAD PAIR: one perfbench run; prints `side pair name value`
# rows for every metric, the failed count and the check status.
run() {
  local side="$1" workload="$2" pair="$3"
  local out="$work/runs/$workload-seed$seed-$side-$pair.txt"
  local status=0
  (cd "${checkout[$side]}" && "${binary[$side]}" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0) >"$out" || status=$?
  awk -v side="$side" -v pair="$pair" -v status="$status" '
    $1 == "metric" { print side, pair, $2, $4, $5 }
    /^\{"correct"/ {
      failed = $0; sub(/.*"failed": */, "", failed); sub(/[^0-9].*/, "", failed)
      print side, pair, "failed", failed, "count"
    }
    /^method / {
      slow = $0; sub(/.*"host_slowdown": */, "", slow); sub(/[^0-9.].*/, "", slow)
      print side, pair, "host_slowdown", slow, "x"
    }
    END { print side, pair, "check_failed", (status != 0), "count" }' "$out"
}

summarise() {
  awk -v metrics="$metrics" -v pairs="$pairs" '
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
      }
    }
    # Linear interpolation between order statistics of sorted a[1..n].
    function quantile(a, n, p,   h, lo) {
      h = 1 + (n - 1) * p
      lo = int(h)
      return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    {
      value[$1, $2, $3] = $4
      unit[$3] = $5
    }
    END {
      printf "%-24s %-36s %-36s %8s %6s %5s\n", "metric", "parent median [q1, q3]", \
        "change median [q1, q3]", "chg/par", "wins", ">IQR"
      count = split(metrics, list, ",")
      for (m = 1; m <= count; m++) {
        split(list[m], f, ":")
        name = f[1]; lower = f[2] == "lower"
        if (!(("parent", 1, name) in value)) continue
        wins = 0
        for (i = 1; i <= pairs; i++) {
          p[i] = value["parent", i, name]
          c[i] = value["change", i, name]
          if (lower ? c[i] < p[i] : c[i] > p[i]) wins++
        }
        sort(p, pairs); sort(c, pairs)
        pm = quantile(p, pairs, 0.5); pq1 = quantile(p, pairs, 0.25); pq3 = quantile(p, pairs, 0.75)
        cm = quantile(c, pairs, 0.5); cq1 = quantile(c, pairs, 0.25); cq3 = quantile(c, pairs, 0.75)
        gap = lower ? pm - cm : cm - pm
        printf "%-24s %-36s %-36s %8.4f %3d/%-2d %5s\n", name, \
          sprintf("%.5g [%.5g, %.5g]", pm, pq1, pq3), \
          sprintf("%.5g [%.5g, %.5g]", cm, cq1, cq3), \
          (pm == 0 ? 0 : cm / pm), wins, pairs, (gap > pq3 - pq1 ? "yes" : "no")
      }
      for (key in value) {
        split(key, k, SUBSEP)
        if (unit[k[3]] != "ticks") continue
        if (!(k[3] in first)) first[k[3]] = value[key]
        else if (first[k[3]] != value[key]) differ[k[3]] = 1
        sims[k[3]] = 1
      }
      line = ""
      for (name in sims) line = line " " name (name in differ ? " DIFFERS" : " identical")
      printf "simulated metrics over all %d runs:%s\n", 2 * pairs, line == "" ? " none" : line
      for (key in value) {
        split(key, k, SUBSEP)
        if (k[3] == "failed") failed[k[1]] += value[key]
        if (k[3] == "check_failed") checks[k[1]] += value[key]
        if (k[3] == "host_slowdown") { n[k[1]]++; slow[k[1], n[k[1]]] = value[key] }
      }
      for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        for (i = 1; i <= n[side]; i++) h[i] = slow[side, i]
        sort(h, n[side])
        printf "%s: failed operations %d, failed output checks %d, median host_slowdown %.3f\n", \
          side, failed[side], checks[side], quantile(h, n[side], 0.5)
      }
    }'
}

change_rev="$(git rev-parse --short HEAD)"
for workload in "${workloads[@]}"; do
  rows="$work/runs/$workload-seed$seed.rows"
  : >"$rows"
  for ((i = 1; i <= pairs; i++)); do
    echo "$workload seed $seed pair $i/$pairs" >&2
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      run "$side" "$workload" "$i" >>"$rows"
    done
  done
  echo "== $workload: seed $seed, $pairs pairs of $seconds s, parent ${rev:0:7}, change ${change_rev} + working tree"
  summarise <"$rows"
done
