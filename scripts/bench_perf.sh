#!/bin/sh
# Perf-regression baseline for the statistic-identical fast paths.
#
# Measures three things on a Release build and writes them to a JSON
# baseline (BENCH_<n>.json at the repo root, committed per PR):
#
#  1. The tier-1 figure sweep: wall-clock of fig01_summary populating a
#     FRESH result cache in a scratch directory. Best-of-N, since
#     wall-clock minima are the stable statistic on a noisy machine.
#     The timed sweep is pinned to the two-ISA (HSAIL/GCN3) matrix via
#     LAST_BENCH_ISAS so the number stays comparable with pre-PTXL
#     baselines; the statistic-identity check below still covers the
#     full three-ISA canonical matrix.
#  2. The sharded sweep backend: a fresh single-shard `last_sweep run`
#     vs a warm incremental rerun against its own cache. The warm run
#     must reuse every row, emit byte-identical artifacts, and finish
#     at least 10x faster than the fresh run.
#  3. Component microbenchmarks (bench/micro_components) covering the
#     rewritten paths, including the skewed-duration scheduler pair
#     (BM_ParallelInvokeSkewedStatic vs ...Steal) — the work-stealing
#     pool must beat static chunking on the skewed batch — and the
#     execution handlers (BM_ExecuteValuLoop, BM_DispatchChain).
#
# It also proves statistic identity: the freshly generated cache files
# (fig01_summary's and last_sweep's) must be byte-identical to the
# committed last_bench_cache.csv. A perf "win" that changes a statistic
# is a bug, and this script fails on it.
#
# Usage: scripts/bench_perf.sh [--quick] [--check BASELINES] [OUT.json]
#   --quick   1 sweep rep + short microbench time (CI smoke)
#   --check   comma-separated list of committed BENCH_<n>.json files;
#             the measured sweep is gated against the BEST (fastest)
#             of them and fails if it regressed by more than 25%
#   OUT.json  where to write results (default: stdout)
set -u

cd "$(dirname "$0")/.."
repo=$(pwd)

reps=3
min_time=0.2
check_file=""
out=""
quick=0
while [ $# -gt 0 ]; do
    case "$1" in
      --quick) quick=1; reps=1; min_time=0.05 ;;
      --check) shift; check_file="$1" ;;
      -h|--help) sed -n '2,24p' "$0"; exit 0 ;;
      *) out="$1" ;;
    esac
    shift
done

fail() {
    echo "bench_perf: FAILED: $1" >&2
    exit 1
}

# Release build (the RelWithDebInfo tree used for tests understates
# the simulator's real throughput).
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null ||
    fail "configure"
cmake --build build-perf -j --target fig01_summary micro_components \
    last_sweep >/dev/null || fail "build"

# --- 1. Figure sweep: fresh cache in a scratch dir, best of N. ------
# Timed on the two-ISA sweep (see header) for baseline comparability.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

best_ms=""
i=0
while [ "$i" -lt "$reps" ]; do
    rm -f "$scratch/last_bench_cache.csv"
    t0=$(date +%s%N)
    (cd "$scratch" &&
        LAST_BENCH_ISAS="HSAIL,GCN3" \
            "$repo/build-perf/bench/fig01_summary" >/dev/null) ||
        fail "sweep run"
    t1=$(date +%s%N)
    ms=$(( (t1 - t0) / 1000000 ))
    [ -z "$best_ms" ] || [ "$ms" -lt "$best_ms" ] && best_ms=$ms
    i=$((i + 1))
done

# --- 2. Statistic identity against the committed cache. -------------
# One untimed full-matrix (all ISAs, PTXL included) run: the committed
# last_bench_cache.csv is the three-ISA artifact.
rm -f "$scratch/last_bench_cache.csv"
(cd "$scratch" && "$repo/build-perf/bench/fig01_summary" >/dev/null) ||
    fail "full-matrix sweep run"
cache_identical=false
if [ -f "$repo/last_bench_cache.csv" ]; then
    if cmp -s "$repo/last_bench_cache.csv" \
        "$scratch/last_bench_cache.csv"; then
        cache_identical=true
    else
        fail "regenerated cache differs from committed last_bench_cache.csv — a fast path changed a statistic"
    fi
else
    echo "bench_perf: no committed last_bench_cache.csv; skipping identity check" >&2
fi

# --- 3. Sharded backend: fresh last_sweep vs warm incremental. ------
sweep_bin="$repo/build-perf/tools/last_sweep"
"$sweep_bin" plan --shards 1 --out-dir "$scratch" >/dev/null 2>&1 ||
    fail "last_sweep plan"

t0=$(date +%s%N)
"$sweep_bin" run "$scratch/shard_0.json" \
    --out "$scratch/fresh.csv" --diverge "$scratch/fresh.json" \
    >/dev/null 2>&1 || fail "last_sweep fresh run"
t1=$(date +%s%N)
shard_fresh_ms=$(( (t1 - t0) / 1000000 ))

# The CLI's artifact and fig01_summary's must be the same bytes — one
# cache format, one writer, shared across the whole backend.
if [ -f "$repo/last_bench_cache.csv" ]; then
    cmp -s "$repo/last_bench_cache.csv" "$scratch/fresh.csv" ||
        fail "last_sweep cache differs from committed last_bench_cache.csv"
fi

t0=$(date +%s%N)
"$sweep_bin" run "$scratch/shard_0.json" --cache "$scratch/fresh.csv" \
    --out "$scratch/warm.csv" --diverge "$scratch/warm.json" \
    >/dev/null 2>&1 || fail "last_sweep warm run"
t1=$(date +%s%N)
shard_warm_ms=$(( (t1 - t0) / 1000000 ))

cmp -s "$scratch/fresh.csv" "$scratch/warm.csv" ||
    fail "warm incremental run changed the cache bytes"
cmp -s "$scratch/fresh.json" "$scratch/warm.json" ||
    fail "warm incremental run changed the divergence report bytes"

# The incremental acceptance gate: a fully-warm cache must be at least
# 10x faster than re-simulating the matrix.
[ "$shard_warm_ms" -gt 0 ] || shard_warm_ms=1
if [ $((shard_warm_ms * 10)) -gt "$shard_fresh_ms" ]; then
    fail "warm incremental sweep ${shard_warm_ms} ms is not >=10x faster than fresh ${shard_fresh_ms} ms"
fi
echo "bench_perf: shard backend OK (fresh ${shard_fresh_ms} ms, warm ${shard_warm_ms} ms)" >&2

# --- 4. Component microbenchmarks (google-benchmark JSON). ----------
micro_json="$scratch/micro.json"
"$repo/build-perf/bench/micro_components" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$micro_json" --benchmark_out_format=json \
    >/dev/null 2>&1 || fail "micro_components"

# The scheduler gate: on the skewed batch, work stealing must beat the
# static-chunk baseline (both are timed waits, so real_time measures
# the schedule makespan on any core count).
static_ms=$(jq -r '[.benchmarks[]
    | select(.name | startswith("BM_ParallelInvokeSkewedStatic"))
    | .real_time][0]' "$micro_json")
steal_ms=$(jq -r '[.benchmarks[]
    | select(.name | startswith("BM_ParallelInvokeSkewedSteal"))
    | .real_time][0]' "$micro_json")
[ "$static_ms" != "null" ] && [ "$steal_ms" != "null" ] ||
    fail "skewed scheduler benchmarks missing from micro_components output"
if [ "$(awk -v s="$steal_ms" -v t="$static_ms" 'BEGIN{print (s < t) ? 1 : 0}')" != "1" ]; then
    fail "work stealing (${steal_ms} ms) not faster than static chunking (${static_ms} ms) on the skewed batch"
fi
echo "bench_perf: skewed scheduler OK (static ${static_ms} ms, steal ${steal_ms} ms)" >&2

# --- 5. Emit the baseline JSON. -------------------------------------
result=$(jq -n \
    --argjson sweep_ms "$best_ms" \
    --argjson reps "$reps" \
    --argjson quick "$([ "$quick" -eq 1 ] && echo true || echo false)" \
    --argjson cache_identical "$cache_identical" \
    --argjson shard_fresh_ms "$shard_fresh_ms" \
    --argjson shard_warm_ms "$shard_warm_ms" \
    --slurpfile micro "$micro_json" \
    '{
        schema: "last-bench-perf v3",
        sweep: {
            description: "fig01_summary populating a fresh result cache (all workloads, both ISAs)",
            wall_ms_best: $sweep_ms,
            reps: $reps,
            quick: $quick
        },
        shard: {
            description: "last_sweep single-shard run: fresh matrix vs fully-warm incremental cache",
            fresh_ms: $shard_fresh_ms,
            warm_ms: $shard_warm_ms
        },
        cache_identical: $cache_identical,
        micro: ($micro[0].benchmarks | map({
            name, real_time, cpu_time, time_unit
        }))
    }')

if [ -n "$out" ]; then
    printf '%s\n' "$result" > "$out"
    echo "bench_perf: wrote $out (sweep best ${best_ms} ms)"
else
    printf '%s\n' "$result"
fi

# --- 6. Optional regression gate. -----------------------------------
# --check takes a comma-separated list of committed baselines; the
# gate runs against the fastest of them, so a PR that lands a speedup
# ratchets the bar for every later PR instead of resetting it.
if [ -n "$check_file" ]; then
    base_ms=""
    old_ifs=$IFS
    IFS=,
    for f in $check_file; do
        IFS=$old_ifs
        [ -f "$f" ] || fail "baseline $f not found"
        ms=$(jq -r '.sweep.wall_ms_best' "$f")
        [ "$ms" != "null" ] || fail "baseline $f has no sweep.wall_ms_best"
        [ -z "$base_ms" ] || [ "$ms" -lt "$base_ms" ] && base_ms=$ms
        IFS=,
    done
    IFS=$old_ifs
    # >25% slower than the best committed baseline fails the gate.
    # Absolute wall-clock varies across machines; the gate is meant to
    # catch order-of-magnitude slips (an accidental O(n^2) path), not
    # noise.
    limit=$((base_ms + base_ms / 4))
    if [ "$best_ms" -gt "$limit" ]; then
        fail "sweep ${best_ms} ms exceeds best baseline ${base_ms} ms by >25% (limit ${limit} ms)"
    fi
    echo "bench_perf: regression gate OK (${best_ms} ms <= ${limit} ms)"
fi
