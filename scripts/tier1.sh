#!/bin/sh
# Tier-1 verification: the full test suite on a regular build, the
# concurrency-sensitive suites again under ThreadSanitizer with a
# multi-worker pool, the fault-injection/error-path suites under
# AddressSanitizer+UBSan (exception unwinding through the watchdog and
# quarantine machinery is where lifetime bugs hide), and the
# per-instruction oracle and differentials in a Release (-O3) build.
#
# Every sub-suite runs even when an earlier one fails; the script exits
# nonzero if ANY failed, so CI cannot green-light a partial pass.
#
# Usage: scripts/tier1.sh    (from the repo root)
#        LAST_TIER1_PERF=1 scripts/tier1.sh
#            additionally runs the perf-regression smoke
#            (scripts/bench_perf.sh --quick, gated against the newest
#            committed BENCH_*.json) — opt-in because wall-clock gating
#            only means something on a quiet machine.
set -u

cd "$(dirname "$0")/.."

status=0
fail() {
    echo "tier1: FAILED: $1" >&2
    status=1
}

# Regular build + full suite. A broken build makes every later stage
# meaningless, so only configuration/build errors abort early.
cmake -B build -S . || exit 1
cmake --build build -j || exit 1
(cd build && ctest --output-on-failure -j) || fail "full suite"

# TSan pass: build only the test binary and run the parallel-driver,
# sweep-quarantine, and differential suites with 4 workers forced via
# LAST_JOBS. The three-ISA legs ride here too: the three-way
# differentials overlap HSAIL/GCN3/PTXL runs on the same pool, and
# CommittedBenchCache re-simulates its cheap rows at all three ISAs
# through runMany (concurrent predecode of shared kernels included).
if cmake -B build-tsan -S . -DLAST_TSAN=ON &&
    cmake --build build-tsan -j --target last_tests; then
    LAST_JOBS=4 ./build-tsan/tests/last_tests \
        --gtest_filter='ParallelDriver.*:SweepQuarantine.*:FastForward.*:FunctionalMemoryFootprint.*:ExecEngine.*:ServeSocket.*:PtxlExecEngine.*:RandomKernelDifferential.*:Table5/WorkloadDifferential.*:CommittedBenchCache.*' ||
        fail "TSan suite"
else
    fail "TSan build"
fi

# ASan+UBSan pass: the fault-injection, watchdog, and logging/error
# suites, which exercise every throw path in the simulator — plus the
# PTXL legs (warp-split stack, convergence barriers, scoreboard) and
# the stress-differential job (three-way cross-ISA agreement and the
# N×N golden signatures), whose lane-mask/stack manipulation is where
# out-of-bounds bugs would live — and the metric-table and
# committed-cache checks, which walk member pointers over every row —
# and the per-instruction golden vectors, whose edge operands (INT32_MIN
# / -1, shift counts >= 32, NaN and out-of-range float-to-integer
# conversions) are where signed-overflow and float-cast UB would hide.
if cmake -B build-asan -S . -DLAST_ASAN=ON &&
    cmake --build build-asan -j --target last_tests; then
    ./build-asan/tests/last_tests \
        --gtest_filter='FaultPlan.*:Watchdog.*:FaultSensitivity.*:MemoryGuards.*:IsaAgreement.*:SweepQuarantine.*:Logging.*:TornInputFuzz.*:Orchestrate.*:OrchestrateCampaign.*:ExecEngine.*:ServeProtocol.*:ServeCore.*:ServeQuarantine.*:Ptxl*:DivergenceSchemaV2.*:StressWorkloads.*:MetricTable.*:CommittedBenchCache.*:ExecGolden.*' ||
        fail "ASan/UBSan suite"
else
    fail "ASan build"
fi

# Release pass: the bench cache and every performance number come from
# -O3 builds, where GCC vectorizes the full-mask lane loops, so the
# per-instruction oracle (golden post-states and static metadata), the
# descriptor-table checks, the committed-cache checks and the three-way
# differentials run in that build too.
if cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build-release -j --target last_tests; then
    ./build-release/tests/last_tests \
        --gtest_filter='ExecGolden.*:OpcodeTables.*:CommittedBenchCache.*:Table5/WorkloadDifferential.*:Seeds/RandomKernelDifferential.*' ||
        fail "Release suite"
else
    fail "Release build"
fi

# Opt-in perf smoke: Release sweep + microbenches, byte-identity of
# the regenerated result cache, and the >25% regression gate.
if [ "${LAST_TIER1_PERF:-0}" = "1" ]; then
    baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1)
    if [ -n "$baseline" ]; then
        scripts/bench_perf.sh --quick --check "$baseline" \
            /tmp/tier1_bench_perf.json || fail "perf smoke"
    else
        fail "perf smoke: no committed BENCH_*.json baseline"
    fi
fi

if [ "$status" -eq 0 ]; then
    echo "tier1: OK"
else
    echo "tier1: FAILED (see above)" >&2
fi
exit "$status"
