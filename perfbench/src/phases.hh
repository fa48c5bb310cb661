/**
 * @file
 * The two measured phases every benchmark run executes. The workload
 * decides which phase gets most of the run's time (see README.md):
 * `sweep-fresh` spends it on fresh sweeps of the canonical matrix,
 * `serve-mixed` on the open-loop request stream against `last_serve`.
 */

#ifndef LASTBENCH_PHASES_HH
#define LASTBENCH_PHASES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "measure.hh"
#include "sim/bench_cache.hh"

namespace lastbench
{

struct RunOptions
{
    std::string workload;   ///< sweep-fresh | serve-mixed
    uint64_t seed = 1;
    double seconds = 10;    ///< measured time of the whole run
    bool traced = false;
    std::string selfExe;    ///< this binary (set-up probes re-exec it)
    std::string serveExe;   ///< the last_serve daemon
    std::string committed;  ///< the committed last_bench_cache.csv
    std::string workDir;    ///< sockets, logs and span files go here
};

/** The committed cache, loaded once per run: the file's bytes (the
 *  sweep's byte-identity reference) and its parsed rows (the serve
 *  phase's warm-payload reference). */
struct Reference
{
    std::string bytes;
    last::sim::BenchCacheFile cache;
};
Reference loadReference(const std::string &path);

/** Fresh serial + pooled sweeps of the 42-spec canonical matrix for
 *  `budgetS` seconds (at least `minIters` iterations). */
void runSweepPhase(const RunOptions &o, const Reference &ref,
                   double budgetS, unsigned minIters, Report &rep,
                   Tracer &tr);

/** Daemon set-up probes, then the open-loop stream over the rate
 *  ladder, whose reference step lasts `refS` seconds. */
void runServePhase(const RunOptions &o, const Reference &ref,
                   double refS, Report &rep, Tracer &tr);

/** Child side of the sweep set-up probe: everything a fresh sweep does
 *  before its first spec starts, then print the CLOCK_MONOTONIC ns. */
int sweepSetupProbe(const std::string &committed, uint64_t seed);

/** @{ Open-loop request schedule (serve_load.cc), exposed for the
 *  self-tests. */
struct Request
{
    uint64_t id = 0;
    int64_t dueNs = 0;    ///< offset from the step's stream start
    unsigned step = 0;    ///< index into the rate ladder
    unsigned window = 0;  ///< time window within the step
    bool cold = false;
    bool duplicate = false; ///< resend of the previous cold key
    bool stats = false;   ///< `stats` (cold) rather than `diverge`
    last::IsaKind isa = last::IsaKind::HSAIL; ///< stats only
    std::string workload;
    uint64_t seed = 0;    ///< 0 = default seed
    int ldsStride = -1;
    int ldsPad = -1;

    std::string line() const; ///< the request's JSON line
};
/** Offered rate of each ladder step (requests/s), ascending. */
std::vector<double> ladderRates();
/** Every step's requests, in step order. */
std::vector<Request> makeSchedule(uint64_t seed, double refS);
/** Open-loop latency: from the request's scheduled send time (not the
 *  time the generator actually sent it) to its response. */
int64_t latencyNs(int64_t streamStart, const Request &q, int64_t arriveNs);
/** @} */

/** The serial pass's spec order for `iteration`: a seeded permutation
 *  of the canonical matrix. */
std::vector<size_t> specOrder(uint64_t seed, unsigned iteration);

/** Benchmark self-tests against the committed cache; @return the
 *  process exit code. */
int selfTest(const std::string &committed);

} // namespace lastbench

#endif // LASTBENCH_PHASES_HH
