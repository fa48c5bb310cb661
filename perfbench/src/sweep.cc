/**
 * @file
 * The sweep phase: the canonical 42-spec matrix from empty result and
 * artifact caches, once serially (runApp per spec, in a seeded order)
 * and once through the runSweep pool, each pass checked byte for byte
 * against the committed last_bench_cache.csv.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hh"
#include "obs/divergence.hh"
#include "obs/stats_export.hh"
#include "phases.hh"
#include "sim/artifact_cache.hh"
#include "sim/shard.hh"

namespace lastbench
{

using namespace last;

namespace
{

/** Worker count of the pooled pass. Two workers on a 4-core host
 *  keep the pass steady where nproc workers did not (README.md,
 *  "Steadiness"). */
constexpr unsigned PooledJobs = 2;

std::vector<sim::RunSpec>
matrix()
{
    return sim::canonicalMatrix(1.0, 0);
}

/** Counts read from one run's stats tree through the RuntimeInspector
 *  hook. Keys are the per-layer metric stems. */
using Counts = std::map<std::string, double>;

Counts
statsTreeCounts(runtime::Runtime &rt)
{
    Counts c;
    for (const obs::StatRow &row : obs::flattenStats(rt)) {
        const std::string &p = row.path;
        const size_t dot = p.rfind('.');
        const std::string name = p.substr(dot + 1);
        const size_t gdot = p.rfind('.', dot - 1);
        const std::string group = p.substr(gdot + 1, dot - gdot - 1);
        const double v = row.stat->value();
        if (group.rfind("cu_", 0) == 0) {
            static const std::map<std::string, std::string> cu = {
                {"dynInsts", "dyn_insts"},
                {"busyCycles", "busy_cycles"},
                {"scoreboardStalls", "scoreboard_stalls"},
                {"waitcntStalls", "waitcnt_stalls"},
                {"ibEmptyStalls", "ib_empty_stalls"},
                {"fuConflictStalls", "fu_conflict_stalls"},
                {"vrfBankConflicts", "vrf_bank_conflicts"}};
            if (auto it = cu.find(name); it != cu.end())
                c["cu." + it->second] += v;
        } else if (group.rfind("l1d_", 0) == 0) {
            if (name == "hits" || name == "misses" || name == "mshrMerges")
                c["memory.l1d.accesses"] += v;
            if (name == "misses")
                c["memory.l1d.misses"] += v;
            if (name == "mshrMerges")
                c["memory.l1d.mshr_merges"] += v;
        } else if (group.rfind("l2_", 0) == 0) {
            if (name == "misses")
                c["memory.l2.misses"] += v;
        } else if (group == "dram") {
            if (name == "reads" || name == "writes")
                c["memory.dram." + name] += v;
        } else if (p == "sim.gpu.totalCycles") {
            c["gpu.cycles"] += v;
        } else if (p == "sim.dispatches") {
            c["runtime.launches"] += v;
        }
    }
    c["memory.data_footprint_bytes"] = double(rt.dataFootprintBytes());
    return c;
}

/** Lower-case ISA suffix of the per-ISA metric names. */
std::string
isaSuffix(IsaKind isa)
{
    std::string s = isaName(isa);
    for (char &ch : s)
        ch = char(std::tolower(ch));
    return s;
}

/**
 * Check one pass: every spec verified and not quarantined, all three
 * ISAs of a workload agree functionally (checkIsaAgreement on HSAIL
 * against each other level), and the cache written from the results
 * is byte-identical to the committed file. Failures go to `rep`.
 */
void
checkPass(const std::vector<sim::RunSpec> &specs,
          const std::vector<sim::AppResult> &results,
          const Reference &ref, const std::string &pass, Report &rep,
          Tracer &tr)
{
    for (size_t i = 0; i < results.size(); ++i) {
        const sim::AppResult &r = results[i];
        if (r.quarantined || !r.verified) {
            rep.fail(pass + ": " + specs[i].workload + "/" +
                     isaName(specs[i].isa) +
                     (r.quarantined ? " quarantined: " + r.errorMessage
                                    : " did not verify"));
        }
    }
    for (size_t i = 0; i + NumIsas <= results.size(); i += NumIsas) {
        for (unsigned k = 1; k < NumIsas; ++k) {
            try {
                sim::checkIsaAgreement(results[i], results[i + k]);
            } catch (const sim::IsaMismatchError &e) {
                rep.fail(pass + ": " + e.report().format());
            }
        }
    }

    sim::BenchCacheFile out;
    out.scale = 1.0;
    for (size_t i = 0; i < results.size(); ++i)
        out.rows.push_back({sim::specCacheKey(specs[i]), results[i]});
    std::ostringstream os;
    {
        Scope s(tr, "bench_cache.write");
        sim::writeBenchCache(os, out);
    }
    if (os.str() != ref.bytes) {
        rep.fail(pass + ": regenerated cache differs from the committed "
                        "last_bench_cache.csv",
                 specs.size());
    }
}

struct SerialPass
{
    std::vector<sim::AppResult> results; ///< canonical order
    std::vector<int64_t> specNs;         ///< canonical order
    std::vector<Counts> counts;          ///< canonical order (traced)
    int64_t wallNs = 0;
    uint64_t dynInsts = 0;
    uint64_t artifactHits = 0, artifactMisses = 0;
};

/** One serial pass in the seeded order; with `inspect`, the stats tree
 *  of every run is read and each runApp gets a span. */
SerialPass
serialPass(const std::vector<sim::RunSpec> &specs,
           const std::vector<size_t> &order, bool inspect, Tracer &tr)
{
    SerialPass p;
    p.results.resize(specs.size());
    p.specNs.resize(specs.size());
    p.counts.resize(specs.size());
    sim::ArtifactCache &ac = sim::ArtifactCache::instance();
    ac.clear();
    const uint64_t h0 = ac.hits(), m0 = ac.misses();
    const int pass = inspect ? tr.begin("serial_pass") : -1;
    const int64_t t0 = nowNs();
    for (size_t i : order) {
        const sim::RunSpec &s = specs[i];
        const int span =
            inspect ? tr.begin("run_app:" + s.workload + ":" +
                                   isaSuffix(s.isa),
                               pass)
                    : -1;
        const int64_t a = nowNs();
        sim::RuntimeInspector hook;
        if (inspect)
            hook = [&](runtime::Runtime &rt) {
                p.counts[i] = statsTreeCounts(rt);
            };
        p.results[i] = sim::runApp(s.workload, s.isa, s.cfg, s.scale, hook);
        p.specNs[i] = nowNs() - a;
        tr.end(span);
        p.dynInsts += p.results[i].dynInsts;
    }
    p.wallNs = nowNs() - t0;
    tr.end(pass);
    p.artifactHits = ac.hits() - h0;
    p.artifactMisses = ac.misses() - m0;
    return p;
}

/** The pooled pass: the same specs, seeded order, through runSweep.
 *  @return results in canonical order. */
std::vector<sim::AppResult>
pooledPass(const std::vector<sim::RunSpec> &specs,
           const std::vector<size_t> &order, int64_t &wallNs, Tracer &tr)
{
    std::vector<sim::RunSpec> shuffled;
    for (size_t i : order)
        shuffled.push_back(specs[i]);
    sim::ArtifactCache::instance().clear();
    sim::SweepOptions so;
    so.jobs = PooledJobs;
    const int64_t t0 = nowNs();
    sim::SweepReport sweep;
    {
        Scope s(tr, "pooled_pass");
        sweep = sim::runSweep(shuffled, so);
    }
    wallNs = nowNs() - t0;
    std::vector<sim::AppResult> out(specs.size());
    for (size_t k = 0; k < order.size(); ++k)
        out[order[k]] = std::move(sweep.results[k]);
    return out;
}

/** Per-layer figures from one traced serial pass. */
void
reportLayers(const std::vector<sim::RunSpec> &specs, const SerialPass &p,
             Report &rep)
{
    std::map<std::string, double> perIsa, total, appMs;
    std::map<std::string, double> isaNs;
    double luleshNs = 0, luleshL1d = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string isa = isaSuffix(specs[i].isa);
        for (const auto &[k, v] : p.counts[i]) {
            total[k] += v;
            if (k.rfind("cu.", 0) == 0 || k == "gpu.cycles")
                perIsa[k + "." + isa] += v;
        }
        isaNs[isa] += double(p.specNs[i]);
        appMs[specs[i].workload] += double(p.specNs[i]) / 1e6;
        if (specs[i].workload == "LULESH") {
            luleshNs += double(p.specNs[i]);
            luleshL1d += p.counts[i].at("memory.l1d.accesses");
        }
    }
    for (const auto &[k, v] : perIsa)
        rep.set(k, v,
                k.find("dyn_insts") != std::string::npos   ? "insts"
                : k.find("vrf_bank") != std::string::npos ? "count"
                                                           : "cycles",
                specs.size() / NumIsas);
    for (const char *k :
         {"memory.l1d.accesses", "memory.l1d.misses",
          "memory.l1d.mshr_merges", "memory.l2.misses",
          "memory.dram.reads", "memory.dram.writes", "runtime.launches"})
        rep.set(k, total[k], "count", specs.size());
    rep.set("memory.data_footprint_bytes",
            total["memory.data_footprint_bytes"], "bytes", specs.size());
    rep.set("memory.l1d.hit_ratio",
            (total["memory.l1d.accesses"] - total["memory.l1d.misses"] -
             total["memory.l1d.mshr_merges"]) /
                total["memory.l1d.accesses"],
            "ratio", specs.size());
    for (IsaKind isa : AllIsas) {
        const std::string s = isaSuffix(isa);
        rep.set("cu.host_ns_per_inst." + s,
                isaNs[s] / perIsa["cu.dyn_insts." + s], "ns",
                specs.size() / NumIsas);
    }
    rep.set("memory.host_ns_per_l1d_access", luleshNs / luleshL1d, "ns",
            NumIsas);
    rep.set("runtime.host_us_per_launch",
            double(p.wallNs) / 1e3 / total["runtime.launches"], "us",
            specs.size());
    for (const auto &[app, ms] : appMs)
        rep.set("sim.run_app_ms." + app, ms, "ms", NumIsas);
    rep.set("parallel.critical_path_ms",
            double(*std::max_element(p.specNs.begin(), p.specNs.end())) /
                1e6,
            "ms", specs.size());
}

/** Same-process identity: the stats tree and AppResult must agree. */
void
checkCounts(const std::vector<sim::RunSpec> &specs, const SerialPass &p,
            Report &rep)
{
    for (size_t i = 0; i < specs.size(); ++i) {
        const Counts &c = p.counts[i];
        if (uint64_t(c.at("cu.dyn_insts")) != p.results[i].dynInsts ||
            uint64_t(c.at("cu.busy_cycles")) != p.results[i].busyCycles ||
            uint64_t(c.at("cu.vrf_bank_conflicts")) !=
                p.results[i].vrfBankConflicts)
            rep.fail("stats tree disagrees with AppResult for " +
                     specs[i].workload + "/" + isaName(specs[i].isa));
    }
}

} // namespace

std::vector<size_t>
specOrder(uint64_t seed, unsigned iteration)
{
    return permutation(NumIsas * workloads::allWorkloadNames().size(),
                       seed * 1000003ull + iteration);
}

Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ConfigError("cannot read " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    ref.bytes = ss.str();
    std::istringstream in(ref.bytes);
    sim::readBenchCacheStrict(in, ref.cache, path);
    return ref;
}

int
sweepSetupProbe(const std::string &committed, uint64_t seed)
{
    const Reference ref = loadReference(committed);
    const auto specs = matrix();
    const auto order = specOrder(seed, 0);
    sim::ArtifactCache::instance().clear();
    // The first spec (specs[order[0]]) would start here.
    std::printf("%lld\n", (long long)nowNs());
    return ref.cache.rows.size() == specs.size() && !order.empty() ? 0 : 1;
}

namespace
{

/** Spawn `probes` set-up probe processes one after another.
 *  @return each one's spawn-to-first-spec time in seconds. */
std::vector<double>
sweepSetupTimes(const RunOptions &o, unsigned probes, Report &rep)
{
    std::vector<double> out;
    for (unsigned k = 0; k < probes; ++k) {
        const std::string log =
            o.workDir + "/setup_probe_" + std::to_string(k) + ".out";
        std::remove(log.c_str());
        const int64_t t0 = nowNs();
        const pid_t pid = spawnProcess(
            {o.selfExe, "setup-probe", "--committed", o.committed,
             "--seed", std::to_string(o.seed)},
            log);
        const int rc = waitProcess(pid);
        std::ifstream is(log);
        long long t1 = 0;
        if (rc != 0 || !(is >> t1)) {
            rep.fail("sweep set-up probe failed (see " + log + ")");
            continue;
        }
        out.push_back(double(t1 - t0) / 1e9);
    }
    return out;
}

} // namespace

void
runSweepPhase(const RunOptions &o, const Reference &ref, double budgetS,
              unsigned minIters, Report &rep, Tracer &tr)
{
    const auto specs = matrix();
    const bool primary = o.workload == "sweep-fresh";

    if (primary) {
        const auto setup = sweepSetupTimes(o, 21, rep);
        rep.set("setup_s", median(setup), "s", setup.size(),
                "spawn to first spec, median of set-up probes");
    }

    if (tr.enabled()) {
        // Untraced serial pass first: the base of trace.overhead_frac.
        const auto order = specOrder(o.seed, 0);
        Tracer off(false);
        SerialPass plain = serialPass(specs, order, false, off);
        SerialPass p = serialPass(specs, order, true, tr);
        rep.attempted += 2 * specs.size();
        checkPass(specs, plain.results, ref, "serial", rep, off);
        checkPass(specs, p.results, ref, "traced serial", rep, tr);
        checkCounts(specs, p, rep);
        reportLayers(specs, p, rep);
        rep.set("trace.overhead_frac",
                double(p.wallNs - plain.wallNs) / double(plain.wallNs),
                "ratio", 1, "traced minus untraced serial pass");
        int64_t covered = 0;
        for (const Span &s : tr.spans())
            if (s.name.rfind("run_app:", 0) == 0)
                covered += s.end - s.start;
        const double coverage = double(covered) / double(p.wallNs);
        rep.set("trace.run_app_coverage", coverage, "ratio", specs.size(),
                "run_app spans over the serial pass wall time");
        if (coverage < 0.95)
            rep.fail("run_app spans cover only " +
                     std::to_string(coverage) + " of the serial pass");
        if (primary) {
            rep.set("artifact.hits", double(p.artifactHits), "count");
            rep.set("artifact.misses", double(p.artifactMisses), "count");
            rep.set("artifact.hit_ratio",
                    double(p.artifactHits) /
                        double(p.artifactHits + p.artifactMisses),
                    "ratio");
        }

        int64_t pooledNs = 0;
        auto pooled = pooledPass(specs, order, pooledNs, tr);
        rep.attempted += specs.size();
        checkPass(specs, pooled, ref, "pooled", rep, tr);
        rep.set("parallel.efficiency",
                double(plain.wallNs) / (PooledJobs * double(pooledNs)),
                "ratio", 1, "jobs=" + std::to_string(PooledJobs));

        // Cache I/O and divergence reports on the committed file.
        std::vector<double> readMs, writeMs, divMs;
        for (int k = 0; k < 9; ++k) {
            sim::BenchCacheFile f;
            int64_t t = nowNs();
            {
                Scope s(tr, "bench_cache.read");
                std::istringstream in(ref.bytes);
                sim::readBenchCacheStrict(in, f, o.committed);
            }
            readMs.push_back(double(nowNs() - t) / 1e6);
            t = nowNs();
            std::ostringstream os;
            {
                Scope s(tr, "bench_cache.write");
                sim::writeBenchCache(os, f);
            }
            writeMs.push_back(double(nowNs() - t) / 1e6);
            if (os.str() != ref.bytes)
                rep.fail("committed cache does not round-trip");
            t = nowNs();
            {
                Scope s(tr, "obs.divergence");
                std::ostringstream js;
                obs::writeDivergenceJsonArray(js,
                                              sim::divergenceFromCache(f));
            }
            divMs.push_back(double(nowNs() - t) / 1e6);
        }
        rep.set("bench_cache.read_ms", median(readMs), "ms", readMs.size());
        rep.set("bench_cache.write_ms", median(writeMs), "ms",
                writeMs.size());
        rep.set("obs.divergence_ms", median(divMs), "ms", divMs.size());
        return;
    }

    // The host-time figures of this phase are the median passes of the
    // run's iterations. Fastest passes and fastest per-spec runs spread
    // more across runs: a fast host period shows up in some runs and
    // not in others (README.md, "Steadiness").
    std::vector<double> serialS, pooledS;
    uint64_t dynInsts = 0;
    // An iteration starts only if one as long as the last still ends
    // within the budget.
    const int64_t deadline = nowNs() + int64_t(budgetS * 1e9);
    int64_t iterNs = 0;
    for (unsigned it = 0; it < minIters || nowNs() + iterNs <= deadline;
         ++it) {
        const int64_t iterStart = nowNs();
        const auto order = specOrder(o.seed, it);
        SerialPass p = serialPass(specs, order, false, tr);
        rep.attempted += specs.size();
        checkPass(specs, p.results, ref, "serial", rep, tr);
        serialS.push_back(double(p.wallNs) / 1e9);
        dynInsts = p.dynInsts;
        // The serial pass's peak is one spec at a time; the pooled
        // pass's would depend on which specs the seed makes overlap.
        if (it == 0 && primary)
            rep.set("peak_rss_mb", selfPeakRssMb(), "MiB", 1,
                    "harness, after the first serial pass");

        int64_t pooledNs = 0;
        auto pooled = pooledPass(specs, order, pooledNs, tr);
        rep.attempted += specs.size();
        checkPass(specs, pooled, ref, "pooled", rep, tr);
        pooledS.push_back(double(pooledNs) / 1e9);
        std::printf("iteration %u: serial %.3f s, pooled %.3f s\n", it,
                    serialS.back(), pooledS.back());
        iterNs = nowNs() - iterStart;
    }
    rep.set("sweep_s", median(pooledS), "s", pooledS.size(),
            "median pooled pass, jobs=" + std::to_string(PooledJobs));
    rep.set("sim_kips", double(dynInsts) / median(serialS) / 1e3,
            "kinst/s", serialS.size(), "median serial pass");
}

} // namespace lastbench
