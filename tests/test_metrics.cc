/**
 * @file
 * The metric table (sim/metrics.hh) and the committed artifacts it
 * shapes. The MetricTable cases iterate the table, so adding a
 * statistic is a one-row change that these cases then cover on their
 * own. CommittedBenchCache pins the checked-in last_bench_cache.csv
 * and the divergence reports derived from it against golden bytes, and
 * re-simulates the cheap rows at all three ISAs: the whole-workload
 * oracle for the execution handlers, which also ties the column order
 * to real runs.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "helpers.hh"
#include "obs/divergence.hh"
#include "runtime/runtime.hh"
#include "sim/bench_cache.hh"
#include "sim/metrics.hh"
#include "sim/parallel.hh"

using namespace last;
using test::readFile;

namespace
{

/** A result whose every metric row holds a distinct value (doubles
 *  with a non-terminating fraction), so a lost, swapped or rounded
 *  column cannot go unnoticed. */
sim::AppResult
sentinelResult()
{
    sim::AppResult r;
    r.workload = "VecAdd";
    r.verified = true;
    r.digest = 0xfeed;
    unsigned i = 0;
    for (const sim::Metric &m : sim::kMetrics) {
        ++i;
        if (m.u64)
            r.*m.u64 = 1000 + i;
        else
            r.*m.f64 = i + 1.0 / 3.0;
    }
    r.launches = {{"k", 5, 7}};
    return r;
}

/** Byte equality that names the first differing offset instead of
 *  dumping two 100 KB strings. */
void
expectSameBytes(const std::string &got, const std::string &want)
{
    auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                want.end());
    EXPECT_TRUE(g == got.end() && w == want.end())
        << "first difference at byte " << (g - got.begin());
}

const std::string kSourceDir = LAST_SOURCE_DIR;
const std::string kCommittedCache = kSourceDir + "/last_bench_cache.csv";

sim::BenchCacheFile
committedCache()
{
    std::istringstream is(readFile(kCommittedCache));
    sim::BenchCacheFile cache;
    sim::readBenchCacheStrict(is, cache, kCommittedCache);
    return cache;
}

} // namespace

TEST(MetricTable, NamesAreUnique)
{
    std::set<std::string> names;
    for (const sim::Metric &m : sim::kMetrics)
        EXPECT_TRUE(names.insert(m.name).second) << m.name;
}

TEST(MetricTable, CuStatsResolveToCounters)
{
    runtime::Runtime rt(GpuConfig{});
    for (const sim::Metric &m : sim::kMetrics) {
        if (!m.cuStat)
            continue;
        EXPECT_GE(rt.gpu().cuStatIndex(m.cuStat), 0) << m.name;
        EXPECT_NE(m.u64, nullptr) << m.name << ": CU stats are counters";
    }
}

TEST(MetricTable, SentinelSurvivesCacheRoundTrip)
{
    const sim::AppResult r = sentinelResult();
    sim::BenchCacheFile cache;
    cache.rows.push_back({{r.workload, r.isa, 3, 9}, r});
    std::istringstream is(test::cacheBytes(cache));
    sim::BenchCacheFile back;
    sim::readBenchCacheStrict(is, back, "sentinel");
    ASSERT_EQ(back.rows.size(), 1u);
    test::expectSameResult(back.rows[0].result, r);
}

TEST(MetricTable, EqualityHelperFlagsEveryRow)
{
    const sim::AppResult a = sentinelResult();
    for (const sim::Metric &m : sim::kMetrics) {
        sim::AppResult b = a;
        if (m.u64)
            b.*m.u64 += 1;
        else
            b.*m.f64 += 1;
        EXPECT_NONFATAL_FAILURE(test::expectSameResult(a, b), m.name);
    }
}

TEST(MetricTable, DivergenceReportHasExactlyTheReportedRows)
{
    // Equal inputs tie every entry, so the stable ranking leaves the
    // entries in report order: position i holds the row marked i.
    const sim::AppResult r = sentinelResult();
    const obs::DivergenceReport rep = obs::divergenceReport(r, r);
    size_t marked = 0;
    for (const sim::Metric &m : sim::kMetrics) {
        if (m.report == sim::NotReported)
            continue;
        ++marked;
        ASSERT_LT(size_t(m.report), rep.entries.size()) << m.name;
        const obs::DivergenceEntry &e = rep.entries[m.report];
        EXPECT_EQ(e.stat, m.name);
        EXPECT_EQ(e.figure, m.figure);
        EXPECT_EQ(e.paperExpectation, m.expect);
        EXPECT_EQ(e.hsail, m.value(r));
    }
    EXPECT_EQ(rep.entries.size(), marked);
}

TEST(CommittedBenchCache, StrictReadRewritesByteIdentically)
{
    expectSameBytes(test::cacheBytes(committedCache()),
                    readFile(kCommittedCache));
}

TEST(CommittedBenchCache, DivergenceMatchesGolden)
{
    expectSameBytes(test::divergenceBytes(committedCache()),
                    readFile(kSourceDir + "/tests/golden/"
                                          "divergence_from_bench_cache.json"));
}

TEST(CommittedBenchCache, TiedReportKeepsGoldenOrder)
{
    // A row compared with itself ties every entry at relDelta 0, so the
    // stable ranking shows the report order, which the committed
    // matrix alone does not pin for statistics that never tie there.
    const sim::BenchCacheFile cache = committedCache();
    const sim::AppResult &r = cache.rows.at(0).result;
    std::ostringstream os;
    obs::writeDivergenceJson(os, obs::divergenceReport(r, r));
    expectSameBytes(os.str(),
                    readFile(kSourceDir +
                             "/tests/golden/divergence_all_tied.json"));
}

TEST(CommittedBenchCache, FreshRunsReproduceTheirRows)
{
    // The whole-workload oracle for the execution handlers, and a tie
    // between the column order and simulation (two same-typed rows
    // swapped in the table would still round-trip): fresh runs of the
    // cheap workloads, which between them cover atomics, LDS swizzles,
    // nested divergence and multi-dispatch pipelines, at every ISA on
    // the sweep pool, must reproduce their committed rows exactly.
    const sim::BenchCacheFile committed = committedCache();
    std::vector<sim::RunSpec> specs;
    for (const char *w : {"ArrayBW", "BitonicSort", "atomicred",
                          "ldsswizzle", "bfsgraph", "pipeline"})
        for (IsaKind isa : {IsaKind::HSAIL, IsaKind::GCN3, IsaKind::PTXL})
            specs.push_back({w, isa, GpuConfig{},
                             workloads::WorkloadScale{committed.scale}});
    const std::vector<sim::AppResult> fresh = sim::runMany(specs);
    ASSERT_EQ(fresh.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].workload + "/" + isaName(specs[i].isa));
        const sim::CachedRun *want =
            committed.find(sim::specCacheKey(specs[i]));
        ASSERT_NE(want, nullptr);
        test::expectSameResult(fresh[i], want->result);
    }
}
