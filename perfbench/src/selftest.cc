/**
 * @file
 * Self-tests of the benchmark's own measurement rules (run with
 * `python3 perfbench/run.py --selftest`):
 *  - the tail is the highest percentile with >= 10 samples beyond it;
 *  - open-loop latency is timed from the scheduled send time;
 *  - the same seed gives an identical request schedule and spec order;
 *  - a different seed gives a different order but identical sweep
 *    bytes.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "phases.hh"
#include "sim/artifact_cache.hh"
#include "sim/shard.hh"

namespace lastbench
{

using namespace last;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
}

void
testTail()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    const Tail t = tailOf(v);
    expect(t.defined && t.value == 90 && t.beyond == 10 &&
               t.percentile == 90.0,
           "tail of 1..100 is the 90th value with 10 beyond it");
    // One more sample moves the tail up: 11 beyond p90 is allowed, but
    // the highest percentile keeps exactly 10 beyond.
    v.push_back(101);
    const Tail u = tailOf(v);
    expect(u.value == 91 && u.beyond == 10,
           "tail of 1..101 is the 91st value");
    size_t above = 0;
    for (double x : v)
        above += x > u.value;
    expect(above >= 10, "at least 10 samples lie beyond the tail");
    above = 0;
    for (double x : v)
        above += x > 92;
    expect(above < 10, "the next higher rank has fewer than 10 beyond");
    expect(!tailOf(std::vector<double>(10, 1.0)).defined,
           "10 samples have no tail");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
           "median of odd and even samples");
}

void
testOpenLoop()
{
    Request q;
    q.dueNs = 50'000'000; // due 50 ms into the stream
    const int64_t start = 1'000'000'000;
    // The generator stalled and sent it 30 ms late; the response came
    // 5 ms after the send. Open-loop latency charges the stall.
    const int64_t sent = start + q.dueNs + 30'000'000;
    const int64_t arrive = sent + 5'000'000;
    expect(latencyNs(start, q, arrive) == 35'000'000,
           "latency runs from the scheduled send, not the actual send");
}

void
testSeeds(const std::string &committed)
{
    const auto a = makeSchedule(7, 1.0), b = makeSchedule(7, 1.0),
               c = makeSchedule(8, 1.0);
    bool same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i)
        same = a[i].line() == b[i].line() && a[i].dueNs == b[i].dueNs;
    expect(same, "same seed, identical request schedule");
    bool differ = a.size() != c.size();
    for (size_t i = 0; !differ && i < a.size(); ++i)
        differ = a[i].line() != c[i].line() || a[i].dueNs != c[i].dueNs;
    expect(differ, "different seed, different request schedule");
    size_t cold = 0, dup = 0, stats = 0;
    for (const Request &q : a) {
        cold += q.cold;
        dup += q.duplicate;
        stats += q.stats;
    }
    expect(cold > 0 && dup > 0 && stats > 0 && stats < cold &&
               cold < a.size(),
           "schedule mixes warm, cold, stats and duplicated cold keys");
    const auto rates = ladderRates();
    expect(std::is_sorted(rates.begin(), rates.end()) &&
               a.back().step == rates.size() - 1,
           "ladder rates ascend and every step has requests");

    expect(specOrder(7, 0) == specOrder(7, 0),
           "same seed, identical spec order");
    expect(specOrder(7, 0) != specOrder(8, 0),
           "different seed, different spec order");

    // Different orders, identical bytes: two cheap apps (all ISAs)
    // simulated in each seed's order, written through the cache writer.
    const Reference ref = loadReference(committed);
    std::vector<sim::RunSpec> specs;
    for (const sim::RunSpec &s : sim::canonicalMatrix(1.0, 0))
        if (s.workload == "ArrayBW" || s.workload == "atomicred")
            specs.push_back(s);
    std::string bytes[2];
    for (int k = 0; k < 2; ++k) {
        const auto order = permutation(specs.size(), 7 + k);
        std::vector<sim::RunSpec> shuffled;
        for (size_t i : order)
            shuffled.push_back(specs[i]);
        sim::ArtifactCache::instance().clear();
        sim::SweepOptions so;
        so.jobs = 2;
        sim::SweepReport rep = sim::runSweep(shuffled, so);
        sim::BenchCacheFile f;
        for (size_t i = 0; i < shuffled.size(); ++i)
            f.rows.push_back(
                {sim::specCacheKey(shuffled[i]), rep.results[i]});
        std::ostringstream os;
        sim::writeBenchCache(os, f);
        bytes[k] = os.str();
    }
    sim::BenchCacheFile want;
    for (const sim::RunSpec &s : specs)
        want.rows.push_back(*ref.cache.find(sim::specCacheKey(s)));
    std::ostringstream os;
    sim::writeBenchCache(os, want);
    expect(bytes[0] == bytes[1] && bytes[0] == os.str(),
           "different seed, identical sweep bytes (and equal to the "
           "committed rows)");
}

} // namespace

int
selfTest(const std::string &committed)
{
    testTail();
    testOpenLoop();
    testSeeds(committed);
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace lastbench
