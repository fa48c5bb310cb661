/**
 * @file
 * `lastbench` — the benchmark harness behind perfbench/run.py.
 *
 *   lastbench run --workload sweep-fresh|serve-mixed --seed N
 *                 --seconds S --trace 0|1 --serve-exe PATH
 *                 --committed CACHE.csv --work-dir DIR
 *   lastbench setup-probe --committed CACHE.csv --seed N
 *   lastbench selftest --committed CACHE.csv
 *
 * `run` prints one line per metric (name, value, unit, sample count),
 * then a single-line JSON result; it exits 0 even when an output check
 * failed (the result says so), and 2 when it could not measure at all.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "phases.hh"

using namespace lastbench;

namespace
{

std::map<std::string, std::string>
parseFlags(int argc, char **argv, int first)
{
    std::map<std::string, std::string> f;
    for (int i = first; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0) {
            std::fprintf(stderr, "lastbench: unexpected argument %s\n",
                         argv[i]);
            std::exit(2);
        }
        f[k.substr(2)] = argv[i + 1];
    }
    if ((argc - first) % 2) {
        std::fprintf(stderr, "lastbench: flag %s has no value\n",
                     argv[argc - 1]);
        std::exit(2);
    }
    return f;
}

std::string
need(const std::map<std::string, std::string> &f, const std::string &k)
{
    auto it = f.find(k);
    if (it == f.end()) {
        std::fprintf(stderr, "lastbench: missing --%s\n", k.c_str());
        std::exit(2);
    }
    return it->second;
}

int
cmdRun(const std::map<std::string, std::string> &f, const char *self)
{
    RunOptions o;
    o.workload = need(f, "workload");
    o.seed = std::stoull(need(f, "seed"));
    o.seconds = std::stod(need(f, "seconds"));
    o.traced = need(f, "trace") == "1";
    o.selfExe = self;
    o.serveExe = need(f, "serve-exe");
    o.committed = need(f, "committed");
    o.workDir = need(f, "work-dir");
    if (o.workload != "sweep-fresh" && o.workload != "serve-mixed") {
        std::fprintf(stderr, "lastbench: unknown workload %s\n",
                     o.workload.c_str());
        return 2;
    }

    // Every run measures both phases; the workload gives one of them
    // most of the time. Traced runs do one pass of each.
    const bool sweepMain = o.workload == "sweep-fresh";
    const double sweepBudget = (sweepMain ? 0.7 : 0.55) * o.seconds;
    const unsigned sweepIters = 3;
    const double refS = (sweepMain ? 0.2 : 0.35) * o.seconds;

    Report rep;
    Tracer tr(o.traced);
    const Reference ref = loadReference(o.committed);
    runSweepPhase(o, ref, sweepBudget, sweepIters, rep, tr);
    runServePhase(o, ref, refS, rep, tr);
    tr.write(o.workDir + "/spans-" + o.workload + "-" +
             std::to_string(o.seed) + ".jsonl");
    rep.print(rep.failed == 0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: lastbench run|setup-probe|selftest ...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    const auto flags = parseFlags(argc, argv, 2);
    try {
        if (cmd == "run")
            return cmdRun(flags, argv[0]);
        if (cmd == "setup-probe")
            return sweepSetupProbe(need(flags, "committed"),
                                   std::stoull(need(flags, "seed")));
        if (cmd == "selftest")
            return selfTest(need(flags, "committed"));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lastbench: %s\n", e.what());
        return 2;
    }
    std::fprintf(stderr, "lastbench: unknown command %s\n", cmd.c_str());
    return 2;
}
