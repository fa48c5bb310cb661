/**
 * @file
 * The metric table: one row per AppResult statistic, the only place
 * the statistic list is spelled out. runApp's aggregation, the bench
 * cache writer and strict reader, the divergence report and the tests'
 * result equality all loop over it, so a new statistic is one
 * AppResult field plus one row. Two orders are byte contracts: row
 * order is the `last-bench-cache` column order, and `report` is the
 * divergence-report order that the stable ranking keeps on ties.
 */

#ifndef LAST_SIM_METRICS_HH
#define LAST_SIM_METRICS_HH

#include <algorithm>
#include <vector>

#include "sim/experiment.hh"

namespace last::sim
{

/** `Metric::report` of a statistic the divergence report leaves out. */
constexpr int NotReported = -1;

/** One AppResult statistic. Exactly one of `u64` / `f64` is set. */
struct Metric
{
    const char *name; ///< the AppResult field name
    uint64_t AppResult::*u64 = nullptr;
    double AppResult::*f64 = nullptr;
    /** CU stat runApp sums over every CU into the field; nullptr for
     *  the statistics runApp computes itself. */
    const char *cuStat;
    const char *figure; ///< paper anchor, e.g. "Figure 5" ("" = none)
    const char *expect; ///< paper's HSAIL-vs-GCN3 class ("" = none)
    int report;         ///< divergence-report position, or NotReported

    constexpr Metric(const char *n, uint64_t AppResult::*m, const char *cu,
                     const char *fig, const char *exp, int rep)
        : name(n), u64(m), cuStat(cu), figure(fig), expect(exp), report(rep)
    {}
    constexpr Metric(const char *n, double AppResult::*m, const char *cu,
                     const char *fig, const char *exp, int rep)
        : name(n), f64(m), cuStat(cu), figure(fig), expect(exp), report(rep)
    {}

    double value(const AppResult &r) const
    {
        return u64 ? double(r.*u64) : r.*f64;
    }
};

#define LAST_METRIC(field, ...) Metric(#field, &AppResult::field, __VA_ARGS__)

inline constexpr Metric kMetrics[] = {
    //          field             CU stat             figure       paper        report
    LAST_METRIC(dynInsts,         "dynInsts",         "Figure 5",  "divergent", 0),
    LAST_METRIC(valu,             "valuInsts",        "Figure 5",  "divergent", 1),
    LAST_METRIC(salu,             "saluInsts",        "Figure 5",  "divergent", 2),
    LAST_METRIC(vmem,             "vmemInsts",        "Figure 5",  "similar",   3),
    LAST_METRIC(smem,             "smemInsts",        "Figure 5",  "",          NotReported),
    LAST_METRIC(lds,              "ldsInsts",         "Figure 5",  "",          NotReported),
    LAST_METRIC(branch,           "branchInsts",      "Figure 5",  "divergent", 4),
    LAST_METRIC(waitcnt,          "waitcntInsts",     "Figure 5",  "",          NotReported),
    LAST_METRIC(misc,             "miscInsts",        "Figure 5",  "",          NotReported),
    LAST_METRIC(cycles,           nullptr,            "Figure 11", "divergent", 12),
    LAST_METRIC(ipc,              nullptr,            "Figure 11", "divergent", 11),
    LAST_METRIC(vrfBankConflicts, "vrfBankConflicts", "Figure 6",  "divergent", 5),
    LAST_METRIC(reuseMedian,      nullptr,            "Figure 7",  "divergent", 6),
    LAST_METRIC(instFootprint,    nullptr,            "Figure 8",  "divergent", 7),
    LAST_METRIC(ibFlushes,        "ibFlushes",        "Figure 9",  "divergent", 8),
    LAST_METRIC(readUniq,         nullptr,            "Figure 10", "similar",   9),
    LAST_METRIC(writeUniq,        nullptr,            "Figure 10", "similar",   10),
    LAST_METRIC(vrfUniq,          nullptr,            "Figure 10", "",          NotReported),
    LAST_METRIC(dataFootprint,    nullptr,            "Table 6",   "divergent", 13),
    LAST_METRIC(simdUtil,         nullptr,            "Table 6",   "similar",   14),
    LAST_METRIC(l1iMisses,        nullptr,            "Figure 8",  "divergent", 16),
    LAST_METRIC(l1iHits,          nullptr,            "Figure 8",  "",          NotReported),
    LAST_METRIC(hazardViolations, "hazardViolations", "",          "",          NotReported),
    LAST_METRIC(scoreboardStalls, "scoreboardStalls", "",          "",          NotReported),
    LAST_METRIC(waitcntStalls,    "waitcntStalls",    "",          "",          NotReported),
    LAST_METRIC(ibEmptyStalls,    "ibEmptyStalls",    "",          "",          NotReported),
    LAST_METRIC(fuConflictStalls, "fuConflictStalls", "",          "",          NotReported),
    LAST_METRIC(coalescedLines,   "coalescedLines",   "",          "similar",   15),
    LAST_METRIC(busyCycles,       "busyCycles",       "",          "",          NotReported),
};

#undef LAST_METRIC

/** The divergence report's rows, in report order. */
inline const std::vector<const Metric *> &
reportedMetrics()
{
    static const std::vector<const Metric *> rows = [] {
        std::vector<const Metric *> v;
        for (const Metric &m : kMetrics)
            if (m.report != NotReported)
                v.push_back(&m);
        std::sort(v.begin(), v.end(), [](const Metric *a, const Metric *b) {
            return a->report < b->report;
        });
        return v;
    }();
    return rows;
}

} // namespace last::sim

#endif // LAST_SIM_METRICS_HH
