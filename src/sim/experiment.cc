#include "sim/experiment.hh"

#include <sstream>

#include "common/logging.hh"
#include "sim/metrics.hh"
#include "sim/parallel.hh"

namespace last::sim
{

AppResult
runApp(const std::string &workload, IsaKind isa, const GpuConfig &cfg,
       const workloads::WorkloadScale &scale,
       const RuntimeInspector &inspect)
{
    runtime::Runtime rt(cfg);
    // Label the simulated process so MemoryErrors escaping a parallel
    // sweep name the run that faulted, not just an address.
    rt.mem().setOwner(workload + "/" + isaName(isa));
    auto wl = workloads::makeWorkload(workload, scale);

    AppResult r;
    r.workload = workload;
    r.isa = isa;
    r.verified = wl->run(rt, isa);
    r.digest = wl->resultDigest();

    gpu::Gpu &gpu = rt.gpu();
    // The table's CU-stat rows: resolve each name to its CU-local index
    // once, then sum by index over every CU.
    for (const Metric &m : kMetrics)
        if (m.cuStat)
            r.*m.u64 = uint64_t(gpu.sumCuStat(gpu.cuStatIndex(m.cuStat)));

    // Merged histograms / weighted averages over CUs.
    stats::Histogram reuse(nullptr, "reuse", "merged");
    double ru_n = 0, ru_s = 0, wu_n = 0, wu_s = 0, su_n = 0, su_s = 0;
    for (unsigned c = 0; c < gpu.numCus(); ++c) {
        auto &cu = gpu.computeUnit(c);
        reuse.merge(cu.vregReuseDist);
        ru_s += cu.vrfReadUniq.value() * double(cu.vrfReadUniq.samples());
        ru_n += double(cu.vrfReadUniq.samples());
        wu_s +=
            cu.vrfWriteUniq.value() * double(cu.vrfWriteUniq.samples());
        wu_n += double(cu.vrfWriteUniq.samples());
        su_s += cu.valuUtilization.value() *
                double(cu.valuUtilization.samples());
        su_n += double(cu.valuUtilization.samples());
    }
    r.reuseMedian = reuse.median();
    r.readUniq = ru_n ? ru_s / ru_n : 0;
    r.writeUniq = wu_n ? wu_s / wu_n : 0;
    r.vrfUniq =
        (ru_n + wu_n) ? (ru_s + wu_s) / (ru_n + wu_n) : 0;
    r.simdUtil = su_n ? su_s / su_n : 0;

    // Cycles: sum of per-dispatch durations (dispatches run
    // back-to-back on this GPU).
    for (const auto &rec : rt.launchRecords())
        r.cycles += rec.cycles;
    r.ipc = r.cycles ? double(r.dynInsts) / double(r.cycles) : 0;

    r.instFootprint = rt.instFootprintBytes();
    r.dataFootprint = rt.dataFootprintBytes();

    unsigned clusters =
        (cfg.numCus + cfg.cusPerCluster - 1) / cfg.cusPerCluster;
    for (unsigned c = 0; c < clusters; ++c) {
        r.l1iMisses += uint64_t(gpu.l1iCache(c).misses.value());
        r.l1iHits += uint64_t(gpu.l1iCache(c).hits.value());
    }

    r.launches = rt.launchRecords();
    if (inspect)
        inspect(rt);
    return r;
}

std::pair<AppResult, AppResult>
runBoth(const std::string &workload, const GpuConfig &cfg,
        const workloads::WorkloadScale &scale)
{
    // The two ISA-level runs are independent simulations; overlap them
    // on the worker pool (LAST_JOBS=1 recovers the serial path).
    return runBothParallel(workload, cfg, scale);
}

std::string
MismatchReport::format() const
{
    std::ostringstream os;
    os << "cross-ISA mismatch in " << workload << ": " << field;
    if (launchIndex >= 0)
        os << " (launch " << launchIndex << ")";
    os << " diverges: HSAIL=" << hsailValue << " GCN3=" << gcn3Value;
    return os.str();
}

IsaMismatchError::IsaMismatchError(MismatchReport report)
    : SimError(ErrorKind::Mismatch, report.format()),
      report_(std::move(report))
{}

void
checkIsaAgreement(const AppResult &hsail, const AppResult &gcn3)
{
    auto mismatch = [&](const std::string &field, int launch,
                        const std::string &h, const std::string &g) {
        MismatchReport r;
        r.workload = hsail.workload;
        r.field = field;
        r.launchIndex = launch;
        r.hsailValue = h;
        r.gcn3Value = g;
        throw IsaMismatchError(std::move(r));
    };

    if (hsail.workload != gcn3.workload)
        mismatch("workload", -1, hsail.workload, gcn3.workload);
    if (hsail.verified != gcn3.verified)
        mismatch("verified", -1, hsail.verified ? "true" : "false",
                 gcn3.verified ? "true" : "false");
    if (hsail.digest != gcn3.digest)
        mismatch("digest", -1, std::to_string(hsail.digest),
                 std::to_string(gcn3.digest));
    if (hsail.launches.size() != gcn3.launches.size())
        mismatch("launches.size", -1,
                 std::to_string(hsail.launches.size()),
                 std::to_string(gcn3.launches.size()));
    for (size_t i = 0; i < hsail.launches.size(); ++i) {
        if (hsail.launches[i].kernel != gcn3.launches[i].kernel)
            mismatch("launch.kernel", int(i), hsail.launches[i].kernel,
                     gcn3.launches[i].kernel);
    }
}

} // namespace last::sim
