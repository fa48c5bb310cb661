#include "measure.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/random.hh"
#include "obs/json.hh"

namespace lastbench
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail
tailOf(std::vector<double> v, size_t minBeyond)
{
    Tail t;
    const size_t n = v.size();
    if (n <= minBeyond)
        return t;
    std::sort(v.begin(), v.end());
    // Rank r (1-based) has n - r samples above it; the highest rank
    // with at least minBeyond above it is n - minBeyond.
    const size_t rank = n - minBeyond;
    t.value = v[rank - 1];
    t.percentile = 100.0 * double(rank) / double(n);
    t.beyond = n - rank;
    t.defined = true;
    return t;
}

void
Report::set(const std::string &name, double value, const std::string &unit,
            size_t samples, const std::string &note)
{
    metrics[name] = Metric{value, unit, samples, note};
}

void
Report::fail(const std::string &what, uint64_t count)
{
    failed += count;
    if (failures.size() < 20)
        failures.push_back(what);
}

void
Report::print(bool correct) const
{
    for (const std::string &f : failures)
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("attempted %llu, failed %llu (failed_frac %.6g)\n",
                (unsigned long long)attempted, (unsigned long long)failed,
                attempted ? double(failed) / double(attempted) : 0.0);
    for (const auto &[name, m] : metrics)
        std::printf("metric %-34s %.6g %s (n=%zu)%s%s\n", name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    m.note.empty() ? "" : " ", m.note.c_str());
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        js << (first ? "" : ", ") << '"' << last::obs::jsonEscape(name)
           << "\": {\"value\": " << last::obs::jsonNumber(m.value)
           << ", \"unit\": \"" << last::obs::jsonEscape(m.unit) << "\"}";
        first = false;
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
}

int
Tracer::begin(const std::string &name, int parent, uint64_t request)
{
    if (!on)
        return -1;
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> g(mu);
    list.push_back(Span{name, t, 0, parent, request});
    return int(list.size() - 1);
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> g(mu);
    list[size_t(index)].end = t;
}

int
Tracer::add(const std::string &name, int64_t start, int64_t end,
            int parent, uint64_t request)
{
    if (!on)
        return -1;
    std::lock_guard<std::mutex> g(mu);
    list.push_back(Span{name, start, end, parent, request});
    return int(list.size() - 1);
}

void
Tracer::write(const std::string &path) const
{
    if (!on)
        return;
    std::lock_guard<std::mutex> g(mu);
    std::vector<std::vector<size_t>> kids(list.size());
    for (size_t i = 0; i < list.size(); ++i)
        if (list[i].parent >= 0)
            kids[size_t(list[i].parent)].push_back(i);
    std::ofstream os(path);
    const int64_t t0 = list.empty() ? 0 : list.front().start;
    for (size_t i = 0; i < list.size(); ++i) {
        // Self time: the span minus the union of its children.
        const Span &s = list[i];
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (size_t k : kids[i])
            iv.emplace_back(std::max(list[k].start, s.start),
                            std::min(list[k].end, s.end));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, reach = s.start;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        os << "{\"name\":\"" << last::obs::jsonEscape(s.name)
           << "\",\"start_ns\":" << s.start - t0
           << ",\"end_ns\":" << s.end - t0 << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request
           << ",\"self_ns\":" << (s.end - s.start) - covered << "}\n";
    }
}

double
selfPeakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

pid_t
spawnProcess(const std::vector<std::string> &argv, const std::string &logPath)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed: " +
                                 std::string(std::strerror(errno)));
    if (pid == 0) {
        // Only async-signal-safe calls until exec. The child dies with
        // the harness, so an interrupted run leaves no daemon behind.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        const int fd =
            open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            dup2(fd, 1);
            dup2(fd, 2);
            close(fd);
        }
        execv(args[0], args.data());
        _exit(127);
    }
    return pid;
}

int
waitProcess(pid_t pid, double *peakRssMb)
{
    int status = 0;
    struct rusage ru;
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            return -1;
    }
    if (peakRssMb)
        *peakRssMb = double(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    last::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.nextBounded(i)]);
    return p;
}

} // namespace lastbench
