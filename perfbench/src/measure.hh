/**
 * @file
 * Measurement primitives shared by the benchmark workloads: the clock,
 * order statistics, in-memory spans, metric reporting and child
 * processes.
 */

#ifndef LASTBENCH_MEASURE_HH
#define LASTBENCH_MEASURE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace lastbench
{

/** CLOCK_MONOTONIC in nanoseconds (std::chrono::steady_clock). */
int64_t nowNs();

/** Median of `v` (mean of the two middle values for even sizes; 0
 *  when empty). */
double median(std::vector<double> v);

/** The tail of a latency sample: the highest percentile that still has
 *  at least `minBeyond` samples above it, i.e. the order statistic
 *  with exactly `minBeyond` larger samples. */
struct Tail
{
    double value = 0;
    double percentile = 0; ///< 100 * (n - minBeyond) / n
    size_t beyond = 0;     ///< samples above `value`'s rank
    bool defined = false;  ///< false when n <= minBeyond
};
Tail tailOf(std::vector<double> v, size_t minBeyond = 10);

/** One end-to-end or per-layer figure, printed with unit and the
 *  number of samples it summarizes. */
struct Metric
{
    double value = 0;
    std::string unit;
    size_t samples = 1;
    std::string note; ///< e.g. which percentile a tail is
};

/** Ordered metric table plus the run's verdict. */
struct Report
{
    std::map<std::string, Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log

    void set(const std::string &name, double value,
             const std::string &unit, size_t samples = 1,
             const std::string &note = "");
    void fail(const std::string &what, uint64_t count = 1);
    /** Human-readable lines, then the single-line JSON result. */
    void print(bool correct) const;
};

/** A span recorded around one call into a layer. */
struct Span
{
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int parent = -1;     ///< index of the enclosing span, or -1
    uint64_t request = 0; ///< request id (serve), 0 otherwise
};

/** In-memory span recorder; written out once, when the run ends.
 *  Disabled tracers record nothing and cost one branch. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span; @return its index (-1 when disabled). */
    int begin(const std::string &name, int parent = -1,
              uint64_t request = 0);
    void end(int index);
    /** Record a span whose interval is already known. */
    int add(const std::string &name, int64_t start, int64_t end,
            int parent = -1, uint64_t request = 0);

    const std::vector<Span> &spans() const { return list; }

    /** One JSON object per line: name, start, end, parent, request
     *  and self time (duration minus the union of its children), in ns
     *  relative to the first span's start. */
    void write(const std::string &path) const;

  private:
    bool on;
    mutable std::mutex mu;
    std::vector<Span> list;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int parent = -1)
        : tracer(t), index(t.begin(name, parent))
    {}
    ~Scope() { tracer.end(index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer;
    int index;
};

/** Peak resident set of this process, MiB (getrusage ru_maxrss). */
double selfPeakRssMb();

/** Start `argv` with stdout/stderr redirected to `logPath` (appended).
 *  @throws std::runtime_error when the spawn fails. */
pid_t spawnProcess(const std::vector<std::string> &argv,
                   const std::string &logPath);

/** Wait for `pid`; @return its exit status (-1 on a signal) and its
 *  peak RSS in MiB through `peakRssMb`. */
int waitProcess(pid_t pid, double *peakRssMb = nullptr);

/** Seeded Fisher-Yates permutation of [0, n). */
std::vector<size_t> permutation(size_t n, uint64_t seed);

} // namespace lastbench

#endif // LASTBENCH_MEASURE_HH
