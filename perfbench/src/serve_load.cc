/**
 * @file
 * The serve phase: a `last_serve` daemon (default options, preloaded
 * with the committed cache) under an open-loop stream of `diverge` and
 * `stats` requests over a ladder of offered rates.
 *
 * Warm requests ask for default-seed `diverge` reports of all 14 apps
 * and are answered from the daemon's row store; their payloads must be
 * byte-identical to divergenceFromCache + writeDivergenceJsonArray on
 * the committed cache. Cold requests need simulation: fresh seeds of
 * the four seeded stress apps (artifact hits), fresh ldsswizzle
 * stride/pad knobs (new IL: finalize + simulate, artifact misses), and
 * `stats` of a stress app at one ISA, whose payload must be
 * byte-identical to the offline writeStatsJson export. Some cold keys
 * are sent twice back to back so in-flight coalescing has work.
 *
 * The ladder runs a warm-up step and the reference step (whose
 * latencies are the warm_* and cold_* metrics); traced runs then add
 * capacity probes 15% apart and stop at the first one that misses the
 * limit.
 *
 * One generator thread sends every request at its scheduled time over
 * a few connections and timestamps each response line as it arrives;
 * latency runs from the scheduled send time, so a stall also charges
 * the requests queued behind it.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json_in.hh"
#include "common/random.hh"
#include "common/socket.hh"
#include "obs/divergence.hh"
#include "obs/stats_export.hh"
#include "phases.hh"
#include "sim/shard.hh"
#include "workloads/workload.hh"

namespace lastbench
{

using namespace last;

namespace
{

/** The ladder: a warm-up step, the reference step (busy but
 *  unsaturated; README.md, "Steadiness"), then capacity probes, each
 *  ProbeRatio times the rate of the one below. */
constexpr double WarmupRate = 150, RefRate = 300;
constexpr double WarmupS = 2.0, ProbeS = 1.0;
constexpr double ProbeRatio = 1.15;
constexpr unsigned ProbeSteps = 14; // up to 300 * 1.15^14 = 2128 rps
constexpr unsigned RefStep = 1;
/** The reference step is cut into this many consecutive windows. A
 *  p50 metric is the lowest window median, because interference from
 *  the rest of the host only ever slows requests down; a tail is the
 *  median of the window tails, so one spoiled window does not move it
 *  (README.md, "Steadiness"). */
constexpr unsigned Windows = 7;
/** A ladder step meets the latency limit when its warm tail is at
 *  most this many times serve.warm_unloaded_ms. */
constexpr double WarmTailLimitFactor = 250;
/** Traffic mix. Synthetic: no recorded traffic exists; README.md,
 *  "Traffic mix", gives the measurement behind the cold share. */
constexpr double ColdFrac = 0.10;  ///< cold share of the scheduled keys
constexpr double DupFrac = 0.25;   ///< cold keys sent twice back to back
constexpr double LateLimitMs = 100; ///< later than this voids the run
/** A step has a growing backlog when its requests are still being
 *  answered this long after its last scheduled send. */
constexpr double BacklogLimitMs = 250;
constexpr int64_t DrainLimitNs = 30'000'000'000;
constexpr unsigned UnloadedWarm = 28; ///< 2 per app, closed loop
constexpr unsigned SetupProbes = 14;

/** Fresh ldsswizzle knobs: stride 1..32 words, pad 0..31 words (a
 *  256-lane workgroup then needs at most 64 KiB of LDS). */
constexpr unsigned KnobStrides = 32, KnobPads = 32;

const char *const SeededStress[] = {"atomicred", "bfsgraph", "pipeline",
                                    "ldsswizzle"};

/** A blocking line-oriented client connection. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        net::Endpoint ep;
        ep.kind = net::Endpoint::Kind::Unix;
        ep.path = path;
        fd_ = net::connectEndpoint(ep);
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    bool
    send(const std::string &line)
    {
        const std::string data = line + "\n";
        size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += size_t(n);
        }
        return true;
    }

    /** Read what is available (blocking until at least one byte) and
     *  append complete lines to `out`. @return false on EOF/error. */
    bool
    pump(std::vector<std::string> &out)
    {
        char chunk[65536];
        ssize_t n;
        do {
            n = ::recv(fd_, chunk, sizeof(chunk), 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        buf_.append(chunk, size_t(n));
        size_t nl;
        while ((nl = buf_.find('\n')) != std::string::npos) {
            out.push_back(buf_.substr(0, nl));
            buf_.erase(0, nl + 1);
        }
        return true;
    }

    /** Send one line and block for one response line. */
    std::string
    call(const std::string &line)
    {
        std::vector<std::string> got;
        if (!send(line))
            throw std::runtime_error("send failed");
        while (got.empty())
            if (!pump(got))
                throw std::runtime_error("daemon closed the connection");
        return got.front();
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** A running daemon; stopped (shutdown request, then wait) by
 *  finish() or, failing that, killed by the destructor. */
class Daemon
{
  public:
    Daemon(const RunOptions &o, const std::string &sock)
        : sock_(sock)
    {
        spawnNs_ = nowNs();
        pid_ = spawnProcess({o.serveExe, "serve", "--unix", sock,
                             "--preload", o.committed},
                            o.workDir + "/daemon.log");
    }
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitProcess(pid_);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect (retrying while the daemon preloads) and ping.
     *  @return seconds from spawn to the ping's answer. */
    double
    awaitReady(std::unique_ptr<Conn> &conn)
    {
        const int64_t limit = spawnNs_ + 60'000'000'000;
        while (true) {
            try {
                conn = std::make_unique<Conn>(sock_);
                break;
            } catch (const SimError &) {
                int status;
                if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                    pid_ = -1;
                    throw std::runtime_error("daemon exited at start-up");
                }
                if (nowNs() > limit)
                    throw std::runtime_error("daemon never listened");
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
        const std::string r = conn->call("{\"id\":0,\"method\":\"ping\"}");
        const int64_t t = nowNs();
        if (r.find("\"ok\":true") == std::string::npos)
            throw std::runtime_error("ping failed: " + r);
        return double(t - spawnNs_) / 1e9;
    }

    /** Shut down through the protocol. @return peak RSS in MiB. */
    double
    finish(Conn &conn)
    {
        conn.call("{\"id\":0,\"method\":\"shutdown\"}");
        double rss = 0;
        const int rc = waitProcess(pid_, &rss);
        pid_ = -1;
        if (rc != 0)
            throw std::runtime_error("daemon exited with " +
                                     std::to_string(rc));
        return rss;
    }

  private:
    std::string sock_;
    int64_t spawnNs_ = 0;
    pid_t pid_ = -1;
};

/** Expected payloads: per app, the offline divergence report derived
 *  from the committed cache (warm diverge); per stress app and ISA,
 *  the offline stats export (cold stats). */
struct Expected
{
    std::map<std::string, std::string> warm;
    std::map<std::pair<std::string, IsaKind>, std::string> stats;
};

Expected
expectedPayloads(const Reference &ref)
{
    Expected out;
    for (const obs::DivergenceReport &r :
         sim::divergenceFromCache(ref.cache)) {
        std::ostringstream os;
        obs::writeDivergenceJsonArray(os, {r});
        out.warm[r.workload] = os.str();
    }
    for (const char *app : SeededStress) {
        for (IsaKind isa : AllIsas) {
            obs::ExportMeta meta;
            meta.workload = app;
            meta.isa = isaName(isa);
            std::string &bytes = out.stats[{app, isa}];
            sim::runApp(app, isa, GpuConfig{}, {1.0},
                        [&](runtime::Runtime &rt) {
                            std::ostringstream os;
                            obs::writeStatsJson(os, rt, meta);
                            bytes = os.str();
                        });
        }
    }
    return out;
}

/** Outcome of one request. */
struct Outcome
{
    int64_t sentNs = -1;
    int64_t arriveNs = -1;
    std::string line;
};

/** Validate one response; @return an error description, or "". An
 *  `overloaded` refusal returns exactly "overloaded". */
std::string
validate(const Request &q, const std::string &line, const Expected &want)
{
    jsonin::JsonValue v;
    try {
        v = jsonin::parseJson(line, "<response>");
    } catch (const SimError &e) {
        return "unparseable response: " + e.message();
    }
    const jsonin::JsonValue *ok = v.find("ok");
    if (!ok || !ok->boolean) {
        const jsonin::JsonValue *k = v.find("error_kind");
        if (k && k->text == "overloaded")
            return "overloaded";
        return "error response (" + (k ? k->text : "?") + ")";
    }
    const jsonin::JsonValue *schema = v.find("payload_schema");
    const jsonin::JsonValue *payload = v.find("payload");
    const jsonin::JsonValue *served = v.find("served");
    if (!schema || !payload || !served)
        return "not a payload response";
    if (q.stats) {
        if (schema->text != "last-stats-v1")
            return "not a last-stats-v1 payload";
        if (payload->text != want.stats.at({q.workload, q.isa}))
            return "stats payload differs from the offline export";
        return "";
    }
    if (schema->text != "last-divergence-v2")
        return "not a last-divergence-v2 payload";
    if (!q.cold) {
        if (served->text != "cache")
            return "warm request was simulated";
        if (payload->text != want.warm.at(q.workload))
            return "warm payload differs from the offline report";
        return "";
    }
    try {
        const jsonin::JsonValue arr =
            jsonin::parseJson(payload->text, "<payload>");
        if (arr.items.size() != 1)
            return "cold payload holds " +
                   std::to_string(arr.items.size()) + " reports";
        const jsonin::JsonValue &r = arr.items[0];
        const jsonin::JsonValue *s = r.find("schema");
        const jsonin::JsonValue *f = r.find("failed");
        const jsonin::JsonValue *w = r.find("workload");
        if (!s || s->text != "last-divergence-v2" || !f || f->boolean ||
            !w || w->text != q.workload)
            return "cold report failed or malformed";
    } catch (const SimError &e) {
        return "cold payload unparseable: " + e.message();
    }
    return "";
}

/** Send `reqs` open-loop (due times relative to the stream's start);
 *  fills `out` (indexed like `reqs`). @return the stream's start. */
int64_t
runStream(const std::string &sock, const std::vector<Request> &reqs,
          std::vector<Outcome> &out)
{
    // At most nproc connections, all driven by this one thread.
    const unsigned nconn =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::vector<std::unique_ptr<Conn>> conns;
    for (unsigned c = 0; c < nconn; ++c)
        conns.push_back(std::make_unique<Conn>(sock));
    std::map<uint64_t, size_t> byId;
    for (size_t i = 0; i < reqs.size(); ++i)
        byId[reqs[i].id] = i;
    out.assign(reqs.size(), Outcome{});

    std::vector<pollfd> fds;
    for (const auto &c : conns)
        fds.push_back({c->fd(), POLLIN, 0});
    std::vector<std::string> lines;
    size_t next = 0, answered = 0;
    const int64_t start = nowNs() + 20'000'000; // 20 ms lead-in
    int64_t drainDeadline = 0;
    while (answered < reqs.size()) {
        int64_t now = nowNs();
        while (next < reqs.size() && start + reqs[next].dueNs <= now) {
            Outcome &o = out[next];
            o.sentNs = nowNs();
            if (!conns[next % nconn]->send(reqs[next].line()))
                throw std::runtime_error("send to daemon failed");
            ++next;
            now = nowNs();
        }
        int64_t waitNs;
        if (next < reqs.size()) {
            waitNs = start + reqs[next].dueNs - now;
        } else {
            if (!drainDeadline)
                drainDeadline = now + DrainLimitNs;
            waitNs = drainDeadline - now;
            if (waitNs <= 0)
                break; // the unanswered rest counts as timed out
        }
        timespec ts{time_t(waitNs / 1'000'000'000),
                    long(waitNs % 1'000'000'000)};
        const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (n < 0 && errno != EINTR)
            throw std::runtime_error("ppoll failed");
        for (size_t c = 0; n > 0 && c < fds.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            lines.clear();
            if (!conns[c]->pump(lines))
                throw std::runtime_error("daemon closed a connection");
            const int64_t t = nowNs();
            for (std::string &l : lines) {
                // Cheap id scan; full validation happens after the step.
                const size_t p = l.find("\"id\":");
                auto it = p == std::string::npos
                              ? byId.end()
                              : byId.find(std::strtoull(
                                    l.c_str() + p + 5, nullptr, 10));
                if (it == byId.end() || out[it->second].arriveNs >= 0)
                    continue;
                out[it->second].arriveNs = t;
                out[it->second].line = std::move(l);
                ++answered;
            }
        }
    }
    return start;
}

/** Parse the `status` result counters. */
std::map<std::string, double>
statusCounters(const std::string &line)
{
    std::map<std::string, double> out;
    const jsonin::JsonValue v = jsonin::parseJson(line, "<status>");
    if (const jsonin::JsonValue *r = v.find("result"))
        for (const auto &[k, m] : r->members)
            if (m.kind == jsonin::JsonValue::Kind::Number)
                out[k] = std::stod(m.text);
    return out;
}

/** What one ladder step measured. */
struct StepResult
{
    std::vector<double> warmMs, coldMs;
    uint64_t done = 0, refused = 0, failed = 0;
    double throughput = 0; ///< completed per second, first due to last answer
    double drainMs = 0;    ///< last answer after the last due time
};

} // namespace

int64_t
latencyNs(int64_t streamStart, const Request &q, int64_t arriveNs)
{
    return arriveNs - (streamStart + q.dueNs);
}

std::string
Request::line() const
{
    std::string s = "{\"id\":" + std::to_string(id) + ",\"method\":\"" +
                    (stats ? "stats" : "diverge") + "\",\"workload\":\"" +
                    workload + "\"";
    if (stats) {
        std::string isaText = isaName(isa);
        for (char &ch : isaText)
            ch = char(std::tolower(ch));
        s += ",\"isa\":\"" + isaText + "\"";
    }
    if (seed)
        s += ",\"seed\":" + std::to_string(seed);
    if (ldsStride >= 0)
        s += ",\"lds_stride\":" + std::to_string(ldsStride) +
             ",\"lds_pad\":" + std::to_string(ldsPad);
    return s + "}";
}

std::vector<double>
ladderRates()
{
    std::vector<double> r{WarmupRate, RefRate};
    for (unsigned k = 1; k <= ProbeSteps; ++k)
        r.push_back(std::round(RefRate * std::pow(ProbeRatio, k)));
    return r;
}

std::vector<Request>
makeSchedule(uint64_t seed, double refS)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
    const auto apps = workloads::allWorkloadNames();
    const std::vector<double> rates = ladderRates();
    std::set<uint64_t> seeds;
    std::set<std::pair<int, int>> knobs{{8, 0}}; // the default knobs
    std::vector<Request> out;
    uint64_t id = 1;
    for (unsigned step = 0; step < rates.size(); ++step) {
        const double stepS = step == 0         ? WarmupS
                             : step == RefStep ? refS
                                               : ProbeS;
        const size_t n = size_t(rates[step] * stepS + 0.5);
        // Jittered-periodic arrivals: request i is due at a uniform
        // time within its own 1/rate slot, and one slot in every
        // 1/ColdFrac carries a cold key. The offered load is then the
        // same at every time scale above a slot, whatever the seed;
        // two cold keys can still land in adjacent slots.
        const size_t block = size_t(1 / ColdFrac + 0.5);
        std::vector<double> t(n);
        std::vector<bool> cold(n, false);
        for (size_t i = 0; i < n; ++i)
            t[i] = (double(i) + rng.nextDouble()) * stepS / double(n);
        for (size_t b = 0; b + block <= n; b += block)
            cold[b + rng.nextBounded(block)] = true;
        for (size_t i = 0; i < n; ++i) {
            Request q;
            q.id = id++;
            q.dueNs = int64_t(t[i] * 1e9);
            q.step = step;
            q.window = unsigned(t[i] / stepS * Windows);
            q.cold = cold[i];
            // Cold keys: a third each stats, fresh seeds, fresh knobs
            // (seeds also once every knob variant is used).
            const uint64_t kind = q.cold ? rng.nextBounded(3) : 0;
            if (!q.cold) {
                q.workload = apps[rng.nextBounded(apps.size())];
            } else if (kind == 0) {
                q.stats = true;
                q.workload = SeededStress[rng.nextBounded(
                    std::size(SeededStress))];
                q.isa = AllIsas[rng.nextBounded(NumIsas)];
            } else if (kind == 1 ||
                       knobs.size() == KnobStrides * KnobPads) {
                q.workload = SeededStress[rng.nextBounded(
                    std::size(SeededStress))];
                do {
                    q.seed = (uint64_t(1) << 32) + rng.nextBounded(1ull << 40);
                } while (!seeds.insert(q.seed).second);
            } else {
                q.workload = "ldsswizzle";
                do {
                    q.ldsStride = 1 + int(rng.nextBounded(KnobStrides));
                    q.ldsPad = int(rng.nextBounded(KnobPads));
                } while (!knobs.insert({q.ldsStride, q.ldsPad}).second);
            }
            out.push_back(q);
            if (q.cold && rng.nextDouble() < DupFrac) {
                Request d = q;
                d.id = id++;
                d.duplicate = true;
                out.push_back(d);
            }
        }
    }
    return out;
}

void
runServePhase(const RunOptions &o, const Reference &ref, double refS,
              Report &rep, Tracer &tr)
{
    const bool primary = o.workload == "serve-mixed";
    const std::string sock = o.workDir + "/serve.sock";
    const Expected want = expectedPayloads(ref);

    // Set-up: spawn -> preload -> listen -> first ping answered.
    std::vector<double> setup;
    for (unsigned k = 0; k < SetupProbes; ++k) {
        Daemon d(o, sock);
        std::unique_ptr<Conn> c;
        setup.push_back(d.awaitReady(c));
        d.finish(*c);
    }

    Daemon daemon(o, sock);
    std::unique_ptr<Conn> ctl;
    setup.push_back(daemon.awaitReady(ctl));
    if (primary)
        rep.set("setup_s", median(setup), "s", setup.size(),
                "daemon spawn to first ping, --preload included");

    // Unloaded warm latency: one request in flight at a time.
    const auto apps = workloads::allWorkloadNames();
    std::vector<double> unloaded;
    for (unsigned k = 0; k < UnloadedWarm; ++k) {
        Request q;
        q.id = 1'000'000 + k;
        q.workload = apps[k % apps.size()];
        const int64_t t = nowNs();
        const std::string r = ctl->call(q.line());
        unloaded.push_back(double(nowNs() - t) / 1e6);
        ++rep.attempted;
        if (std::string e = validate(q, r, want); !e.empty())
            rep.fail("unloaded warm " + q.workload + ": " + e);
    }
    const double unloadedMs = median(unloaded);
    const double limitMs = WarmTailLimitFactor * unloadedMs;

    // The open-loop ladder, one stream per step. Up to the reference
    // step every request must succeed; above it an `overloaded`
    // refusal only disqualifies the step, and the ladder stops at the
    // first step that misses the limit. The capacity probes above the
    // reference step run in traced runs only: serve_max_rps spreads
    // too much across runs to carry a bound (README.md, "Steadiness").
    const bool probe = tr.enabled();
    const std::vector<double> rates = ladderRates();
    const std::vector<Request> all = makeSchedule(o.seed, refS);
    std::vector<std::vector<double>> warmWin(Windows), coldWin(Windows);
    // The reference step's figures for one class, from its windows.
    struct RefStats
    {
        double p50 = 0, tail = 0;
        std::string tailNote;
    };
    auto summarize = [&](const std::vector<std::vector<double>> &win,
                         const char *what) {
        RefStats r;
        std::vector<double> p50s, tails;
        double pct = 100;
        for (const auto &w : win) {
            const Tail t = tailOf(w);
            if (!t.defined) {
                rep.fail(std::string("reference step window has too few ") +
                         what + " samples for a tail");
                continue;
            }
            p50s.push_back(median(w));
            tails.push_back(t.value);
            pct = std::min(pct, t.percentile);
        }
        if (p50s.empty())
            return r;
        r.p50 = *std::min_element(p50s.begin(), p50s.end());
        r.tail = median(tails);
        char note[128];
        std::snprintf(note, sizeof(note),
                      "median of %zu window tails, each >= p%.2f with 10 "
                      "samples beyond",
                      tails.size(), pct);
        r.tailNote = note;
        return r;
    };
    // Raw latencies behind the serve metrics, for offline analysis.
    std::ofstream lat(o.workDir + "/latencies-" + o.workload + "-" +
                      std::to_string(o.seed) + ".tsv");
    lat << "step\tclass\twindow\tdue_ns\tlatency_ms\n";
    StepResult refRes;
    RefStats warmRef, coldRef;
    double lateMax = 0, maxRps = 0;
    std::string maxNote = "no step";
    bool stopped = false;
    uint64_t sent = 0, completed = 0;
    size_t first = 0;
    for (unsigned s = 0; s < rates.size(); ++s) {
        size_t end = first;
        while (end < all.size() && all[end].step == s)
            ++end;
        const std::vector<Request> reqs(all.begin() + first,
                                        all.begin() + end);
        first = end;
        std::vector<Outcome> got;
        const int64_t start = runStream(sock, reqs, got);
        sent += reqs.size();

        StepResult r;
        int64_t lastArrive = start;
        for (size_t i = 0; i < reqs.size(); ++i) {
            const Request &q = reqs[i];
            const Outcome &g = got[i];
            const int64_t due = start + q.dueNs;
            ++rep.attempted;
            if (g.sentNs >= 0)
                lateMax = std::max(lateMax, double(g.sentNs - due) / 1e6);
            const std::string err = g.arriveNs < 0
                                        ? "timed out"
                                        : validate(q, g.line, want);
            if (err == "overloaded" && s > RefStep) {
                ++r.refused;
                continue;
            }
            if (!err.empty()) {
                rep.fail("request " + std::to_string(q.id) + " (" +
                         q.workload + (q.cold ? ", cold" : ", warm") +
                         "): " + err);
                ++r.failed;
                continue;
            }
            ++r.done;
            lastArrive = std::max(lastArrive, g.arriveNs);
            const double ms = double(latencyNs(start, q, g.arriveNs)) / 1e6;
            (q.cold ? r.coldMs : r.warmMs).push_back(ms);
            if (s == RefStep)
                (q.cold ? coldWin : warmWin)[q.window].push_back(ms);
            tr.add(q.cold ? "request.cold" : "request.warm", due,
                   g.arriveNs, -1, q.id);
            lat << s << '\t' << (q.cold ? "cold" : "warm") << '\t'
                << q.window << '\t' << q.dueNs << '\t' << ms << '\n';
        }
        completed += r.done;
        const int64_t lastDue = reqs.empty() ? start
                                             : start + reqs.back().dueNs;
        r.drainMs = double(std::max<int64_t>(0, lastArrive - lastDue)) / 1e6;
        r.throughput = double(r.done) / (double(lastArrive - start) / 1e9);
        Tail wt = tailOf(r.warmMs);
        if (s == RefStep) { // judged by warm_tail_ms
            warmRef = summarize(warmWin, "warm");
            coldRef = summarize(coldWin, "cold");
            wt.value = warmRef.tail;
        }
        const bool ok = r.failed == 0 && r.refused == 0 && wt.defined &&
                        wt.value <= limitMs && r.drainMs <= BacklogLimitMs;
        std::printf("step %u: offered %.0f rps, warm n=%zu p50 %.3f ms "
                    "tail %.3f ms (p%.2f), cold n=%zu p50 %.3f ms, "
                    "refused %llu, failed %llu, drain %.1f ms%s\n",
                    s, rates[s], r.warmMs.size(), median(r.warmMs),
                    wt.value, wt.percentile, r.coldMs.size(),
                    median(r.coldMs), (unsigned long long)r.refused,
                    (unsigned long long)r.failed, r.drainMs,
                    ok ? "" : " [misses the limit]");
        if (s == RefStep)
            refRes = r;
        if (!ok && !stopped) {
            stopped = true;
            maxNote += "; step " + std::to_string(s) + " missed the limit";
        }
        if (!stopped) {
            maxRps = r.throughput;
            maxNote = "step " + std::to_string(s) + " offered " +
                      std::to_string(int(rates[s])) + " rps";
        }
        if (s >= RefStep && (stopped || !probe))
            break;
    }
    if (!stopped)
        maxNote += "; capped: the top step met the limit";
    if (lateMax > LateLimitMs)
        rep.fail("load generator ran " + std::to_string(lateMax) +
                 " ms late; the stream is void");
    if (probe && maxRps <= 0)
        rep.fail("no ladder step met the warm-tail limit");

    const std::string status =
        ctl->call("{\"id\":0,\"method\":\"status\"}");
    const double rss = daemon.finish(*ctl);
    if (primary)
        rep.set("peak_rss_mb", rss, "MiB", 1, "daemon");

    const std::string p50Note =
        "lowest median of " + std::to_string(Windows) + " windows";
    rep.set("warm_p50_ms", warmRef.p50, "ms", refRes.warmMs.size(),
            p50Note);
    rep.set("warm_tail_ms", warmRef.tail, "ms", refRes.warmMs.size(),
            warmRef.tailNote);
    rep.set("cold_p50_ms", coldRef.p50, "ms", refRes.coldMs.size(),
            p50Note);
    rep.set("cold_tail_ms", coldRef.tail, "ms", refRes.coldMs.size(),
            coldRef.tailNote);
    char limitNote[160];
    std::snprintf(limitNote, sizeof(limitNote),
                  " (limit: warm tail <= %.0f x warm_unloaded_ms = %.2f "
                  "ms, no refusal, drain <= %.0f ms)",
                  WarmTailLimitFactor, limitMs, BacklogLimitMs);
    if (probe)
        rep.set("serve_max_rps", maxRps, "1/s", rates.size(),
                maxNote + limitNote);

    // Per-layer: the daemon's own counters and the generator's health.
    const auto c = statusCounters(status);
    for (const char *k : {"cache_row_hits", "simulated_specs", "coalesced",
                          "overloaded", "errors", "quarantined_specs"})
        rep.set(std::string("serve.") + k, c.count(k) ? c.at(k) : 0,
                "count");
    const double hits = c.count("cache_row_hits") ? c.at("cache_row_hits")
                                                  : 0;
    const double sims = c.count("simulated_specs")
                            ? c.at("simulated_specs")
                            : 0;
    rep.set("serve.row_hit_ratio", hits / std::max(1.0, hits + sims),
            "ratio");
    rep.set("serve.warm_unloaded_ms", unloadedMs, "ms", unloaded.size());
    if (primary) {
        const double ah = c.count("artifact_hits") ? c.at("artifact_hits")
                                                   : 0;
        const double am = c.count("artifact_misses")
                              ? c.at("artifact_misses")
                              : 0;
        rep.set("artifact.hits", ah, "count");
        rep.set("artifact.misses", am, "count");
        rep.set("artifact.hit_ratio", ah / std::max(1.0, ah + am), "ratio");
    }
    rep.set("loadgen.late_ms_max", lateMax, "ms", sent);
    rep.set("loadgen.sent", double(sent), "count");
    rep.set("loadgen.completed", double(completed), "count");
}

} // namespace lastbench
