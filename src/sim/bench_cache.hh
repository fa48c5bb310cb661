/**
 * @file
 * The bench result cache as a first-class, shareable store.
 *
 * PR 6 promotes the ad-hoc CSV reader/writer that lived inside
 * bench/support.cc into a component the whole sharded-sweep backend
 * shares: the figure binaries, the `last_sweep` shard CLI, and the
 * merge step all read and write the same `last_bench_cache.csv`
 * format through these functions, which is what makes "merged shard
 * artifacts are byte-identical to a single-process run" a structural
 * property instead of a test hope.
 *
 * Format (version 6):
 *  - header: `last-bench-cache v6 scale=<g>`
 *  - one result row per (workload, ISA, seed, knob-digest) key holding
 *    every AppResult statistic in metric-table order (sim/metrics.hh),
 *    doubles in round-trip precision so a cached row reconstructs the
 *    in-memory result exactly;
 *  - `launch,<kernel>,<cycles>,<insts>` rows then `end` per result;
 *  - `quarantine,<workload>,<isa>,<seed>,<knobs>,<kind>,<message>`
 *    marker rows for specs whose simulation failed, so a shard's
 *    partial output records *what is missing and why*. Quarantine
 *    rows never satisfy an incremental-reuse lookup and the figure
 *    loader drops them loudly (see dropQuarantinedRows);
 *  - trailer: `eof,<row count>` — v6's torn-write detector. A file
 *    truncated at a row boundary parses cleanly row-by-row; the
 *    trailer turns that silent partial load into a loud failure,
 *    which the orchestrator's resume verification and the chaos
 *    harness both rely on.
 *
 * Rows are always written in canonical key order (position in
 * workloads::allWorkloadNames(), then ISA in AllIsas order — HSAIL,
 * GCN3, PTXL — then seed, then knob digest), so two caches with equal
 * row sets are byte-identical files regardless of the order results
 * were produced or merged in.
 */

#ifndef LAST_SIM_BENCH_CACHE_HH
#define LAST_SIM_BENCH_CACHE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/parallel.hh"

namespace last::sim
{

/** Bench-cache format version. v5: sharded-sweep era — full stat
 *  rows, key columns, quarantine markers, canonical order. v6: adds
 *  the `eof,<nrows>` trailer so truncation at a row boundary cannot
 *  load as a silently-partial cache. */
constexpr int BenchCacheVersion = 6;

/** The incremental-reuse identity of one sweep entry. The scale is
 *  file-level (caches at different scales are different files), so the
 *  per-row key is (workload, ISA, seed, knob-digest). */
struct CacheKey
{
    std::string workload;
    IsaKind isa = IsaKind::HSAIL;
    uint64_t seed = 0;
    uint64_t knobDigest = 0;

    bool operator==(const CacheKey &o) const
    {
        return workload == o.workload && isa == o.isa &&
               seed == o.seed && knobDigest == o.knobDigest;
    }
};

/** The key a RunSpec's result would be cached under. */
CacheKey specCacheKey(const RunSpec &spec);

/** Canonical row order (see file comment). */
bool cacheKeyLess(const CacheKey &a, const CacheKey &b);

/** One cached row: the key plus the full result (quarantined results
 *  carry only identity + error, like everywhere else). */
struct CachedRun
{
    CacheKey key;
    AppResult result;
};

/** A parsed (or to-be-written) bench cache. */
struct BenchCacheFile
{
    double scale = 1.0;
    std::vector<CachedRun> rows;

    /** Row with this key, or nullptr. Linear scan — the matrix is
     *  tens of rows, not millions. */
    const CachedRun *find(const CacheKey &key) const;
};

/** Write the cache, rows re-sorted into canonical order first. */
void writeBenchCache(std::ostream &os, const BenchCacheFile &cache);

/**
 * Strict cache parser: any malformation — stale version, garbled or
 * truncated row, duplicate key, missing/contradicting `eof` trailer,
 * an unterminated final line, bytes after the trailer — throws
 * ConfigError naming `source` and the byte offset of the offending
 * line. Never crashes, hangs, or returns a partial row set. This is
 * the loader the orchestrator's resume verification uses: "does this
 * partial cache verify" must be a yes/no question with no silent
 * third answer.
 */
void readBenchCacheStrict(std::istream &is, BenchCacheFile &out,
                          const std::string &source);

/**
 * Tolerant wrapper over readBenchCacheStrict for warm-start paths
 * where a bad cache just means re-simulating: an empty/absent stream
 * is a quiet miss (returns false), anything the strict parser rejects
 * warns loudly through the LogHook path (naming `source`) and returns
 * false with `out` cleared — a caller must treat that as "no cache",
 * never as silently-empty. Quarantine rows are returned (the merge
 * step needs them); figure-style consumers strip them with
 * dropQuarantinedRows.
 */
bool readBenchCache(std::istream &is, BenchCacheFile &out,
                    const std::string &source);

/** Remove quarantine rows, warn()ing per dropped row (the satellite
 *  contract: a poisoned row must never vanish silently).
 *  @return number of rows dropped. */
size_t dropQuarantinedRows(BenchCacheFile &cache,
                           const std::string &source);

/**
 * Merge partial caches into one: rows are deduplicated by key (the
 * first occurrence wins; a duplicate with *different* statistics —
 * which a deterministic simulator should never produce — is dropped
 * with a warn()), then canonically sorted by writeBenchCache. Merging
 * is associative, commutative, and idempotent over row sets, so any
 * merge order, overlapping shards, and re-merging a merged cache all
 * produce the same file bytes. All inputs must agree on scale
 * (fatal otherwise).
 */
BenchCacheFile mergeBenchCaches(const std::vector<BenchCacheFile> &parts);

} // namespace last::sim

#endif // LAST_SIM_BENCH_CACHE_HH
