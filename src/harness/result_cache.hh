/**
 * @file
 * On-disk memoization of simulation results — the one on-disk cache.
 *
 * The paper's figures 11-17 all consume the same 10-workload x
 * 6-scheme grid; the bench binaries are separate executables, so the
 * first one to run persists each RunResult into a CSV cache under
 * `cacheDir()` (a `cache/` directory next to the working directory by
 * default; run artifacts never land in the repo root). Set
 * VALLEY_CACHE=0 to force fresh simulation and VALLEY_CACHE_DIR to
 * relocate the directory; delete the file after changing simulator or
 * workload code (the cache key includes a schema version that is
 * bumped with behavioral changes). A searched-BIM cell is memoized
 * whole, so a hit never runs the search either.
 *
 * The policy: the VALLEY_CACHE check comes first (a disabled cache
 * returns before any lock, load, timer or span), the file loads
 * lazily through the skip-and-quarantine `loadChecksummedRecords`,
 * one mutex guards the in-memory map, `lookup` and `store` own the
 * `cache.result.{hits,misses,stores,lookup_us}` metrics and the
 * `result_cache.lookup` span, and a store appends one checksummed
 * record with one O_APPEND write (`atomic_io.hh`).
 */

#ifndef VALLEY_HARNESS_RESULT_CACHE_HH
#define VALLEY_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "gpu/run_result.hh"

namespace valley {
namespace harness {

/**
 * Directory holding the cache file and the grid reports:
 * $VALLEY_CACHE_DIR if set, else "cache" relative to the working
 * directory. Created on first use; gitignored.
 */
std::string cacheDir();

/**
 * Cache schema/behavior version; bump on simulator changes.
 * v4: checksummed record lines (atomic_io.hh) — pre-checksum epochs
 * are skipped as stale on load.
 * v5: mapper-registry spec keys — the scheme field holds the escaped
 * canonical `map:` spec and a layout-identity field is appended, so
 * pre-registry keys can never alias post-registry cells.
 */
inline constexpr const char *kResultCacheVersion = "v5";

/**
 * Unique key of one run. Free-form fields must be percent-escaped by
 * the caller (`workloads::escapeSpecField`) — ';' separates the key
 * fields. `layout` is the layout identity
 * (`mapping::layoutIdentity`). `scale` prints in its shortest
 * round-trip form, so distinct scales yield distinct keys.
 */
std::string cacheKey(const std::string &config_name,
                     const std::string &workload,
                     const std::string &scheme, std::uint64_t seed,
                     double scale, const std::string &layout);

/**
 * Round-trip-exact text serialization of a RunResult (doubles at
 * max_digits10), so a cached cell — including one a rerun of a killed
 * grid resumes from — is byte-identical to a freshly simulated one.
 * `RunResult::config` is NOT serialized — consumers restamp it from
 * the active SimConfig on lookup.
 */
std::string serializeResult(const RunResult &r);

/** Inverse of `serializeResult`; nullopt on any malformed field. */
std::optional<RunResult> deserializeResult(const std::string &line);

/**
 * The result cache: `valley_results_cache.csv` under `cacheDir()`.
 * One mutex guards the map: a lookup runs once per grid cell, next to
 * milliseconds of simulation. A store keeps
 * `deserializeResult(serializeResult(r))` in memory, so an in-process
 * hit equals the value a later process reads from disk.
 */
class ResultCache
{
  public:
    /** The cache file; follows VALLEY_CACHE_DIR at every call. */
    static std::string path();

    /** Look up `key` (loads the file on first use). */
    std::optional<RunResult> lookup(const std::string &key);

    /**
     * Persist `r` (no-op when caching is disabled). A key with a raw
     * newline or '|' would split or truncate its record line: it is a
     * caller bug (keys are built escaped, `escapeSpecField`) and
     * throws `std::invalid_argument`. A result whose payload does not
     * decode back is dropped — the next load would quarantine it.
     */
    void store(const std::string &key, const RunResult &r);

    /** Drop the map and re-read the file on next use. Tests only. */
    void resetForTesting();

  private:
    void loadLocked();

    std::mutex mutex_;
    std::map<std::string, RunResult> entries_;
    bool loaded_ = false;
};

/** The process-wide result cache. */
ResultCache &resultCache();

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_RESULT_CACHE_HH
