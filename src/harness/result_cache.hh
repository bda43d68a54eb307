/**
 * @file
 * On-disk memoization of simulation results.
 *
 * The paper's figures 11-17 all consume the same 10-workload x
 * 6-scheme grid; the bench binaries are separate executables, so the
 * first one to run persists each RunResult into a CSV cache under
 * `cacheDir()` (a `cache/` directory next to the working directory by
 * default; run artifacts never land in the repo root). Set
 * VALLEY_CACHE=0 to force fresh simulation and VALLEY_CACHE_DIR to
 * relocate the directory; delete the file after changing simulator or
 * workload code (the cache key includes a schema version that is
 * bumped with behavioral changes). The cache policy itself lives in
 * `record_cache.hh`; this file holds the key builder and the codec.
 */

#ifndef VALLEY_HARNESS_RESULT_CACHE_HH
#define VALLEY_HARNESS_RESULT_CACHE_HH

#include <optional>
#include <string>

#include "gpu/run_result.hh"
#include "harness/record_cache.hh"

namespace valley {
namespace harness {

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
 * (`mapping::layoutIdentity`); the default keeps legacy five-field
 * call sites compiling with an empty layout slot. `scale` prints in
 * its shortest round-trip form, so distinct scales yield distinct
 * keys.
 */
std::string cacheKey(const std::string &config_name,
                     const std::string &workload,
                     const std::string &scheme, std::uint64_t seed,
                     double scale, const std::string &layout = "");

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

/** Codec of the result cache (`record_cache.hh`). */
struct ResultCodec
{
    using Value = RunResult;
    static constexpr const char *kName = "result";
    static constexpr const char *kVersion = kResultCacheVersion;
    static constexpr const char *kFile = "valley_results_cache.csv";
    static constexpr auto encode = &serializeResult;
    static constexpr auto decode = &deserializeResult;
};

/** The process-wide result cache. */
RecordCache<ResultCodec> &resultCache();

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_RESULT_CACHE_HH
