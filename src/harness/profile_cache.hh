/**
 * @file
 * On-disk memoization of entropy profiles, mirroring the simulation
 * result cache.
 *
 * Fig. 5 profiles all sixteen benchmarks and Fig. 10 profiles MT
 * under every scheme; any profile-driven BIM search re-reads the same
 * profiles many times over. Profiles are deterministic functions of
 * (workload, mapper, window, bits, metric, scale), so the first bench
 * to compute one persists it to a CSV under `harness::cacheDir()`
 * (VALLEY_CACHE_DIR-configurable, "cache/" by default) and later runs
 * reuse it. The cache policy lives in `record_cache.hh`; this file
 * holds the key builder and the codec.
 */

#ifndef VALLEY_HARNESS_PROFILE_CACHE_HH
#define VALLEY_HARNESS_PROFILE_CACHE_HH

#include <optional>
#include <string>

#include "harness/record_cache.hh"
#include "workloads/profiler.hh"

namespace valley {
namespace harness {

/**
 * Profile cache schema/behavior version; bump on metric changes.
 * p2: checksummed record lines (atomic_io.hh) — pre-checksum epochs
 * are skipped as stale on load.
 * p3: mapper-registry epoch — profiles are keyed alongside v5 result
 * keys and m3 searched matrices; pre-registry lines load as stale.
 */
inline constexpr const char *kProfileCacheVersion = "p3";

/**
 * Unique key of one profile. `mapper_id` must uniquely identify the
 * mapper applied before accumulation (e.g. scheme name plus BIM
 * seed); use "" for no mapper.
 */
std::string profileCacheKey(const std::string &workload,
                            const std::string &mapper_id,
                            unsigned window, unsigned nbits,
                            EntropyMetric metric, double scale);

/**
 * Codec of the profile cache (`record_cache.hh`): weight, bit count,
 * then every per-bit entropy at full precision.
 */
struct ProfileCodec
{
    using Value = EntropyProfile;
    static constexpr const char *kName = "profile";
    static constexpr const char *kVersion = kProfileCacheVersion;
    static constexpr const char *kFile = "valley_profiles_cache.csv";

    static std::string encode(const EntropyProfile &p);
    static std::optional<EntropyProfile> decode(const std::string &line);
};

/** The process-wide profile cache. */
RecordCache<ProfileCodec> &profileCache();

/**
 * Profile a workload through the cache: lookup by
 * (workload abbreviation, mapper_id, opts, scale), compute with
 * `workloads::profileWorkload` on a miss, store, return. Cache hits
 * round-trip doubles at full precision, so a hit is bit-identical to
 * the original computation.
 */
EntropyProfile profileWorkloadCached(
    const Workload &workload, const workloads::ProfileOptions &opts,
    double scale, const std::string &mapper_id = "");

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_PROFILE_CACHE_HH
