/**
 * @file
 * On-disk memoization of searched BIM matrices, mirroring the result
 * cache.
 *
 * A `BimSearch` run is by far the most expensive step of an SBIM grid
 * cell (annealing restarts x iterations, each scoring bit planes), and
 * it is a deterministic function of (workload identity, scale, layout,
 * search options, search version). Repeated grid runs — every fig10 /
 * fig12 / synth_smoke invocation after the first — therefore memoize
 * the searched matrix under `harness::cacheDir()` and skip the search
 * entirely on a hit.
 *
 * The key embeds `kSearchVersion` (bumped whenever the search would
 * produce a different matrix for the same seed), the workload set's
 * key (Table II abbreviations and canonical `synth:` specs) and every
 * `SearchOptions` field that shapes the outcome. The cache policy
 * lives in `harness/record_cache.hh`; this file holds the key
 * builder and the codec.
 */

#ifndef VALLEY_SEARCH_SBIM_CACHE_HH
#define VALLEY_SEARCH_SBIM_CACHE_HH

#include <optional>
#include <string>

#include "harness/record_cache.hh"
#include "search/bim_search.hh"
#include "workloads/workload_set.hh"

namespace valley {
namespace search {

/**
 * SBIM cache schema version; bump on serialization changes.
 * m2: checksummed record lines (atomic_io.hh) + memberWeights in the
 * key — pre-checksum epochs are skipped as stale on load.
 * m3: mapper-registry epoch (layout presets become first-class cache
 * identities); pre-registry lines load as stale.
 * m4: the layout keys by `mapping::layoutIdentity` instead of its
 * display name, and the anneal temperatures and minimum taps, now
 * constants, leave the key; m3 lines load as stale.
 */
inline constexpr const char *kSbimCacheVersion = "m4";

/**
 * Unique key of one search over a workload set: the set's
 * order-canonical escaped `key()` (so any spelling of the same set —
 * reordered members, reordered synth parameters, duplicates — hits
 * the same cache line), problem scale, the layout's
 * `mapping::layoutIdentity`, and every `SearchOptions` field that
 * shapes the outcome (targets, candidate mask, window, metric,
 * combiner, seed, restarts, iterations, evaluation cap, member
 * weights) plus `kSearchVersion`.
 *
 * Free-form fields are percent-escaped (`workloads::escapeSpecField`)
 * before entering the key: synth specs contain commas, and a raw
 * separator or newline inside a field would make the
 * one-line-per-entry CSV ambiguous. The cache's `store` additionally
 * *rejects* keys still containing a newline or the '|' payload
 * separator — escaping at the source plus rejection at the sink, so
 * no spec string can corrupt the file.
 */
std::string sbimCacheKey(const workloads::WorkloadSet &set,
                         double scale, const AddressLayout &layout,
                         const SearchOptions &opts);

/**
 * Codec of the SBIM cache (`harness/record_cache.hh`): the matrix
 * rows, both costs and the aggregate target entropy. Search
 * statistics and the per-member breakdown are not persisted — a hit
 * reports zero evaluations, which is accurate: nothing was evaluated.
 * A non-invertible matrix decodes as corrupt, so it can never reach
 * an `AddressMapper`.
 */
struct SbimCodec
{
    using Value = SearchResult;
    static constexpr const char *kName = "sbim";
    static constexpr const char *kVersion = kSbimCacheVersion;
    static constexpr const char *kFile = "valley_sbim_cache.csv";

    static std::string encode(const SearchResult &r);
    static std::optional<SearchResult> decode(const std::string &line);
};

/** The process-wide SBIM cache. */
harness::RecordCache<SbimCodec> &sbimCache();

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_SBIM_CACHE_HH
