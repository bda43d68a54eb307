/**
 * @file
 * Front-end of the mapping service: the joint search over a
 * `workloads::WorkloadSet`, the profiles it reports, and the
 * `AddressMapper` wrapping used by the harness' `map:sbim`/`map:gbim`
 * cells and `tools/valley_search`.
 *
 * The set is the unit of search, and there are two ways in:
 * `searchSet` (the matrix plus everything a report shows — greedy
 * baseline, member profiles) and `setMapper` (the matrix as a
 * mapper). A per-workload (SBIM) search is the size-1 set,
 * `WorkloadSet({name})`. Both take one `SearchOptions` (start from
 * `defaultOptions(layout)`) and run the one `BimSearch` constructor,
 * so the matrix the harness simulates and the profiles `searchSet`
 * reports come from the same search. Neither caches anything: every
 * call runs the search. A grid cell that simulates a searched BIM is
 * memoized whole by the result cache, so a cached cell never reaches
 * these.
 */

#ifndef VALLEY_SEARCH_SEARCHED_BIM_HH
#define VALLEY_SEARCH_SEARCHED_BIM_HH

#include <memory>

#include "mapping/address_mapper.hh"
#include "search/bim_search.hh"
#include "workloads/workload_set.hh"

namespace valley {
namespace search {

/**
 * Default search options for a layout, the one place the targets and
 * the candidate mask are filled: targets = `randomizeTargets()`,
 * candidates = `pageMask()` (the PAE input restriction),
 * window/seed/budget left at `SearchOptions` defaults.
 */
SearchOptions defaultOptions(const AddressLayout &layout);

/**
 * Mapper name of a searched set mapping: "SBIM" for a size-1 set
 * (the per-workload searched BIM of Figs. 10/12), "GBIM" for a real
 * set — the *global* searched BIM, the profile-driven counterpart of
 * the paper's one-size-fits-all RMP.
 */
std::string jointMapperName(const workloads::WorkloadSet &set);

/** Everything the CLI reports about one joint set search. */
struct SetSearchResult
{
    SearchResult annealed;          ///< best joint matrix
    SearchResult greedyBaseline;    ///< hill-climbing baseline
    /** Per-member profile under BASE, `set.members()` order. */
    std::vector<EntropyProfile> identityProfiles;
    /** Per-member profile under `annealed.bim`, same order. */
    std::vector<EntropyProfile> searchedProfiles;
};

/**
 * Run the full joint search pipeline over a workload set: build one
 * `workloads::TracePlanes` per member, profile every member under
 * the identity mapping from its planes, anneal a single BIM against
 * all of them (plus the greedy baseline), and profile every member
 * under that BIM from the same planes. Both profiles equal
 * `workloads::profileWorkload` bit for bit.
 */
SetSearchResult searchSet(const workloads::WorkloadSet &set,
                          const AddressLayout &layout,
                          const SearchOptions &opts, double scale);

/**
 * Search a set and wrap the best matrix as an `AddressMapper` named
 * `name` (empty = `jointMapperName(set)`; the harness passes "GBIM"
 * explicitly so a degenerate size-1 GBIM grid cell still reports the
 * scheme that was requested). Deterministic in (set, layout, opts,
 * scale); the name is a label only. `scale` must be the factor the
 * member workloads are built with.
 */
std::unique_ptr<AddressMapper> setMapper(
    const AddressLayout &layout, const workloads::WorkloadSet &set,
    const SearchOptions &opts, double scale, std::string name = "");

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_SEARCHED_BIM_HH
