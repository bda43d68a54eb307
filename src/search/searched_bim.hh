/**
 * @file
 * Front-end glue of the mapping service: one-call joint search over a
 * `workloads::WorkloadSet`, profile-cache integration, and the
 * `AddressMapper` wrapping used by the harness' `map:sbim`/`map:gbim`
 * cells and `tools/valley_search`.
 *
 * The set is the first-class unit: `searchSet`/`setMapper` anneal one
 * invertible BIM against every member at once. A per-workload (SBIM)
 * search is the size-1 set; `searchWorkload` is a thin wrapper over
 * it, bit-identical to the joint path by construction (asserted in
 * `tests/joint_search_test.cc`).
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
 * Default entropy-flatness objective for the given target bits:
 * uniform weights over the bank bits, 2x weight on the channel (and
 * vault) bits — channel parallelism feeds both the NoC and the DRAM
 * buses (Figs. 13-14), so a searched BIM should fill those bits
 * first. The weights align index-for-index with `targets`.
 */
FlatnessObjective defaultObjective(const AddressLayout &layout,
                                   const std::vector<unsigned> &targets);

/** Overload defaulting to `layout.randomizeTargets()`. */
FlatnessObjective defaultObjective(const AddressLayout &layout);

/**
 * Default joint objective: `defaultObjective` per member, uniform
 * member weights, member costs folded by `combiner`.
 */
JointObjective defaultJointObjective(const AddressLayout &layout,
                                     const std::vector<unsigned> &targets,
                                     JointCombiner combiner);

/**
 * Profile-cache mapper id of a searched BIM: "SBIM-<seed>-<hash of
 * the matrix rows>". The hash makes the id unique per *matrix*, as
 * `profileCacheKey` requires — two searches with the same seed but
 * different budgets (or target sets, or workload sets) produce
 * different ids.
 */
std::string sbimMapperId(const BitMatrix &bim, std::uint64_t seed);

/**
 * Default search options for a layout: targets =
 * `randomizeTargets()`, candidates = `pageMask()` (the PAE input
 * restriction), window/seed/budget left at `SearchOptions` defaults.
 */
SearchOptions defaultOptions(const AddressLayout &layout);

/**
 * Mapper name of a searched set mapping: "SBIM" for a size-1 set
 * (the per-workload searched BIM of Figs. 10/12), "GBIM" for a real
 * set — the *global* searched BIM, the profile-driven counterpart of
 * the paper's one-size-fits-all RMP.
 */
std::string jointMapperName(const workloads::WorkloadSet &set);

/** Everything the CLI reports about one workload search. */
struct WorkloadSearchResult
{
    SearchResult annealed;          ///< best annealed matrix
    SearchResult greedyBaseline;    ///< hill-climbing baseline
    EntropyProfile identityProfile; ///< workload profile under BASE
    EntropyProfile searchedProfile; ///< profile under `annealed.bim`
};

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
 * the identity mapping from its planes through the on-disk profile
 * cache (the key `harness::profileWorkloadCached` uses; `scale` keys
 * the cache entries), anneal a single BIM against all of them (plus
 * the greedy baseline), and store each member's searched profile
 * back into the profile cache under `sbimMapperId(...)` so figure
 * benches reuse them. Empty `opts.targets` and a zero
 * `opts.candidateMask` default from the layout; the objective is
 * `defaultJointObjective(layout, opts.targets, opts.combiner)`.
 *
 * The annealed matrix is memoized in the on-disk SBIM cache under the
 * set's order-canonical key (`sbim_cache.hh`): a hit skips the
 * annealing restarts (the greedy baseline and profiles still run —
 * they are what the caller asked to see) and reports zero search
 * statistics; its member cost breakdown is reconstructed from the
 * searched profiles, so hit and miss report the same numbers.
 */
SetSearchResult searchSet(const workloads::WorkloadSet &set,
                          const AddressLayout &layout,
                          SearchOptions opts, double scale);

/**
 * Search a set and wrap the best matrix as an `AddressMapper` named
 * `name` (empty = `jointMapperName(set)`; the harness passes "GBIM"
 * explicitly so a degenerate size-1 GBIM grid cell still reports the
 * scheme that was requested). Deterministic in (set, layout, opts,
 * scale) — the name is a label, not part of the cache key. `scale`
 * must be the factor the member workloads are built with; it keys
 * the on-disk SBIM cache, which lets repeated grid runs skip both
 * the search *and* the trace-plane extraction.
 */
std::unique_ptr<AddressMapper> setMapper(
    const AddressLayout &layout, const workloads::WorkloadSet &set,
    const SearchOptions &opts, double scale, std::string name = "");

/**
 * Single-workload search: `searchSet` over the size-1 set
 * `{workload.info().abbrev}`. The workload must be identified by its
 * abbreviation (or canonical synth spec) together with `scale` —
 * true for anything built by `workloads::make` — because the set
 * pipeline rebuilds members from their names.
 */
WorkloadSearchResult searchWorkload(const Workload &workload,
                                    const AddressLayout &layout,
                                    SearchOptions opts, double scale);

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_SEARCHED_BIM_HH
