#include "search/searched_bim.hh"

#include <string>
#include <utility>

#include "search/sbim_cache.hh"

namespace valley {
namespace search {

SearchOptions
defaultOptions(const AddressLayout &layout)
{
    SearchOptions opts;
    opts.targets = layout.randomizeTargets();
    opts.candidateMask = layout.pageMask();
    return opts;
}

std::string
jointMapperName(const workloads::WorkloadSet &set)
{
    return set.size() == 1 ? "SBIM" : "GBIM";
}

namespace {

/**
 * The one shared joint-search pipeline. Both entry points go through
 * this, so the matrix the harness gets from `setMapper` and the
 * profiles `searchSet` reports for it can never come from diverging
 * copies of the setup code.
 *
 * Member workloads are rebuilt from their canonical names and their
 * planes extracted in `set.members()` order; the planes then feed
 * one `BimSearch` scoring every candidate row against all members.
 */
struct SetPipeline
{
    std::vector<workloads::TracePlanes> planes;
    std::unique_ptr<BimSearch> searcher;

    SetPipeline(const workloads::WorkloadSet &set,
                const AddressLayout &layout, const SearchOptions &opts,
                double scale)
    {
        // The search's token also stops plane extraction: one large
        // member's planes can take longer than a whole cell budget.
        workloads::PlaneOptions po{layout.addrBits, opts.threads};
        po.cancel = opts.cancel;
        planes.reserve(set.size());
        for (const auto &wl : set.build(scale))
            planes.emplace_back(*wl, po);
        std::vector<const workloads::TracePlanes *> ptrs;
        ptrs.reserve(planes.size());
        for (const workloads::TracePlanes &p : planes)
            ptrs.push_back(&p);
        searcher =
            std::make_unique<BimSearch>(layout, std::move(ptrs), opts);
    }
};

} // namespace

SetSearchResult
searchSet(const workloads::WorkloadSet &set,
          const AddressLayout &layout, const SearchOptions &opts,
          double scale)
{
    checkOptions(opts, set.size());

    SetSearchResult out;

    const std::string cache_key = sbimCacheKey(set, scale, layout, opts);
    const auto cached = sbimCache().lookup(cache_key);

    const SetPipeline pipe(set, layout, opts, scale);

    // Identity profiles from the member planes already extracted for
    // the search: no second walk of any trace.
    const BitMatrix identity = BitMatrix::identity(layout.addrBits);
    out.identityProfiles.reserve(set.size());
    for (const workloads::TracePlanes &planes : pipe.planes)
        out.identityProfiles.push_back(
            planes.profileFor(identity, opts.window, opts.metric));

    out.annealed = cached ? *cached : pipe.searcher->anneal();
    out.greedyBaseline = pipe.searcher->greedy();
    // A deadline-truncated result is a valid incumbent but
    // wall-clock-dependent: persisting it would serve a
    // nondeterministic matrix to every later (uncancelled) run.
    if (!cached && !out.annealed.stats.deadlineHit)
        sbimCache().store(cache_key, out.annealed);

    out.searchedProfiles.reserve(set.size());
    for (const workloads::TracePlanes &planes : pipe.planes)
        out.searchedProfiles.push_back(planes.profileFor(
            out.annealed.bim, opts.window, opts.metric));

    // A cache hit deserializes only (bim, costs, aggregate entropy);
    // rebuild the per-member breakdown from the searched profiles —
    // the same rowEntropy arithmetic and the same objective the live
    // search used, so hit and miss report identical numbers.
    if (out.annealed.memberTargetEntropy.empty()) {
        const unsigned gates = out.annealed.bim.xorGateCount();
        out.annealed.memberTargetEntropy.resize(set.size());
        out.annealed.memberCosts.resize(set.size());
        for (std::size_t m = 0; m < set.size(); ++m) {
            auto &ent = out.annealed.memberTargetEntropy[m];
            ent.resize(opts.targets.size());
            for (std::size_t i = 0; i < opts.targets.size(); ++i)
                ent[i] =
                    out.searchedProfiles[m].perBit[opts.targets[i]];
            out.annealed.memberCosts[m] =
                pipe.searcher->memberCost(ent, gates);
        }
    }
    return out;
}

std::unique_ptr<AddressMapper>
setMapper(const AddressLayout &layout,
          const workloads::WorkloadSet &set,
          const SearchOptions &opts, double scale, std::string name)
{
    checkOptions(opts, set.size());
    // A cache hit skips the whole pipeline — including trace-plane
    // extraction for every member — so repeated SBIM/GBIM grid cells
    // pay only the lookup.
    const std::string cache_key = sbimCacheKey(set, scale, layout, opts);
    if (name.empty())
        name = jointMapperName(set);
    if (auto cached = sbimCache().lookup(cache_key))
        return std::make_unique<AddressMapper>(
            std::move(name), layout, std::move(cached->bim));
    const SetPipeline pipe(set, layout, opts, scale);
    SearchResult best = pipe.searcher->anneal();
    // Same rule as searchSet: never cache a deadline-truncated
    // (wall-clock-dependent) matrix.
    if (!best.stats.deadlineHit)
        sbimCache().store(cache_key, best);
    return std::make_unique<AddressMapper>(std::move(name), layout,
                                           std::move(best.bim));
}

} // namespace search
} // namespace valley
