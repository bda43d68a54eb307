#include "search/searched_bim.hh"

#include <string>
#include <utility>

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
    const SetPipeline pipe(set, layout, opts, scale);

    SetSearchResult out;
    // Identity profiles from the member planes already extracted for
    // the search: no second walk of any trace.
    const BitMatrix identity = BitMatrix::identity(layout.addrBits);
    out.identityProfiles.reserve(set.size());
    for (const workloads::TracePlanes &planes : pipe.planes)
        out.identityProfiles.push_back(
            planes.profileFor(identity, opts.window));

    out.annealed = pipe.searcher->anneal();
    out.greedyBaseline = pipe.searcher->greedy();

    out.searchedProfiles.reserve(set.size());
    for (const workloads::TracePlanes &planes : pipe.planes)
        out.searchedProfiles.push_back(
            planes.profileFor(out.annealed.bim, opts.window));
    return out;
}

std::unique_ptr<AddressMapper>
setMapper(const AddressLayout &layout,
          const workloads::WorkloadSet &set,
          const SearchOptions &opts, double scale, std::string name)
{
    const SetPipeline pipe(set, layout, opts, scale);
    if (name.empty())
        name = jointMapperName(set);
    return std::make_unique<AddressMapper>(
        std::move(name), layout, pipe.searcher->anneal().bim);
}

} // namespace search
} // namespace valley
