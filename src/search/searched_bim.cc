#include "search/searched_bim.hh"

#include <cstdio>
#include <string>
#include <utility>

#include "common/fnv.hh"
#include "harness/profile_cache.hh"
#include "search/sbim_cache.hh"

namespace valley {
namespace search {

std::string
sbimMapperId(const BitMatrix &bim, std::uint64_t seed)
{
    // FNV-1a over the row masks: cheap, stable, and sensitive to any
    // row change, so distinct matrices get distinct cache ids.
    std::uint64_t h = bits::kFnvOffsetBasis;
    for (unsigned r = 0; r < bim.size(); ++r)
        h = bits::fnv1aU64(h, bim.row(r));
    char buf[64];
    std::snprintf(buf, sizeof buf, "SBIM-%llu-%016llx",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(h));
    return buf;
}

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
 * profiles `searchSet` stores under that matrix's hash can never come
 * from diverging copies of the setup code.
 *
 * Member workloads are rebuilt from their canonical names and their
 * planes extracted in `set.members()` order; the planes then feed
 * one `BimSearch` scoring every candidate row against all members.
 */
struct SetPipeline
{
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<workloads::TracePlanes> planes;
    std::unique_ptr<BimSearch> searcher;

    SetPipeline(const workloads::WorkloadSet &set,
                const AddressLayout &layout, const SearchOptions &opts,
                double scale)
        : workloads(set.build(scale))
    {
        // The search's token also stops plane extraction: one large
        // member's planes can take longer than a whole cell budget.
        workloads::PlaneOptions po{layout.addrBits, opts.threads};
        po.cancel = opts.cancel;
        planes.reserve(workloads.size());
        for (const auto &wl : workloads)
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

    // Identity profiles through the on-disk cache: repeated service
    // invocations (and the Fig. 5/10 benches) share the computation.
    // A miss profiles the member's planes, already extracted for the
    // search, instead of walking its trace a second time.
    const BitMatrix identity = BitMatrix::identity(layout.addrBits);
    out.identityProfiles.reserve(set.size());
    for (std::size_t m = 0; m < pipe.planes.size(); ++m) {
        const std::string key = harness::profileCacheKey(
            pipe.workloads[m]->info().abbrev, "", opts.window,
            layout.addrBits, opts.metric, scale);
        auto p = harness::profileCache().lookup(key);
        if (!p) {
            p = pipe.planes[m].profileFor(identity, opts.window,
                                          opts.metric);
            harness::profileCache().store(key, *p);
        }
        out.identityProfiles.push_back(std::move(*p));
    }

    out.annealed = cached ? *cached : pipe.searcher->anneal();
    out.greedyBaseline = pipe.searcher->greedy();
    // A deadline-truncated result is a valid incumbent but
    // wall-clock-dependent: persisting it would serve a
    // nondeterministic matrix to every later (uncancelled) run.
    if (!cached && !out.annealed.stats.deadlineHit)
        sbimCache().store(cache_key, out.annealed);

    // Per-member searched profiles, persisted under the matrix-hashed
    // SBIM mapper id so Fig. 10-style benches can chart this exact
    // searched mapping without re-profiling (and never collide with a
    // different-budget or different-set run).
    const std::string mapper_id =
        sbimMapperId(out.annealed.bim, opts.seed);
    out.searchedProfiles.reserve(set.size());
    for (std::size_t m = 0; m < pipe.planes.size(); ++m) {
        EntropyProfile p = pipe.planes[m].profileFor(
            out.annealed.bim, opts.window, opts.metric);
        harness::profileCache().store(
            harness::profileCacheKey(set.members()[m], mapper_id,
                                     opts.window, layout.addrBits,
                                     opts.metric, scale),
            p);
        out.searchedProfiles.push_back(std::move(p));
    }

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
