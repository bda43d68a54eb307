#include "search/searched_bim.hh"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/fnv.hh"
#include "harness/profile_cache.hh"
#include "search/sbim_cache.hh"
#include "workloads/profiler.hh"

namespace valley {
namespace search {

FlatnessObjective
defaultObjective(const AddressLayout &layout,
                 const std::vector<unsigned> &targets)
{
    FlatnessObjective obj;
    std::uint64_t channel_mask = 0;
    for (unsigned b : layout.channelBits())
        channel_mask |= std::uint64_t{1} << b;
    obj.targetWeights.reserve(targets.size());
    for (unsigned t : targets)
        obj.targetWeights.push_back(((channel_mask >> t) & 1) ? 2.0
                                                              : 1.0);
    return obj;
}

FlatnessObjective
defaultObjective(const AddressLayout &layout)
{
    return defaultObjective(layout, layout.randomizeTargets());
}

JointObjective
defaultJointObjective(const AddressLayout &layout,
                      const std::vector<unsigned> &targets,
                      JointCombiner combiner)
{
    JointObjective obj;
    obj.flatness = defaultObjective(layout, targets);
    obj.combiner = combiner;
    return obj;
}

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
 * The one shared joint-search pipeline. Every public entry point —
 * set or single-workload — goes through this, so the matrix the
 * harness gets from `setMapper` and the profiles `searchSet` stores
 * under that matrix's hash can never come from diverging copies of
 * the setup code.
 *
 * Member workloads are rebuilt from their canonical names and their
 * planes extracted in `set.members()` order; the planes then feed
 * one `BimSearch` scoring every candidate row against all members.
 */
struct SetPipeline
{
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<TracePlanes> planes;
    std::unique_ptr<BimSearch> searcher;

    SetPipeline(const workloads::WorkloadSet &set,
                const AddressLayout &layout, const SearchOptions &opts,
                double scale)
        : workloads(set.build(scale))
    {
        planes.reserve(workloads.size());
        for (const auto &wl : workloads)
            planes.emplace_back(
                *wl, PlaneOptions{layout.addrBits, opts.threads});
        std::vector<const TracePlanes *> ptrs;
        ptrs.reserve(planes.size());
        for (const TracePlanes &p : planes)
            ptrs.push_back(&p);
        JointObjective obj =
            defaultJointObjective(layout, opts.targets, opts.combiner);
        obj.memberWeights = opts.memberWeights;
        searcher = std::make_unique<BimSearch>(
            layout, std::move(ptrs), std::move(obj), opts);
    }
};

/** Fill empty targets / zero mask from the layout. */
void
defaultFromLayout(SearchOptions &opts, const AddressLayout &layout)
{
    if (opts.targets.empty())
        opts.targets = layout.randomizeTargets();
    if (opts.candidateMask == 0)
        opts.candidateMask = layout.pageMask();
}

/**
 * A weight vector that does not line up with the set would silently
 * weight the wrong members (the set canonicalizes member order), so
 * mismatches fail loudly at every entry point — including cache-hit
 * paths that never build the objective.
 */
void
validateWeights(const workloads::WorkloadSet &set,
                const SearchOptions &opts)
{
    if (!opts.memberWeights.empty() &&
        opts.memberWeights.size() != set.size())
        throw std::invalid_argument(
            "searchSet: memberWeights size " +
            std::to_string(opts.memberWeights.size()) +
            " != workload set size " + std::to_string(set.size()));
}

} // namespace

SetSearchResult
searchSet(const workloads::WorkloadSet &set,
          const AddressLayout &layout, SearchOptions opts,
          double scale)
{
    defaultFromLayout(opts, layout);
    validateWeights(set, opts);

    SetSearchResult out;

    const std::string cache_key =
        sbimCacheKey(set, scale, layout.name, opts);
    const auto cached = sbimCache().lookup(cache_key);

    const SetPipeline pipe(set, layout, opts, scale);

    // Identity profiles through the on-disk cache: repeated service
    // invocations (and the Fig. 5/10 benches) share the computation.
    workloads::ProfileOptions po;
    po.window = opts.window;
    po.numBits = layout.addrBits;
    po.metric = opts.metric;
    po.threads = opts.threads;
    out.identityProfiles.reserve(set.size());
    for (const auto &wl : pipe.workloads)
        out.identityProfiles.push_back(
            harness::profileWorkloadCached(*wl, po, scale, ""));

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
                                     po.window, po.numBits, po.metric,
                                     scale),
            p);
        out.searchedProfiles.push_back(std::move(p));
    }

    // A cache hit deserializes only (bim, costs, aggregate entropy);
    // rebuild the per-member breakdown from the searched profiles —
    // the same rowEntropy arithmetic the live search used, so hit and
    // miss report identical numbers.
    if (out.annealed.memberTargetEntropy.empty()) {
        const unsigned gates = out.annealed.bim.xorGateCount();
        const FlatnessObjective flat =
            defaultObjective(layout, opts.targets);
        out.annealed.memberTargetEntropy.resize(set.size());
        out.annealed.memberCosts.resize(set.size());
        for (std::size_t m = 0; m < set.size(); ++m) {
            auto &ent = out.annealed.memberTargetEntropy[m];
            ent.resize(opts.targets.size());
            for (std::size_t i = 0; i < opts.targets.size(); ++i)
                ent[i] =
                    out.searchedProfiles[m].perBit[opts.targets[i]];
            out.annealed.memberCosts[m] = flat.cost(ent, gates);
        }
    }
    return out;
}

std::unique_ptr<AddressMapper>
setMapper(const AddressLayout &layout,
          const workloads::WorkloadSet &set,
          const SearchOptions &opts_in, double scale, std::string name)
{
    SearchOptions opts = opts_in;
    defaultFromLayout(opts, layout);
    validateWeights(set, opts);
    // A cache hit skips the whole pipeline — including trace-plane
    // extraction for every member — so repeated SBIM/GBIM grid cells
    // pay only the lookup.
    const std::string cache_key =
        sbimCacheKey(set, scale, layout.name, opts);
    if (name.empty())
        name = jointMapperName(set);
    if (auto cached = sbimCache().lookup(cache_key))
        return mapping::makeCustom(name, layout,
                                   std::move(cached->bim));
    const SetPipeline pipe(set, layout, opts, scale);
    SearchResult best = pipe.searcher->anneal();
    // Same rule as searchSet: never cache a deadline-truncated
    // (wall-clock-dependent) matrix.
    if (!best.stats.deadlineHit)
        sbimCache().store(cache_key, best);
    return mapping::makeCustom(name, layout, std::move(best.bim));
}

WorkloadSearchResult
searchWorkload(const Workload &workload, const AddressLayout &layout,
               SearchOptions opts, double scale)
{
    const workloads::WorkloadSet set({workload.info().abbrev});
    SetSearchResult r = searchSet(set, layout, std::move(opts), scale);
    WorkloadSearchResult out;
    out.annealed = std::move(r.annealed);
    out.greedyBaseline = std::move(r.greedyBaseline);
    out.identityProfile = std::move(r.identityProfiles[0]);
    out.searchedProfile = std::move(r.searchedProfiles[0]);
    return out;
}

std::unique_ptr<AddressMapper>
searchedMapper(const AddressLayout &layout, const Workload &workload,
               const SearchOptions &opts, double scale)
{
    return setMapper(layout,
                     workloads::WorkloadSet({workload.info().abbrev}),
                     opts, scale);
}

} // namespace search
} // namespace valley
