/**
 * @file
 * Tests for the joint ("global") BIM search over workload sets:
 * the `JointObjective` combiners, bit-identical serial/parallel
 * restarts on a multi-member set, set-order invariance of both the
 * search result and the cache key, size-1 sets named SBIM, member
 * weights and combiners taken from the options, the
 * `maxEvaluations` budget cap, and `map:gbim` end-to-end through
 * `harness::runGrid` with cache hits on repeat runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "harness/experiment.hh"
#include "search/sbim_cache.hh"
#include "search/searched_bim.hh"
#include "workloads/workload_set.hh"

using namespace valley;
using namespace valley::search;
using workloads::WorkloadSet;

namespace {

constexpr double kScale = 0.25;

AddressLayout
gddr5()
{
    return AddressLayout::hynixGddr5();
}

/** Planes for every member of a set, plus the pointer view. */
struct SetPlanes
{
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<workloads::TracePlanes> planes;

    explicit SetPlanes(const WorkloadSet &set)
        : wls(set.build(kScale))
    {
        planes.reserve(wls.size());
        for (const auto &w : wls)
            planes.emplace_back(*w, workloads::PlaneOptions{30, 1});
    }

    std::vector<const workloads::TracePlanes *>
    ptrs() const
    {
        std::vector<const workloads::TracePlanes *> out;
        for (const workloads::TracePlanes &p : planes)
            out.push_back(&p);
        return out;
    }
};

SearchOptions
smallOptions(const AddressLayout &layout)
{
    SearchOptions o = defaultOptions(layout);
    o.threads = 1;
    o.restarts = 2;
    o.iterations = 200;
    return o;
}

/** Scoped VALLEY_CACHE=0 so searches run live, never touch disk. */
struct CacheOff
{
    CacheOff() { setenv("VALLEY_CACHE", "0", 1); }
    ~CacheOff() { unsetenv("VALLEY_CACHE"); }
};

} // namespace

TEST(JointObjective, MeanOfOneMemberIsTheMemberCost)
{
    JointObjective obj;
    const double costs[] = {0.37};
    EXPECT_EQ(obj.combine(costs), 0.37);
}

TEST(JointObjective, CombinersFoldAsDocumented)
{
    JointObjective obj;
    const double costs[] = {0.2, 0.6, 0.1};
    EXPECT_NEAR(obj.combine(costs), 0.3, 1e-12);
    obj.combiner = JointCombiner::WorstCase;
    EXPECT_EQ(obj.combine(costs), 0.6);
    // Member weights skew the mean (and are ignored by WorstCase).
    obj.combiner = JointCombiner::Mean;
    obj.memberWeights = {1.0, 2.0, 1.0};
    EXPECT_NEAR(obj.combine(costs), (0.2 + 1.2 + 0.1) / 4.0, 1e-12);
    EXPECT_EQ(combinerName(JointCombiner::Mean),
              std::string("mean"));
    EXPECT_EQ(combinerName(JointCombiner::WorstCase),
              std::string("worst"));
}

TEST(JointSearch, ParallelRestartsBitIdenticalToSerialOnSet)
{
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU", "synth:strided"});
    const SetPlanes sp(set);

    SearchOptions serial = smallOptions(layout);
    serial.restarts = 3;
    SearchOptions parallel = serial;
    parallel.threads = 3;

    const BimSearch ss(layout, sp.ptrs(), serial);
    const BimSearch ps(layout, sp.ptrs(), parallel);
    const SearchResult a = ss.anneal();
    const SearchResult b = ps.anneal();
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.identityCost, b.identityCost);
    EXPECT_EQ(a.bestRestart, b.bestRestart);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
    EXPECT_EQ(a.memberCosts, b.memberCosts);
    EXPECT_EQ(a.memberTargetEntropy, b.memberTargetEntropy);
}

TEST(JointSearch, PlaneCacheOffBitIdenticalToOnOnSet)
{
    // The incremental plane cache and the chain's mask memo must be
    // invisible to a multi-member joint search too: same trajectory,
    // same matrix, same counters story (cached run toggles/xors planes
    // and answers revisited masks from its memo, oracle run never
    // does), also when the evaluation cap stops each chain halfway
    // through its anneal. The second set adds LU, whose zero strips
    // make most proposals reuse cached kernel entropies.
    const AddressLayout layout = gddr5();
    for (const WorkloadSet &set :
         {WorkloadSet({"MT", "synth:stencil3d"}),
          WorkloadSet({"LU", "MT", "synth:stencil3d"})}) {
        SCOPED_TRACE(set.key());
        const SetPlanes sp(set);

        SearchOptions cached = smallOptions(layout);
        SearchOptions oracle = cached;
        oracle.planeCache = false;

        const BimSearch cs(layout, sp.ptrs(), cached);
        const BimSearch os(layout, sp.ptrs(), oracle);
        const SearchResult a = cs.anneal();
        const SearchResult b = os.anneal();
        EXPECT_TRUE(a.bim == b.bim);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.identityCost, b.identityCost);
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
        EXPECT_EQ(a.stats.accepted, b.stats.accepted);
        EXPECT_EQ(a.memberCosts, b.memberCosts);
        EXPECT_EQ(a.memberTargetEntropy, b.memberTargetEntropy);
        EXPECT_GT(a.stats.planeToggles + a.stats.planeXors, 0u);
        EXPECT_GT(a.stats.planeRebuilds, 0u);
        EXPECT_EQ(b.stats.planeToggles, 0u);
        EXPECT_EQ(b.stats.planeXors, 0u);
        EXPECT_EQ(b.stats.planeRebuilds, 0u);
        EXPECT_GT(a.stats.memoHits, 0u);
        EXPECT_EQ(b.stats.memoHits, 0u);

        cached.maxEvaluations =
            a.stats.setupEvaluations + a.stats.annealEvaluations / 2;
        oracle.maxEvaluations = cached.maxEvaluations;
        const SearchResult ca =
            BimSearch(layout, sp.ptrs(), cached).anneal();
        const SearchResult cb =
            BimSearch(layout, sp.ptrs(), oracle).anneal();
        EXPECT_TRUE(ca.stats.capped);
        EXPECT_GT(ca.stats.annealEvaluations, 0u);
        EXPECT_EQ(ca.stats.polishEvaluations, 0u);
        EXPECT_TRUE(ca.bim == cb.bim);
        EXPECT_EQ(ca.cost, cb.cost);
        EXPECT_EQ(ca.stats.evaluations, cb.stats.evaluations);
        EXPECT_EQ(ca.stats.accepted, cb.stats.accepted);
        EXPECT_EQ(ca.memberCosts, cb.memberCosts);
        EXPECT_EQ(ca.memberTargetEntropy, cb.memberTargetEntropy);
    }
}

TEST(JointSearch, JointMatrixImprovesEveryMemberHere)
{
    // One matrix against a 3-member set: the joint objective must
    // strictly beat identity, and on these valley-shaped members no
    // one should be left behind (that is what the min term plus the
    // joint mean is for).
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU", "synth:stencil3d"});
    const SetPlanes sp(set);
    SearchOptions opts = smallOptions(layout);
    opts.iterations = 400;
    const BimSearch s(layout, sp.ptrs(), opts);
    const SearchResult r = s.anneal();
    EXPECT_TRUE(r.bim.invertible());
    EXPECT_LT(r.cost, r.identityCost);
    ASSERT_EQ(r.memberCosts.size(), 3u);
    ASSERT_EQ(r.memberTargetEntropy.size(), 3u);
    for (std::size_t m = 0; m < 3; ++m) {
        // Each member's searched mean target entropy beats its own
        // identity baseline.
        double searched = 0.0, identity = 0.0;
        for (std::size_t i = 0; i < opts.targets.size(); ++i)
            searched += r.memberTargetEntropy[m][i];
        for (unsigned t : opts.targets)
            identity += sp.planes[m].rowEntropy(
                std::uint64_t{1} << t, opts.window, opts.metric);
        EXPECT_GT(searched, identity) << "member " << m;
    }
}

TEST(JointSearch, SetOrderInvarianceOfResultAndCacheKey)
{
    const CacheOff off; // live searches; nothing persisted
    const AddressLayout layout = gddr5();
    const WorkloadSet fwd({"MT", "LU", "synth:strided"});
    const WorkloadSet rev({"synth:strided", "LU", "MT"});
    const SearchOptions opts = smallOptions(layout);

    EXPECT_EQ(sbimCacheKey(fwd, kScale, layout, opts),
              sbimCacheKey(rev, kScale, layout, opts));

    const SetSearchResult a = searchSet(fwd, layout, opts, kScale);
    const SetSearchResult b = searchSet(rev, layout, opts, kScale);
    EXPECT_TRUE(a.annealed.bim == b.annealed.bim);
    EXPECT_EQ(a.annealed.cost, b.annealed.cost);
    EXPECT_EQ(a.annealed.memberCosts, b.annealed.memberCosts);
    ASSERT_EQ(a.searchedProfiles.size(), b.searchedProfiles.size());
    for (std::size_t m = 0; m < a.searchedProfiles.size(); ++m)
        EXPECT_EQ(a.searchedProfiles[m].perBit,
                  b.searchedProfiles[m].perBit);
}

TEST(JointSearch, SizeOneSetIsNamedSbim)
{
    const CacheOff off;
    const AddressLayout layout = gddr5();
    const SearchOptions opts = smallOptions(layout);

    // Mapper naming: size-1 sets stay "SBIM", real sets are "GBIM".
    const WorkloadSet set({"MT"});
    EXPECT_EQ(jointMapperName(set), "SBIM");
    EXPECT_EQ(jointMapperName(WorkloadSet({"MT", "LU"})), "GBIM");
    const auto m1 = setMapper(layout, set, opts, kScale);
    EXPECT_EQ(m1->name(), "SBIM");
    EXPECT_TRUE(m1->matrix() ==
                searchSet(set, layout, opts, kScale).annealed.bim);
}

TEST(JointSearch, WeightedSizeOneEqualsUnweighted)
{
    // With one member, the weighted mean collapses to the member
    // cost no matter the weight, so the searched matrix must be
    // bit-identical to the unweighted search.
    const CacheOff off;
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT"});

    const SearchOptions plain = smallOptions(layout);
    SearchOptions weighted = plain;
    weighted.memberWeights = {2.5};

    const SetSearchResult a = searchSet(set, layout, plain, kScale);
    const SetSearchResult b = searchSet(set, layout, weighted, kScale);
    EXPECT_TRUE(a.annealed.bim == b.annealed.bim);
    EXPECT_EQ(a.annealed.cost, b.annealed.cost);
    EXPECT_EQ(a.annealed.targetEntropy, b.annealed.targetEntropy);
}

TEST(JointSearch, MismatchedWeightsAreRejected)
{
    const CacheOff off;
    const AddressLayout layout = gddr5();
    SearchOptions opts = smallOptions(layout);
    opts.memberWeights = {1.0, 2.0, 3.0};
    EXPECT_THROW(
        searchSet(WorkloadSet({"MT", "LU"}), layout, opts, kScale),
        std::invalid_argument);
    EXPECT_THROW(setMapper(layout, WorkloadSet({"MT", "LU"}), opts,
                           kScale),
                 std::invalid_argument);
}

TEST(JointSearch, WeightsShapeTheSbimCacheKey)
{
    // Weights change the searched matrix, so they must change the
    // cache key — and empty weights must key exactly like a build
    // that predates the field.
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU"});
    const SearchOptions plain = smallOptions(layout);
    SearchOptions weighted = plain;
    weighted.memberWeights = {1.0, 2.0};
    SearchOptions reweighted = plain;
    reweighted.memberWeights = {2.0, 1.0};

    const std::string k0 = sbimCacheKey(set, kScale, layout, plain);
    const std::string k1 = sbimCacheKey(set, kScale, layout, weighted);
    const std::string k2 =
        sbimCacheKey(set, kScale, layout, reweighted);
    EXPECT_NE(k0, k1);
    EXPECT_NE(k0, k2);
    EXPECT_NE(k1, k2);
}

TEST(JointSearch, MaxEvaluationsIsAHardDeterministicCap)
{
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU"});
    const SetPlanes sp(set);

    SearchOptions uncapped = smallOptions(layout);
    const BimSearch su(layout, sp.ptrs(), uncapped);
    const SearchResult ru = su.anneal();
    EXPECT_FALSE(ru.stats.capped);

    SearchOptions capped = uncapped;
    capped.maxEvaluations = 300;
    const BimSearch sc(layout, sp.ptrs(), capped);
    const SearchResult rc = sc.anneal();
    EXPECT_TRUE(rc.stats.capped);
    EXPECT_LT(rc.stats.evaluations, ru.stats.evaluations);
    // Hard cap: each chain stops at its budget share; a move
    // evaluates at most one candidate row per member past the check.
    EXPECT_LE(rc.stats.evaluations,
              capped.maxEvaluations + capped.restarts * set.size());
    EXPECT_TRUE(rc.bim.invertible());

    // The greedy baseline is one chain and gets the whole per-run
    // cap, not a 1/restarts share (its rejected-without-evaluation
    // moves mean it needs a tighter cap than the anneal to bind).
    SearchOptions gcap = uncapped;
    gcap.maxEvaluations = 100;
    const BimSearch sg(layout, sp.ptrs(), gcap);
    const SearchResult rg = sg.greedy();
    EXPECT_TRUE(rg.stats.capped);
    EXPECT_LE(rg.stats.evaluations,
              gcap.maxEvaluations + set.size());
    EXPECT_GT(rg.stats.evaluations,
              gcap.maxEvaluations / gcap.restarts + set.size());

    // Capped runs stay bit-identical at any thread count.
    SearchOptions capped_par = capped;
    capped_par.threads = 3;
    const BimSearch scp(layout, sp.ptrs(), capped_par);
    const SearchResult rcp = scp.anneal();
    EXPECT_TRUE(rc.bim == rcp.bim);
    EXPECT_EQ(rc.stats.evaluations, rcp.stats.evaluations);

    // The cap shapes the outcome, so it must shape the cache key.
    EXPECT_NE(sbimCacheKey(set, kScale, layout, capped),
              sbimCacheKey(set, kScale, layout, uncapped));
    // So does the combiner.
    SearchOptions worst = uncapped;
    worst.combiner = JointCombiner::WorstCase;
    EXPECT_NE(sbimCacheKey(set, kScale, layout, worst),
              sbimCacheKey(set, kScale, layout, uncapped));
}

TEST(JointSearch, WorstCaseCombinerLiftsTheWorstMember)
{
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU"});
    const SetPlanes sp(set);
    SearchOptions opts = smallOptions(layout);
    opts.combiner = JointCombiner::WorstCase;
    const BimSearch s(layout, sp.ptrs(), opts);
    const SearchResult r = s.anneal();
    // The joint cost IS the worst member cost under this combiner.
    ASSERT_EQ(r.memberCosts.size(), 2u);
    EXPECT_EQ(r.cost,
              std::max(r.memberCosts[0], r.memberCosts[1]));
    EXPECT_LT(r.cost, r.identityCost);
}

TEST(JointSearch, MemberWeightsFromOptionsWeightTheMean)
{
    // The search builds its objective from the options alone, member
    // weights included: the joint cost is their weighted mean of the
    // member costs it reports.
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU"});
    const SetPlanes sp(set);
    SearchOptions opts = smallOptions(layout);
    opts.memberWeights = {1.0, 3.0};
    const SearchResult r = BimSearch(layout, sp.ptrs(), opts).anneal();
    ASSERT_EQ(r.memberCosts.size(), 2u);
    EXPECT_NE(r.memberCosts[0], r.memberCosts[1]);
    EXPECT_EQ(r.cost, (r.memberCosts[0] + 3.0 * r.memberCosts[1]) / 4.0);
}

namespace {

/** Point every cache at a fresh per-test-run directory. */
class GbimGridTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_gbim_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        setenv("VALLEY_CACHE_DIR", dir.c_str(), 1);
        unsetenv("VALLEY_CACHE");
    }

    void
    TearDown() override
    {
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
    }

    std::filesystem::path dir;
};

} // namespace

TEST_F(GbimGridTest, GbimRunsEndToEndWithCacheHitsOnRepeat)
{
    harness::GridOptions o;
    o.workloads = {"synth:strided", "synth:stencil3d"};
    o.mappers = {mapping::kBase, mapping::kGbim};
    o.scale = 0.25;
    o.useCache = true;
    o.threads = 1;

    const harness::Grid first = harness::runGrid(o);
    for (const std::string &w : o.workloads) {
        EXPECT_GT(first.speedup(w, mapping::kGbim), 0.0) << w;
        EXPECT_GT(first.at(w, mapping::kGbim).seconds, 0.0) << w;
    }
    // The searched-BIM cache now holds the joint matrix; a repeat
    // grid must reproduce every cell exactly from the caches.
    const harness::Grid second = harness::runGrid(o);
    for (const std::string &w : o.workloads)
        for (const std::string &s : o.mappers)
            EXPECT_TRUE(first.at(w, s) == second.at(w, s))
                << w << " " << s;
}
