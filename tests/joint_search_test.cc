/**
 * @file
 * Tests for the joint ("global") BIM search over workload sets:
 * bit-identical serial/parallel restarts on a multi-member set,
 * set-order invariance of both the search result and the set id GBIM
 * cells key the result cache on, member profiles equal to the
 * profiler's, size-1 sets named SBIM, the joint cost as the plain
 * mean of the member costs, and `map:gbim` end-to-end through
 * `harness::runGrid`, whose repeat run reads every cell from the
 * result cache and searches nothing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "common/metrics.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "search/searched_bim.hh"
#include "workloads/profiler.hh"
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

} // namespace

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
    // does). The second set adds LU, whose zero strips make most
    // proposals reuse cached kernel entropies.
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
            identity += sp.planes[m].rowEntropy(std::uint64_t{1} << t,
                                                opts.window);
        EXPECT_GT(searched, identity) << "member " << m;
    }
}

TEST(JointSearch, SetOrderInvarianceOfResultAndCacheKey)
{
    const AddressLayout layout = gddr5();
    const WorkloadSet fwd({"MT", "LU", "synth:strided"});
    const WorkloadSet rev({"synth:strided", "LU", "MT"});
    const SearchOptions opts = smallOptions(layout);

    // GBIM cells key the result cache on the set's short id.
    EXPECT_EQ(fwd.shortId(), rev.shortId());

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

TEST(JointSearch, SetProfilesEqualTheProfilersBitForBit)
{
    // searchSet profiles each member from the planes it extracted for
    // the search; both profiles must be exactly the profiler's own.
    const AddressLayout layout = gddr5();
    const WorkloadSet set({"MT", "LU"});
    const SearchOptions opts = smallOptions(layout);
    const SetSearchResult r = searchSet(set, layout, opts, kScale);
    // Under the identity the second comparison would repeat the first.
    ASSERT_FALSE(r.annealed.bim == BitMatrix::identity(layout.addrBits));
    const AddressMapper searched("SBIM", layout, r.annealed.bim);

    const auto wls = set.build(kScale);
    ASSERT_EQ(r.identityProfiles.size(), wls.size());
    ASSERT_EQ(r.searchedProfiles.size(), wls.size());
    for (std::size_t m = 0; m < wls.size(); ++m) {
        const std::string &member = set.members()[m];
        workloads::ProfileOptions po;
        po.window = opts.window;
        po.numBits = layout.addrBits;
        po.threads = 1;
        const EntropyProfile identity =
            workloads::profileWorkload(*wls[m], po);
        EXPECT_EQ(r.identityProfiles[m].weight, identity.weight) << member;
        EXPECT_EQ(r.identityProfiles[m].perBit, identity.perBit) << member;
        po.mapper = &searched;
        const EntropyProfile mapped = workloads::profileWorkload(*wls[m], po);
        EXPECT_EQ(r.searchedProfiles[m].weight, mapped.weight) << member;
        EXPECT_EQ(r.searchedProfiles[m].perBit, mapped.perBit) << member;
    }
}

TEST(JointSearch, SizeOneSetIsNamedSbim)
{
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

TEST(JointSearch, JointCostIsThePlainMeanOfItsMemberCosts)
{
    // The joint objective sums the member costs in member order and
    // divides by the count: exactly, so a one-member set's cost is
    // its member's cost and the single-workload search needs no path
    // of its own.
    const AddressLayout layout = gddr5();
    const SearchOptions opts = smallOptions(layout);

    const SetPlanes pair(WorkloadSet({"MT", "LU"}));
    const SearchResult r = BimSearch(layout, pair.ptrs(), opts).anneal();
    ASSERT_EQ(r.memberCosts.size(), 2u);
    EXPECT_NE(r.memberCosts[0], r.memberCosts[1]);
    EXPECT_EQ(r.cost, (r.memberCosts[0] + r.memberCosts[1]) / 2.0);

    const SetPlanes one(WorkloadSet({"MT"}));
    const SearchResult s = BimSearch(layout, one.ptrs(), opts).anneal();
    ASSERT_EQ(s.memberCosts.size(), 1u);
    EXPECT_EQ(s.cost, s.memberCosts[0]);
}

namespace {

/** Point the result cache at a fresh per-test-run directory. */
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
        harness::resultCache().resetForTesting();
    }

    void
    TearDown() override
    {
        harness::resultCache().resetForTesting();
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

    metrics::Counter &hits = metrics::counter("cache.result.hits");
    metrics::Counter &evals = metrics::counter("search.evaluations");
    const std::uint64_t cold_evals = evals.value();
    const harness::Grid first = harness::runGrid(o);
    EXPECT_GT(evals.value(), cold_evals); // the cold grid searched
    for (const std::string &w : o.workloads) {
        EXPECT_GT(first.speedup(w, mapping::kGbim), 0.0) << w;
        EXPECT_GT(first.at(w, mapping::kGbim).seconds, 0.0) << w;
    }
    // A repeat grid reads all four cells from the result cache, so
    // it never builds the shared joint matrix: no search runs.
    const std::uint64_t warm_hits = hits.value();
    const std::uint64_t warm_evals = evals.value();
    const harness::Grid second = harness::runGrid(o);
    EXPECT_EQ(hits.value() - warm_hits, 4u);
    EXPECT_EQ(evals.value(), warm_evals);
    for (const std::string &w : o.workloads)
        for (const std::string &s : o.mappers)
            EXPECT_TRUE(first.at(w, s) == second.at(w, s))
                << w << " " << s;
}
