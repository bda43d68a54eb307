/**
 * @file
 * Tests for the profile-driven BIM search (`src/search/`): the
 * bit-plane evaluator's batched, incremental, parallel and SIMD paths
 * must be bit-identical to its from-scratch oracle (the planes
 * themselves are pinned to the scalar profiler in profiler_test),
 * every searched matrix must be invertible with identity non-target
 * rows, results must be deterministic for a fixed seed and
 * bit-identical between serial and parallel restarts, and the search
 * must strictly lower the entropy-flatness objective against the
 * identity mapping on valley workloads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "bim/bim_builder.hh"
#include "common/cancellation.hh"
#include "common/rng.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "workloads/trace_planes.hh"

using namespace valley;
using namespace valley::search;

namespace {

constexpr double kScale = 0.25;

AddressLayout
gddr5()
{
    return AddressLayout::hynixGddr5();
}

/** A suite workload and its serially extracted 30-bit planes. */
struct PlanesFixture
{
    std::unique_ptr<Workload> wl;
    std::unique_ptr<workloads::TracePlanes> planes;

    explicit PlanesFixture(const std::string &abbrev)
    {
        wl = workloads::make(abbrev, kScale);
        planes = std::make_unique<workloads::TracePlanes>(
            *wl, workloads::PlaneOptions{30, 1});
    }
};

} // namespace

TEST(TracePlanes, ParallelExtractionBitIdenticalToSerial)
{
    const auto wl = workloads::make("LU", kScale);
    const workloads::TracePlanes a(*wl, workloads::PlaneOptions{30, 1});
    const workloads::TracePlanes b(*wl, workloads::PlaneOptions{30, 3});
    const BitMatrix id = BitMatrix::identity(30);
    const EntropyProfile pa = a.profileFor(id, 12,
                                           EntropyMetric::BitProbability);
    const EntropyProfile pb = b.profileFor(id, 12,
                                           EntropyMetric::BitProbability);
    for (std::size_t bit = 0; bit < pa.perBit.size(); ++bit)
        EXPECT_EQ(pa.perBit[bit], pb.perBit[bit]);
}

TEST(TracePlanes, RowEntropyBatchMatchesRowEntropy)
{
    PlanesFixture s("MT");
    XorShiftRng rng(17);
    std::vector<std::uint64_t> masks;
    for (int i = 0; i < 40; ++i)
        masks.push_back(rng.next() & bits::mask(30));
    masks.push_back(0); // degenerate all-zero row
    for (const EntropyMetric metric :
         {EntropyMetric::BitProbability,
          EntropyMetric::BvrDistribution}) {
        const std::vector<double> batched =
            s.planes->rowEntropyBatch(masks, 12, metric);
        ASSERT_EQ(batched.size(), masks.size());
        for (std::size_t i = 0; i < masks.size(); ++i)
            EXPECT_EQ(batched[i],
                      s.planes->rowEntropy(masks[i], 12, metric))
                << "mask " << i;
    }
}

TEST(TracePlanes, IncrementalMovesMatchOracle)
{
    // Walk a row through the search's move kinds on cached planes:
    // every intermediate entropyFromOnes value must equal the
    // from-scratch rowEntropy of the mask the cache represents.
    PlanesFixture s("MT");
    const workloads::TracePlanes &p = *s.planes;
    XorShiftRng rng(23);
    std::vector<std::uint64_t> plane(p.planeWords());
    std::vector<std::uint64_t> other(p.planeWords());
    std::vector<std::uint64_t> ones(p.tbCount());
    std::vector<std::uint64_t> ones2(p.tbCount());

    std::uint64_t mask = rng.next() & bits::mask(30);
    p.combineRow(mask, plane.data(), ones.data());
    EXPECT_EQ(p.entropyFromOnes(ones.data(), 12,
                                EntropyMetric::BitProbability),
              p.rowEntropy(mask, 12, EntropyMetric::BitProbability));

    // Tap toggles, including toggling the same bit back.
    for (const unsigned bit : {3u, 17u, 29u, 17u, 0u}) {
        p.toggleRow(plane.data(), bit, plane.data(), ones.data());
        mask ^= std::uint64_t{1} << bit;
        EXPECT_EQ(
            p.entropyFromOnes(ones.data(), 12,
                              EntropyMetric::BitProbability),
            p.rowEntropy(mask, 12, EntropyMetric::BitProbability))
            << "bit " << bit;
        // The cached plane must be exactly what combineRow builds.
        std::vector<std::uint64_t> fresh(p.planeWords());
        p.combineRow(mask, fresh.data(), ones2.data());
        EXPECT_EQ(plane, fresh) << "bit " << bit;
        EXPECT_EQ(ones, ones2) << "bit " << bit;
    }

    // Row XOR against an independently combined row.
    const std::uint64_t omask = rng.next() & bits::mask(30);
    p.combineRow(omask, other.data(), ones2.data());
    p.xorRows(plane.data(), other.data(), plane.data(), ones.data());
    mask ^= omask;
    EXPECT_EQ(p.entropyFromOnes(ones.data(), 12,
                                EntropyMetric::BitProbability),
              p.rowEntropy(mask, 12, EntropyMetric::BitProbability));
}

TEST(TracePlanes, ForceScalarBitIdenticalToDispatched)
{
    const auto wl = workloads::make("LU", kScale);
    const workloads::TracePlanes a(*wl,
                                   workloads::PlaneOptions{30, 1, false});
    const workloads::TracePlanes b(*wl,
                                   workloads::PlaneOptions{30, 1, true});
    const BitMatrix id = BitMatrix::identity(30);
    for (const EntropyMetric metric :
         {EntropyMetric::BitProbability,
          EntropyMetric::BvrDistribution}) {
        const EntropyProfile pa = a.profileFor(id, 12, metric);
        const EntropyProfile pb = b.profileFor(id, 12, metric);
        for (std::size_t bit = 0; bit < pa.perBit.size(); ++bit)
            EXPECT_EQ(pa.perBit[bit], pb.perBit[bit])
                << "bit " << bit;
    }
}

TEST(FlatnessObjective, RewardsFlatHighEntropy)
{
    FlatnessObjective obj;
    const std::vector<double> valley = {0.1, 0.1, 0.9, 0.9, 0.9, 0.9};
    const std::vector<double> flat = {0.95, 0.95, 0.95,
                                      0.95, 0.95, 0.95};
    EXPECT_LT(obj.cost(flat, 6), obj.cost(valley, 6));
    // Gate regularizer breaks entropy ties toward cheaper hardware.
    EXPECT_LT(obj.cost(flat, 3), obj.cost(flat, 12));
    // Identity (entropy-free targets, no gates) is the worst case.
    const std::vector<double> dead(6, 0.0);
    EXPECT_NEAR(obj.cost(dead, 0),
                obj.meanWeight + obj.minWeight, 1e-12);
}

TEST(BimSearch, SearchedMatrixInvertibleWithIdentityNonTargetRows)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);
    const SearchResult r = searcher.anneal();

    EXPECT_TRUE(r.bim.invertible());
    // The search must only rewrite the channel/bank target rows —
    // everything else stays identity (the invariant documented in
    // bim_search.hh).
    std::vector<bool> is_target(layout.addrBits, false);
    for (unsigned t : searcher.targets())
        is_target[t] = true;
    for (unsigned row = 0; row < layout.addrBits; ++row)
        if (!is_target[row])
            EXPECT_TRUE(r.bim.rowIsIdentity(row)) << "row " << row;
    // Target rows only tap candidate (page-mask) bits.
    for (unsigned t : searcher.targets())
        EXPECT_EQ(r.bim.row(t) & ~searcher.candidateMask(), 0u);
}

TEST(BimSearch, DeterministicForFixedSeed)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);
    const SearchResult a = searcher.anneal();
    const SearchResult b = searcher.anneal();
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);

    SearchOptions other = opts;
    other.seed = 7;
    const BimSearch searcher7(layout, *s.planes,
                              defaultObjective(layout), other);
    const SearchResult c = searcher7.anneal();
    // Different seeds explore different chains (costs may tie, the
    // accept/reject trajectory must not).
    EXPECT_NE(a.stats.accepted, c.stats.accepted);
}

TEST(BimSearch, ParallelRestartsBitIdenticalToSerial)
{
    PlanesFixture s("LU");
    const AddressLayout layout = gddr5();
    SearchOptions serial = defaultOptions(layout);
    serial.restarts = 4;
    serial.iterations = 200;
    serial.threads = 1;
    SearchOptions parallel = serial;
    parallel.threads = 3;
    const BimSearch ss(layout, *s.planes, defaultObjective(layout),
                       serial);
    const BimSearch sp(layout, *s.planes, defaultObjective(layout),
                       parallel);
    const SearchResult a = ss.anneal();
    const SearchResult b = sp.anneal();
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.identityCost, b.identityCost);
    EXPECT_EQ(a.bestRestart, b.bestRestart);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
}

TEST(BimSearch, PhaseEvaluationCountsSumToTotal)
{
    // SearchStats breaks the evaluation budget down per phase; the
    // three phase counts must partition the global count exactly, and
    // each phase that runs must have done real work.
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);

    const SearchResult annealed = searcher.anneal();
    EXPECT_EQ(annealed.stats.setupEvaluations +
                  annealed.stats.annealEvaluations +
                  annealed.stats.polishEvaluations,
              annealed.stats.evaluations);
    EXPECT_GT(annealed.stats.setupEvaluations, 0u);
    EXPECT_GT(annealed.stats.annealEvaluations, 0u);

    const SearchResult greedy = searcher.greedy();
    EXPECT_EQ(greedy.stats.setupEvaluations +
                  greedy.stats.annealEvaluations +
                  greedy.stats.polishEvaluations,
              greedy.stats.evaluations);
}

TEST(BimSearch, StrictlyBeatsIdentityOnValleyWorkloads)
{
    // The acceptance criterion: on entropy-valley workloads both the
    // annealed search and the greedy baseline must strictly lower the
    // flatness objective vs the identity (BASE) mapping.
    const AddressLayout layout = gddr5();
    for (const char *abbrev : {"MT", "LU"}) {
        PlanesFixture s(abbrev);
        SearchOptions opts = defaultOptions(layout);
        opts.threads = 1;
        opts.restarts = 2;
        opts.iterations = 400;
        const BimSearch searcher(layout, *s.planes,
                                 defaultObjective(layout), opts);
        const SearchResult annealed = searcher.anneal();
        const SearchResult greedy = searcher.greedy();
        EXPECT_LT(annealed.cost, annealed.identityCost) << abbrev;
        EXPECT_LT(greedy.cost, greedy.identityCost) << abbrev;
        EXPECT_GT(annealed.gain(), 0.0) << abbrev;
    }
}

TEST(BimSearch, RejectsTargetsOutsideCandidateMask)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.candidateMask = 1ull << 20; // excludes the channel bits
    EXPECT_THROW(BimSearch(layout, *s.planes,
                           defaultObjective(layout), opts),
                 std::invalid_argument);
}

TEST(SearchedMapper, WrapsInvertibleBimNamedSbim)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    // VALLEY_CACHE=0: this test must exercise the live search (and
    // never write a cache entry into the developer's cache dir).
    setenv("VALLEY_CACHE", "0", 1);
    const auto mapper = search::setMapper(
        layout, workloads::WorkloadSet({"MT"}), opts, kScale);
    unsetenv("VALLEY_CACHE");
    EXPECT_EQ(mapper->name(), "SBIM");
    EXPECT_TRUE(mapper->matrix().invertible());
    // One-to-one over a sample of addresses via the inverse matrix.
    const auto inv = mapper->matrix().inverse();
    ASSERT_TRUE(inv.has_value());
    XorShiftRng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & ((1ull << 30) - 1);
        EXPECT_EQ(inv->apply(mapper->map(a)), a);
    }
}

TEST(BimSearch, CancelledSearchDegradesToScoredInvertibleIncumbent)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;

    // Fire before the first move: the harshest deadline possible.
    // The degradation contract says the search must still return a
    // fully scored, invertible incumbent — never throw, never hand
    // back garbage — and flag the truncation.
    CancelToken token;
    token.cancel();
    opts.cancel = &token;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);
    const SearchResult r = searcher.anneal();

    EXPECT_TRUE(r.stats.deadlineHit);
    EXPECT_FALSE(r.stats.capped); // budget was not the stopper
    EXPECT_TRUE(r.bim.invertible());
    EXPECT_TRUE(std::isfinite(r.cost));
    // The incumbent still honors the structural invariants.
    std::vector<bool> is_target(layout.addrBits, false);
    for (unsigned t : searcher.targets())
        is_target[t] = true;
    for (unsigned row = 0; row < layout.addrBits; ++row)
        if (!is_target[row])
            EXPECT_TRUE(r.bim.rowIsIdentity(row)) << "row " << row;
}

TEST(BimSearch, PlaneCacheOffBitIdenticalToOn)
{
    // The incremental row cache is a pure speedup: with it disabled
    // every proposal is scored from scratch through the oracle, and
    // the whole trajectory — matrix, cost, evaluation and acceptance
    // counts — must not move, under either entropy metric.
    const AddressLayout layout = gddr5();
    for (const EntropyMetric metric :
         {EntropyMetric::BitProbability,
          EntropyMetric::BvrDistribution}) {
        PlanesFixture s("MT");
        SearchOptions cached = defaultOptions(layout);
        cached.threads = 1;
        cached.restarts = 2;
        cached.iterations = 300;
        cached.metric = metric;
        SearchOptions oracle = cached;
        oracle.planeCache = false;
        const BimSearch sc(layout, *s.planes,
                           defaultObjective(layout), cached);
        const BimSearch so(layout, *s.planes,
                           defaultObjective(layout), oracle);

        const SearchResult a = sc.anneal();
        const SearchResult b = so.anneal();
        EXPECT_TRUE(a.bim == b.bim);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.identityCost, b.identityCost);
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
        EXPECT_EQ(a.stats.accepted, b.stats.accepted);
        // The cached run works through plane moves; the oracle run
        // must not touch the incremental machinery at all.
        EXPECT_GT(a.stats.planeToggles + a.stats.planeXors, 0u);
        EXPECT_GT(a.stats.planeRebuilds, 0u);
        EXPECT_EQ(b.stats.planeToggles, 0u);
        EXPECT_EQ(b.stats.planeXors, 0u);
        EXPECT_EQ(b.stats.planeRebuilds, 0u);

        const SearchResult ga = sc.greedy();
        const SearchResult gb = so.greedy();
        EXPECT_TRUE(ga.bim == gb.bim);
        EXPECT_EQ(ga.cost, gb.cost);
        EXPECT_EQ(ga.stats.evaluations, gb.stats.evaluations);
    }
}

TEST(BimSearch, UnfiredTokenLeavesTheSearchBitIdentical)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch plain(layout, *s.planes,
                          defaultObjective(layout), opts);
    const SearchResult a = plain.anneal();

    CancelToken token; // present but never fired
    SearchOptions watched = opts;
    watched.cancel = &token;
    const BimSearch observed(layout, *s.planes,
                             defaultObjective(layout), watched);
    const SearchResult b = observed.anneal();

    EXPECT_FALSE(b.stats.deadlineHit);
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}
