/**
 * @file
 * Tests for the profile-driven BIM search (`src/search/`): the
 * bit-plane evaluator's incremental, parallel and SIMD paths
 * must be bit-identical to its from-scratch oracle (the planes
 * themselves are pinned to the scalar profiler in profiler_test),
 * every searched matrix must be invertible with identity non-target
 * rows, results must be deterministic for a fixed seed and
 * bit-identical between serial and parallel restarts, and the search
 * must strictly lower the entropy-flatness objective against the
 * identity mapping on valley workloads. Plane extraction stops on a
 * fired cancellation token and is unchanged by an unfired one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "bim/bim_builder.hh"
#include "common/cancellation.hh"
#include "common/metrics.hh"
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

namespace {

using Row = workloads::TracePlanes::Row;
using Proposal = workloads::TracePlanes::Proposal;

/**
 * `row` must be exactly what seeding `mask` from scratch builds: the
 * plane and one-counts `combineRow` makes, and `rowEntropy`.
 */
void
expectRowIs(const workloads::TracePlanes &p, const Row &row,
            std::uint64_t mask, EntropyMetric metric,
            const std::string &what)
{
    std::vector<std::uint64_t> plane(p.planeWords());
    std::vector<std::uint64_t> ones(p.tbCount());
    p.combineRow(mask, plane.data(), ones.data());
    EXPECT_TRUE(std::ranges::equal(row.plane(), plane)) << what;
    EXPECT_TRUE(std::ranges::equal(row.ones(), ones)) << what;
    EXPECT_EQ(row.entropy(), p.rowEntropy(mask, 12, metric)) << what;
}

/**
 * How many kernels hold a non-zero strip for input bit `bit`: the
 * kernels a toggle of `bit` on the all-zero row rescores.
 */
std::size_t
kernelsTapping(const workloads::TracePlanes &p, unsigned bit)
{
    Row zero(p);
    Proposal prop(p);
    p.seedRow(0, 12, EntropyMetric::BitProbability, zero);
    p.proposeToggle(zero, bit, prop);
    return prop.kernelsRescored();
}

} // namespace

TEST(TracePlanes, IncrementalMovesMatchOracle)
{
    // Walk rows through the search's move kinds — propose, then
    // commit — on MT and on LU (254 kernels at this scale, most with
    // some all-zero strips), under both metrics. Every proposal's
    // entropy must equal the from-scratch rowEntropy of the mask it
    // stands for, and after each commit the row must be exactly what
    // seeding that mask builds.
    for (const char *abbrev : {"MT", "LU"}) {
        PlanesFixture s(abbrev);
        const workloads::TracePlanes &p = *s.planes;
        const std::size_t nk = p.numKernels();

        // Bits by how many kernels their strip touches: one in none
        // (coalesced line addresses have clear offset bits), one in
        // every kernel, and, where the workload has one, one in some
        // but not all.
        std::optional<unsigned> none, every, some;
        for (unsigned b = 0; b < 30; ++b) {
            const std::size_t n = kernelsTapping(p, b);
            if (n == 0 && !none)
                none = b;
            else if (n == nk && !every)
                every = b;
            else if (n != 0 && n != nk && !some)
                some = b;
        }
        ASSERT_TRUE(none && every) << abbrev;
        if (std::string(abbrev) == "LU")
            ASSERT_TRUE(some) << "LU has kernels with zero strips";
        const unsigned zb = some.value_or(*every);
        const std::uint64_t zbit = std::uint64_t{1} << zb;

        for (const EntropyMetric metric :
             {EntropyMetric::BitProbability,
              EntropyMetric::BvrDistribution}) {
            const std::string tag =
                std::string(abbrev) + " metric " +
                std::to_string(static_cast<int>(metric));
            XorShiftRng rng(23);
            Row row(p);
            Proposal prop(p);
            std::uint64_t mask = rng.next() & bits::mask(30);
            p.seedRow(mask, 12, metric, row);
            expectRowIs(p, row, mask, metric, tag + " seed");

            // Tap toggles, including toggling bits back and a bit
            // whose strip is zero in some kernels.
            for (const unsigned bit :
                 {3u, 17u, zb, 29u, 17u, *none, zb, 0u}) {
                const std::uint64_t next = mask ^ (std::uint64_t{1} << bit);
                const double e = p.proposeToggle(row, bit, prop);
                EXPECT_EQ(e, p.rowEntropy(next, 12, metric))
                    << tag << " toggle " << bit;
                EXPECT_EQ(prop.kernelsRescored(), kernelsTapping(p, bit))
                    << tag << " toggle " << bit;
                p.commit(prop, row);
                mask = next;
                expectRowIs(p, row, mask, metric,
                            tag + " after toggle " + std::to_string(bit));
            }

            // A toggle on a strip that is zero everywhere changes
            // nothing and rescores nothing.
            EXPECT_EQ(p.proposeToggle(row, *none, prop), row.entropy());
            EXPECT_EQ(prop.kernelsRescored(), 0u) << tag;

            // An uncommitted proposal leaves the row as it was.
            p.proposeToggle(row, *every, prop);
            expectRowIs(p, row, mask, metric, tag + " uncommitted");

            // Row XOR against a row that is zero in some kernels,
            // then a row that is zero there XORed with one that is
            // not: the skip follows the other row's zeros, never the
            // base row's.
            Row sparse(p);
            p.seedRow(zbit, 12, metric, sparse);
            EXPECT_EQ(p.proposeXor(row, sparse, prop),
                      p.rowEntropy(mask ^ zbit, 12, metric))
                << tag;
            EXPECT_EQ(prop.kernelsRescored(), kernelsTapping(p, zb))
                << tag;
            p.commit(prop, row);
            mask ^= zbit;
            expectRowIs(p, row, mask, metric, tag + " after xor");

            const std::uint64_t dense_mask = std::uint64_t{1} << *every;
            Row dense(p);
            p.seedRow(dense_mask, 12, metric, dense);
            EXPECT_EQ(p.proposeXor(sparse, dense, prop),
                      p.rowEntropy(zbit ^ dense_mask, 12, metric))
                << tag;
            EXPECT_EQ(prop.kernelsRescored(), nk) << tag;
            p.commit(prop, sparse);
            expectRowIs(p, sparse, zbit ^ dense_mask, metric,
                        tag + " after xor into the sparse row");

            // A random run of XORs with independently seeded rows.
            for (int k = 0; k < 4; ++k) {
                const std::uint64_t omask = rng.next() & bits::mask(30);
                Row other(p);
                p.seedRow(omask, 12, metric, other);
                EXPECT_EQ(p.proposeXor(row, other, prop),
                          p.rowEntropy(mask ^ omask, 12, metric))
                    << tag << " xor " << k;
                p.commit(prop, row);
                mask ^= omask;
            }
            expectRowIs(p, row, mask, metric, tag + " after xor run");
        }
    }
}

TEST(TracePlanes, BitValueRatioMatchesDivision)
{
    // Small TBs read their BVR from a table, larger ones divide; both
    // must give the quotient a division gives, bit for bit, on each
    // side of the table's edge.
    for (std::uint64_t requests = 1; requests <= 130; ++requests)
        for (std::uint64_t ones = 0; ones <= requests; ++ones)
            ASSERT_EQ(workloads::bitValueRatio(ones, requests),
                      static_cast<double>(ones) /
                          static_cast<double>(requests))
                << ones << " / " << requests;
    EXPECT_EQ(workloads::bitValueRatio(0, 0), 0.0);
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

TEST(TracePlanes, FiredTokenStopsExtraction)
{
    // Half-extracted planes have no partial answer: a fired token
    // makes the constructor throw, serial or threaded, and leaves
    // the resident-bytes gauge where it was.
    const auto wl = workloads::make("LU", kScale);
    CancelToken token;
    token.cancel();
    metrics::Gauge &bytes = metrics::gauge("search.plane_bytes");
    const std::int64_t before = bytes.value();
    for (const unsigned threads : {1u, 3u}) {
        workloads::PlaneOptions po{30, threads};
        po.cancel = &token;
        EXPECT_THROW(workloads::TracePlanes(*wl, po), Cancelled)
            << threads << " threads";
    }
    EXPECT_EQ(bytes.value(), before);
}

TEST(TracePlanes, UnfiredTokenLeavesPlanesBitIdentical)
{
    const auto wl = workloads::make("LU", kScale);
    const workloads::TracePlanes plain(*wl,
                                       workloads::PlaneOptions{30, 1});
    const CancelToken token; // present but never fired
    const BitMatrix id = BitMatrix::identity(30);
    for (const unsigned threads : {1u, 3u}) {
        workloads::PlaneOptions po{30, threads};
        po.cancel = &token;
        const workloads::TracePlanes polled(*wl, po);
        for (const EntropyMetric metric :
             {EntropyMetric::BitProbability,
              EntropyMetric::BvrDistribution}) {
            const EntropyProfile a = plain.profileFor(id, 12, metric);
            const EntropyProfile b = polled.profileFor(id, 12, metric);
            EXPECT_EQ(a.weight, b.weight);
            EXPECT_EQ(a.perBit, b.perBit) << threads << " threads";
        }
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
                kMeanWeight + kMinWeight, 1e-12);
}

TEST(BimSearch, SearchedMatrixInvertibleWithIdentityNonTargetRows)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, {s.planes.get()}, opts);
    const SearchResult r = searcher.anneal();

    EXPECT_TRUE(r.bim.invertible());
    // The search must only rewrite the channel/bank target rows —
    // everything else stays identity (the invariant documented in
    // bim_search.hh).
    std::vector<bool> is_target(layout.addrBits, false);
    for (unsigned t : opts.targets)
        is_target[t] = true;
    for (unsigned row = 0; row < layout.addrBits; ++row)
        if (!is_target[row])
            EXPECT_TRUE(r.bim.rowIsIdentity(row)) << "row " << row;
    // Target rows only tap candidate (page-mask) bits.
    for (unsigned t : opts.targets)
        EXPECT_EQ(r.bim.row(t) & ~opts.candidateMask, 0u);
}

TEST(BimSearch, DeterministicForFixedSeed)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, {s.planes.get()}, opts);
    const SearchResult a = searcher.anneal();
    const SearchResult b = searcher.anneal();
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);

    SearchOptions other = opts;
    other.seed = 7;
    const BimSearch searcher7(layout, {s.planes.get()}, other);
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
    const BimSearch ss(layout, {s.planes.get()}, serial);
    const BimSearch sp(layout, {s.planes.get()}, parallel);
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
    const BimSearch searcher(layout, {s.planes.get()}, opts);

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
        const BimSearch searcher(layout, {s.planes.get()}, opts);
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
    EXPECT_THROW(BimSearch(layout, {s.planes.get()}, opts),
                 std::invalid_argument);
    // Options that never went through defaultOptions are rejected,
    // not filled in from the layout.
    EXPECT_THROW(BimSearch(layout, {s.planes.get()}, SearchOptions{}),
                 std::invalid_argument);
}

TEST(BimSearch, RejectsZeroRestartsOnEveryEntry)
{
    // A search runs at least one chain; a 0 that silently ran as 1
    // would report options the search did not run with.
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.restarts = 0;
    EXPECT_THROW(BimSearch(layout, {s.planes.get()}, opts),
                 std::invalid_argument);
    const workloads::WorkloadSet set({"MT"});
    EXPECT_THROW(search::searchSet(set, layout, opts, kScale),
                 std::invalid_argument);
    EXPECT_THROW(search::setMapper(layout, set, opts, kScale),
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
    const auto mapper = search::setMapper(
        layout, workloads::WorkloadSet({"MT"}), opts, kScale);
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
    const BimSearch searcher(layout, {s.planes.get()}, opts);
    const SearchResult r = searcher.anneal();

    EXPECT_TRUE(r.stats.deadlineHit);
    EXPECT_FALSE(r.stats.capped); // budget was not the stopper
    EXPECT_TRUE(r.bim.invertible());
    EXPECT_TRUE(std::isfinite(r.cost));
    // The incumbent still honors the structural invariants.
    std::vector<bool> is_target(layout.addrBits, false);
    for (unsigned t : opts.targets)
        is_target[t] = true;
    for (unsigned row = 0; row < layout.addrBits; ++row)
        if (!is_target[row])
            EXPECT_TRUE(r.bim.rowIsIdentity(row)) << "row " << row;
}

TEST(BimSearch, PlaneCacheOffBitIdenticalToOn)
{
    // The incremental row cache and the chain's mask memo are a pure
    // speedup: with the cache disabled every proposal is scored from
    // scratch through the oracle, and the whole trajectory — matrix,
    // cost, evaluation and acceptance counts — must not move, under
    // either entropy metric, on MT and on LU, whose zero strips make
    // most proposals reuse kernels. The same holds for a run whose
    // evaluation cap stops each chain halfway through its anneal.
    const AddressLayout layout = gddr5();
    for (const char *abbrev : {"MT", "LU"}) {
        PlanesFixture s(abbrev);
        for (const EntropyMetric metric :
             {EntropyMetric::BitProbability,
              EntropyMetric::BvrDistribution}) {
            SCOPED_TRACE(std::string(abbrev) + " metric " +
                         std::to_string(static_cast<int>(metric)));
            SearchOptions cached = defaultOptions(layout);
            cached.threads = 1;
            cached.restarts = 2;
            cached.iterations = 300;
            cached.metric = metric;
            SearchOptions oracle = cached;
            oracle.planeCache = false;
            const BimSearch sc(layout, {s.planes.get()}, cached);
            const BimSearch so(layout, {s.planes.get()}, oracle);

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
            // Chains revisit masks, and only the cached run memoizes.
            EXPECT_GT(a.stats.memoHits, 0u);
            EXPECT_EQ(b.stats.memoHits, 0u);

            const SearchResult ga = sc.greedy();
            const SearchResult gb = so.greedy();
            EXPECT_TRUE(ga.bim == gb.bim);
            EXPECT_EQ(ga.cost, gb.cost);
            EXPECT_EQ(ga.stats.evaluations, gb.stats.evaluations);
            EXPECT_GT(ga.stats.memoHits, 0u);
            EXPECT_EQ(gb.stats.memoHits, 0u);

            // Each chain's share of this cap runs out mid-anneal.
            cached.maxEvaluations = a.stats.setupEvaluations +
                                    a.stats.annealEvaluations / 2;
            oracle.maxEvaluations = cached.maxEvaluations;
            const SearchResult ca =
                BimSearch(layout, {s.planes.get()}, cached)
                    .anneal();
            const SearchResult cb =
                BimSearch(layout, {s.planes.get()}, oracle)
                    .anneal();
            EXPECT_TRUE(ca.stats.capped);
            EXPECT_GT(ca.stats.annealEvaluations, 0u);
            EXPECT_EQ(ca.stats.polishEvaluations, 0u);
            EXPECT_TRUE(ca.bim == cb.bim);
            EXPECT_EQ(ca.cost, cb.cost);
            EXPECT_EQ(ca.stats.evaluations, cb.stats.evaluations);
            EXPECT_EQ(ca.stats.accepted, cb.stats.accepted);
            EXPECT_EQ(ca.targetEntropy, cb.targetEntropy);
        }
    }
}

TEST(BimSearch, KernelCountsSplitEveryProposal)
{
    // Each kernel of each toggle or XOR proposal is either rescored
    // or reused, never both; on LU most strips are zero in some
    // kernels, so reuse must happen. A proposal the mask memo answers
    // touches no kernel, unless it is accepted: then it is derived
    // once more, as a toggle or an XOR, to be committed. The oracle
    // path counts none of these.
    PlanesFixture s("LU");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 200;
    const std::uint64_t rescored_before =
        metrics::counter("search.kernels_rescored").value();
    const std::uint64_t reused_before =
        metrics::counter("search.kernels_reused").value();
    const std::uint64_t memo_before =
        metrics::counter("search.memo_hits").value();
    const SearchResult a =
        BimSearch(layout, {s.planes.get()}, opts)
            .anneal();
    EXPECT_EQ(a.stats.kernelsRescored + a.stats.kernelsReused,
              (a.stats.planeToggles + a.stats.planeXors) *
                  s.planes->numKernels());
    EXPECT_GT(a.stats.kernelsReused, 0u);
    EXPECT_GT(a.stats.kernelsRescored, 0u);
    EXPECT_EQ(metrics::counter("search.kernels_rescored").value() -
                  rescored_before,
              a.stats.kernelsRescored);
    EXPECT_EQ(metrics::counter("search.kernels_reused").value() -
                  reused_before,
              a.stats.kernelsReused);
    EXPECT_GT(a.stats.memoHits, 0u);
    EXPECT_EQ(metrics::counter("search.memo_hits").value() - memo_before,
              a.stats.memoHits);

    opts.planeCache = false;
    const SearchResult b =
        BimSearch(layout, {s.planes.get()}, opts)
            .anneal();
    EXPECT_EQ(b.stats.kernelsRescored, 0u);
    EXPECT_EQ(b.stats.kernelsReused, 0u);
    EXPECT_EQ(b.stats.memoHits, 0u);
}

TEST(BimSearch, UnfiredTokenLeavesTheSearchBitIdentical)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch plain(layout, {s.planes.get()}, opts);
    const SearchResult a = plain.anneal();

    CancelToken token; // present but never fired
    SearchOptions watched = opts;
    watched.cancel = &token;
    const BimSearch observed(layout, {s.planes.get()}, watched);
    const SearchResult b = observed.anneal();

    EXPECT_FALSE(b.stats.deadlineHit);
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}
