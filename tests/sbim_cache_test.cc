/**
 * @file
 * Tests for the persistent searched-BIM cache (`search/sbim_cache`):
 * key uniqueness across every input that shapes the search outcome,
 * store/lookup round trips at full precision, corrupt-line rejection,
 * and the end-to-end guarantee that a cache hit hands `setMapper`
 * exactly the matrix the original search produced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <unistd.h>

#include "harness/atomic_io.hh"
#include "mapping/layout_registry.hh"
#include "search/sbim_cache.hh"
#include "search/searched_bim.hh"
#include "workloads/workload.hh"

using namespace valley;

namespace {

/** Point every cache at a fresh per-test-run directory. */
class SbimCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_sbim_test_" + std::to_string(::getpid()));
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

search::SearchResult
sampleResult()
{
    search::SearchResult r;
    r.bim = BitMatrix::identity(30);
    r.bim.set(8, 20, true); // still invertible (unit upper triangular)
    r.cost = 0.125;
    r.identityCost = 0.75;
    r.targetEntropy = {0.5, 1.0, 0.25};
    return r;
}

} // namespace

TEST_F(SbimCacheTest, KeyCoversEverySearchKnob)
{
    const AddressLayout layout = AddressLayout::hynixGddr5();
    search::SearchOptions base = search::defaultOptions(layout);
    const std::string k0 =
        search::sbimCacheKey("MT", 0.25, layout.name, base);

    // Same inputs: same key.
    EXPECT_EQ(search::sbimCacheKey("MT", 0.25, layout.name, base), k0);

    // Any outcome-shaping change: different key.
    EXPECT_NE(search::sbimCacheKey("LU", 0.25, layout.name, base), k0);
    EXPECT_NE(search::sbimCacheKey("MT", 0.5, layout.name, base), k0);
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, "other", base), k0);
    auto opt = base;
    opt.seed = 2;
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);
    opt = base;
    opt.iterations += 1;
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);
    opt = base;
    opt.restarts += 1;
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);
    opt = base;
    opt.window += 1;
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);
    opt = base;
    opt.metric = EntropyMetric::BvrDistribution;
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);
    opt = base;
    opt.targets.pop_back();
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);
    opt = base;
    opt.candidateMask ^= 1ull << 20;
    EXPECT_NE(search::sbimCacheKey("MT", 0.25, layout.name, opt), k0);

    // Synth canonical specs key like any other workload identity.
    EXPECT_NE(search::sbimCacheKey("synth:stencil3d", 0.25,
                                   layout.name, base),
              k0);
}

TEST_F(SbimCacheTest, StoreLookupRoundTripsAtFullPrecision)
{
    const search::SearchResult r = sampleResult();
    search::sbimCache().store("k1", r);

    const auto hit = search::sbimCache().lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->bim == r.bim);
    EXPECT_EQ(hit->cost, r.cost);
    EXPECT_EQ(hit->identityCost, r.identityCost);
    EXPECT_EQ(hit->targetEntropy, r.targetEntropy);
    EXPECT_EQ(hit->gain(), r.gain());

    EXPECT_FALSE(search::sbimCache().lookup("absent").has_value());
    // The entry landed in the on-disk file under the cache dir.
    EXPECT_TRUE(std::filesystem::exists(search::sbimCache().path()));
}

TEST_F(SbimCacheTest, DisabledCacheStoresAndReturnsNothing)
{
    setenv("VALLEY_CACHE", "0", 1);
    search::sbimCache().store("k2", sampleResult());
    EXPECT_FALSE(search::sbimCache().lookup("k2").has_value());
    unsetenv("VALLEY_CACHE");
}

TEST_F(SbimCacheTest, CommaSpecKeysAreEscapedAndRejectedAtTheSink)
{
    // Regression (workload-set refactor): a synth spec containing ','
    // must reach the CSV escaped — one unambiguous field, no raw
    // separators — and hand-built keys that still carry a newline or
    // the '|' payload separator are rejected at store time.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const search::SearchOptions base = search::defaultOptions(layout);
    const std::string spec = "synth:hash_shuffle,fmb=64,tbs=32";

    const std::string k =
        search::sbimCacheKey(spec, 0.25, layout.name, base);
    EXPECT_EQ(k.find(",fmb"), std::string::npos)
        << "spec commas must be escaped, got: " << k;
    EXPECT_NE(k.find("%2C"), std::string::npos);
    EXPECT_EQ(k.find('\n'), std::string::npos);
    EXPECT_EQ(k.find('|'), std::string::npos);

    // The single-workload overload and a size-1 set agree, so the
    // delegating single-workload API hits the same cache lines.
    EXPECT_EQ(k, search::sbimCacheKey(workloads::WorkloadSet({spec}),
                                      0.25, layout.name, base));

    // Store/lookup round-trips through the escaped key.
    search::sbimCache().store(k, sampleResult());
    EXPECT_TRUE(search::sbimCache().lookup(k).has_value());

    // Reject-at-the-sink: raw separators in a hand-built key.
    EXPECT_THROW(search::sbimCache().store("bad\nkey", sampleResult()),
                 std::invalid_argument);
    EXPECT_THROW(search::sbimCache().store("bad|key", sampleResult()),
                 std::invalid_argument);
}

TEST_F(SbimCacheTest, CommaSpecSearchHitsItsOwnCacheLine)
{
    // End to end with a comma-parameter spec: the first setMapper
    // call searches and stores; the second must reproduce the matrix
    // from the cache file it just wrote (i.e. the escaped line parses
    // back to the same entry, not to a corrupt miss).
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const workloads::WorkloadSet set({"synth:hash_shuffle,fmb=64,tbs=32"});
    search::SearchOptions so = search::defaultOptions(layout);
    so.restarts = 1;
    so.iterations = 120;
    so.threads = 1;

    const auto cold = search::setMapper(layout, set, so, 0.25);
    const auto warm = search::setMapper(layout, set, so, 0.25);
    EXPECT_TRUE(cold->matrix() == warm->matrix());

    std::ifstream in(search::sbimCache().path());
    const auto lines = std::count(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>(), '\n');
    EXPECT_EQ(lines, 1) << "warm call must hit, not append";
}

TEST_F(SbimCacheTest, PreRegistryEpochLinesLoadAsStaleNotCorrupt)
{
    // The mapper-registry PR bumped the schema to m3: an m2-era line
    // must be skipped as *stale* on load — never returned as a hit,
    // never quarantined as corrupt (older binaries may still read
    // it) — while current m3 lines load normally.
    ASSERT_STREQ(search::kSbimCacheVersion, "m3");
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const search::SearchOptions base = search::defaultOptions(layout);
    const std::string cur =
        search::sbimCacheKey("MT", 0.25, layout.name, base);
    ASSERT_EQ(cur.rfind("m3;", 0), 0u) << cur;

    search::sbimCache().store(cur, sampleResult());
    const std::string old = "m2" + cur.substr(2);
    ASSERT_TRUE(harness::atomicAppend(
        search::sbimCache().path(),
        harness::checksummedRecord(old, "pre-registry payload")));

    search::sbimCache().resetForTesting();
    const std::uint64_t quarantined_before =
        harness::quarantinedLineCount();
    EXPECT_FALSE(search::sbimCache().lookup(old).has_value());
    EXPECT_TRUE(search::sbimCache().lookup(cur).has_value());
    EXPECT_EQ(harness::quarantinedLineCount(), quarantined_before);

    // The stale line was preserved in place, not moved aside.
    std::ifstream in(search::sbimCache().path());
    const std::string contents(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>{});
    EXPECT_NE(contents.find("m2;"), std::string::npos);
}

TEST_F(SbimCacheTest, LayoutPresetsKeyDistinctSearches)
{
    // Every layout preset names a distinct search space: the same
    // workload must never share a searched matrix across presets.
    const search::SearchOptions base = search::defaultOptions(
        mapping::makeLayout("gddr5_1gb"));
    std::set<std::string> keys;
    for (const char *preset :
         {"gddr5_1gb", "stacked3d_4gb", "hbm2_4gb", "ddr4_4gb",
          "gddr6_2gb"}) {
        const AddressLayout l = mapping::makeLayout(preset);
        keys.insert(
            search::sbimCacheKey("MT", 0.25, l.name, base));
    }
    EXPECT_EQ(keys.size(), 5u);
}

TEST_F(SbimCacheTest, SetMapperHitMatchesSetMapperMiss)
{
    // End to end: the second setMapper call must produce the exact
    // matrix of the first (which ran the real search), i.e. the cache
    // is invisible except for the time it saves.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const workloads::WorkloadSet set({"synth:strided"});
    search::SearchOptions so = search::defaultOptions(layout);
    so.restarts = 1;
    so.iterations = 120;
    so.threads = 1;

    const auto cold = search::setMapper(layout, set, so, 0.25);
    ASSERT_TRUE(std::filesystem::exists(search::sbimCache().path()));
    const auto warm = search::setMapper(layout, set, so, 0.25);
    EXPECT_TRUE(cold->matrix() == warm->matrix());

    // A different scale is a different workload: key must miss (the
    // file has exactly one entry, so a second search appends one).
    std::ifstream in(search::sbimCache().path());
    const auto lines_before = std::count(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>(), '\n');
    EXPECT_EQ(lines_before, 1);
}
