/**
 * @file
 * Golden-bytes tests for the three on-disk record caches (results,
 * profiles, searched BIMs): one fixed store into an empty cache
 * directory must write exactly the bytes pinned below — file name,
 * version tag, key string, payload and checksum — and read back, from
 * disk, as an equal value. Also pins the result-cache key's scale
 * field and the sink-side key rejection every cache applies.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "harness/profile_cache.hh"
#include "harness/result_cache.hh"
#include "search/sbim_cache.hh"
#include "search/searched_bim.hh"

using namespace valley;

namespace {

/** Fresh cache dir per test; caches reset so they re-read it. */
class RecordCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_record_cache_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        setenv("VALLEY_CACHE_DIR", dir.c_str(), 1);
        unsetenv("VALLEY_CACHE");
        resetAll();
    }

    void
    TearDown() override
    {
        resetAll();
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
    }

    static void
    resetAll()
    {
        harness::resultCache().resetForTesting();
        harness::profileCache().resetForTesting();
        search::sbimCache().resetForTesting();
    }

    static std::string
    readAll(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }

    std::filesystem::path dir;
};

/** Doubles that need all 17 digits, a denormal and a near-overflow. */
RunResult
sampleResult()
{
    RunResult r;
    r.workload = "MT";
    r.scheme = "FAE";
    r.cycles = 123456789;
    r.seconds = 1.0 / 3.0;
    r.instructions = 987654321;
    r.requests = 4242;
    r.l1Accesses = 1000;
    r.l1Misses = 333;
    r.llcAccesses = 333;
    r.llcMisses = 111;
    r.llcMissRate = 1.0 / 3.0;
    r.nocLatencySmCycles = 2.0 / 3.0;
    r.llcParallelism = 0.1;
    r.channelParallelism = 5.9999999999999991;
    r.bankParallelism = 1e-300;
    r.dram.reads = 77;
    r.dram.writes = 11;
    r.dram.rowMisses = 5;
    r.dram.activations = 6;
    r.dram.precharges = 6;
    r.dram.busBusyCycles = 9999;
    r.dram.latencySum = 123456;
    r.rowBufferHitRate = 0.91829583405448945;
    r.dramPower.backgroundW = 1.5;
    r.dramPower.activateW = 5e-324;
    r.dramPower.readW = 12.345678901234567;
    r.dramPower.writeW = 1e300;
    r.gpuPower.staticW = 40.0;
    r.gpuPower.dynamicW = 123.456;
    r.systemPowerW = 0.1 + 0.2;
    return r;
}

EntropyProfile
sampleProfile()
{
    EntropyProfile p;
    p.weight = 7;
    p.perBit = {1.0 / 3.0, 0.91829583405448945, 5e-324};
    return p;
}

/** An invertible 30x30 BIM: identity plus three upper taps. */
search::SearchResult
sampleSearch()
{
    search::SearchResult s;
    s.bim = BitMatrix::identity(30);
    s.bim.set(8, 20, true);
    s.bim.set(3, 17, true);
    s.bim.set(0, 29, true);
    s.cost = 1.0 / 7.0;
    s.identityCost = 0.75;
    s.targetEntropy = {0.5, 1.0 / 3.0, 0.99999999999999989};
    return s;
}

const char *const kSerializedResult =
    "MT FAE 123456789 0.33333333333333331 987654321 4242 1000 333 333 "
    "111 0.33333333333333331 0.66666666666666663 0.10000000000000001 "
    "5.9999999999999991 1e-300 77 11 5 6 6 9999 123456 "
    "0.91829583405448945 1.5 4.9406564584124654e-324 "
    "12.345678901234567 1.0000000000000001e+300 40 123.456 "
    "0.30000000000000004";

const char *const kResultFile =
    "v5;paper;MT;map:fae;1;0.25;layout:gddr5_1gb|MT FAE 123456789 "
    "0.33333333333333331 987654321 4242 1000 333 333 111 "
    "0.33333333333333331 0.66666666666666663 0.10000000000000001 "
    "5.9999999999999991 1e-300 77 11 5 6 6 9999 123456 "
    "0.91829583405448945 1.5 4.9406564584124654e-324 "
    "12.345678901234567 1.0000000000000001e+300 40 123.456 "
    "0.30000000000000004|ce9ef3f3989fab4ad\n";

const char *const kProfileFile =
    "p3;MT;identity;12;3;1;0.25|7 3 0.33333333333333331 "
    "0.91829583405448945 4.9406564584124654e-324|c9ca35714260c2a8a\n";

const char *const kSbimFile =
    "m4;s2;MT;0.25;layout:gddr5_1gb;t.8.9.10.11.12.13;c3ffc3f00;12;1;"
    "mean;1;4;1200;e0|30 "
    "20000001 2 4 20008 10 20 40 80 100100 200 400 800 1000 2000 4000 "
    "8000 10000 20000 40000 80000 100000 200000 400000 800000 1000000 "
    "2000000 4000000 8000000 10000000 20000000 0.14285714285714285 "
    "0.75 3 0.5 0.33333333333333331 0.99999999999999989"
    "|c1ad0db1c947cd80d\n";

} // namespace

TEST_F(RecordCacheTest, SerializeResultBytesArePinned)
{
    EXPECT_EQ(harness::serializeResult(sampleResult()),
              kSerializedResult);
}

TEST_F(RecordCacheTest, ResultCacheWritesGoldenBytesAndReadsThemBack)
{
    const RunResult r = sampleResult();
    harness::resultCache().store(
        harness::cacheKey("paper", "MT", "map:fae", 1, 0.25,
                          "layout:gddr5_1gb"),
        r);
    const std::string path = harness::resultCache().path();
    EXPECT_EQ(std::filesystem::path(path).filename(),
              "valley_results_cache.csv");
    EXPECT_EQ(readAll(path), kResultFile);

    harness::resultCache().resetForTesting();
    const auto hit = harness::resultCache().lookup(
        "v5;paper;MT;map:fae;1;0.25;layout:gddr5_1gb");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, r);
}

TEST_F(RecordCacheTest, ProfileCacheWritesGoldenBytesAndReadsThemBack)
{
    const EntropyProfile p = sampleProfile();
    const std::string key = harness::profileCacheKey(
        "MT", "", 12, 3, EntropyMetric::BitProbability, 0.25);
    harness::profileCache().store(key, p);
    const std::string path = harness::profileCache().path();
    EXPECT_EQ(std::filesystem::path(path).filename(),
              "valley_profiles_cache.csv");
    EXPECT_EQ(readAll(path), kProfileFile);

    harness::profileCache().resetForTesting();
    const auto hit = harness::profileCache().lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->weight, p.weight);
    EXPECT_EQ(hit->perBit, p.perBit);
}

TEST_F(RecordCacheTest, SbimCacheWritesGoldenBytesAndReadsThemBack)
{
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const search::SearchResult s = sampleSearch();
    ASSERT_TRUE(s.bim.invertible());
    const std::string key =
        search::sbimCacheKey(workloads::WorkloadSet({"MT"}), 0.25, layout,
                             search::defaultOptions(layout));
    search::sbimCache().store(key, s);
    const std::string path = search::sbimCache().path();
    EXPECT_EQ(std::filesystem::path(path).filename(),
              "valley_sbim_cache.csv");
    EXPECT_EQ(readAll(path), kSbimFile);

    search::sbimCache().resetForTesting();
    const auto hit = search::sbimCache().lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->bim == s.bim);
    EXPECT_EQ(hit->cost, s.cost);
    EXPECT_EQ(hit->identityCost, s.identityCost);
    EXPECT_EQ(hit->targetEntropy, s.targetEntropy);
}

TEST_F(RecordCacheTest, InProcessHitEqualsDiskHit)
{
    // Only the codec's fields survive a store, in memory as on disk:
    // search statistics and the member breakdown read back empty
    // whether the hit comes from this process or a later one.
    search::SearchResult s = sampleSearch();
    s.stats.evaluations = 99;
    s.memberCosts = {0.25};
    search::sbimCache().store("m3;in-process", s);
    const auto hit = search::sbimCache().lookup("m3;in-process");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->stats.evaluations, 0u);
    EXPECT_TRUE(hit->memberCosts.empty());
    EXPECT_EQ(hit->cost, s.cost);
}

TEST_F(RecordCacheTest, EveryCacheRejectsSeparatorsInKeysAtTheSink)
{
    EXPECT_THROW(harness::resultCache().store("v5;bad|key",
                                              sampleResult()),
                 std::invalid_argument);
    EXPECT_THROW(harness::profileCache().store("p3;bad\nkey",
                                               sampleProfile()),
                 std::invalid_argument);
    EXPECT_THROW(search::sbimCache().store("m3;bad\rkey",
                                           sampleSearch()),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ResultCacheKey, DistinctScalesYieldDistinctKeys)
{
    // Six significant digits used to fold these two scales onto one
    // result-cache and journal cell.
    EXPECT_NE(harness::cacheKey("cfg", "MT", "map:base", 1, 0.3333333),
              harness::cacheKey("cfg", "MT", "map:base", 1, 0.33333334));
    // Scales that print in six digits or fewer keep their keys.
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 0.05),
              "v5;c;w;s;1;0.05;");
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 0.125),
              "v5;c;w;s;1;0.125;");
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 1.0), "v5;c;w;s;1;1;");
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 2.0), "v5;c;w;s;1;2;");
}
