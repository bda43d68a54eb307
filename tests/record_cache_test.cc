/**
 * @file
 * Golden-bytes tests for the on-disk result cache: one fixed store
 * into an empty cache directory must write exactly the bytes pinned
 * below — file name, version tag, key string, payload and checksum —
 * and read back, from disk, as an equal value. Also pins the key's
 * scale field, that an in-process hit equals a disk hit, that
 * VALLEY_CACHE=0 stores and returns nothing, and the sink-side key
 * rejection.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "harness/result_cache.hh"

using namespace valley;

namespace {

/** Fresh cache dir per test; caches reset so they re-read it. */
class ResultCacheTest : public ::testing::Test
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
        harness::resultCache().resetForTesting();
    }

    void
    TearDown() override
    {
        harness::resultCache().resetForTesting();
        unsetenv("VALLEY_CACHE");
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
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

} // namespace

TEST_F(ResultCacheTest, SerializeResultBytesArePinned)
{
    EXPECT_EQ(harness::serializeResult(sampleResult()),
              kSerializedResult);
}

TEST_F(ResultCacheTest, ResultCacheWritesGoldenBytesAndReadsThemBack)
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

TEST_F(ResultCacheTest, InProcessHitEqualsDiskHit)
{
    // Only the payload survives a store, in memory as on disk:
    // `config` is not persisted, so it reads back empty whether the
    // hit comes from this process or a later one.
    RunResult r = sampleResult();
    r.config = "paper";
    harness::resultCache().store("v5;in-process", r);
    const auto hit = harness::resultCache().lookup("v5;in-process");
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->config.empty());
    r.config.clear();
    EXPECT_EQ(*hit, r);

    harness::resultCache().resetForTesting();
    const auto disk = harness::resultCache().lookup("v5;in-process");
    ASSERT_TRUE(disk.has_value());
    EXPECT_EQ(*disk, *hit);
}

TEST_F(ResultCacheTest, DisabledCacheStoresAndReturnsNothing)
{
    setenv("VALLEY_CACHE", "0", 1);
    harness::resultCache().store("v5;off", sampleResult());
    EXPECT_FALSE(harness::resultCache().lookup("v5;off").has_value());
    EXPECT_FALSE(std::filesystem::exists(dir));
    // Nothing was kept in memory either.
    unsetenv("VALLEY_CACHE");
    EXPECT_FALSE(harness::resultCache().lookup("v5;off").has_value());
}

TEST_F(ResultCacheTest, EveryCacheRejectsSeparatorsInKeysAtTheSink)
{
    for (const char *key : {"v5;bad|key", "v5;bad\nkey", "v5;bad\rkey"})
        EXPECT_THROW(harness::resultCache().store(key, sampleResult()),
                     std::invalid_argument)
            << key;
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ResultCacheKey, DistinctScalesYieldDistinctKeys)
{
    // Six significant digits used to fold these two scales onto one
    // result-cache and journal cell.
    EXPECT_NE(
        harness::cacheKey("cfg", "MT", "map:base", 1, 0.3333333, ""),
        harness::cacheKey("cfg", "MT", "map:base", 1, 0.33333334, ""));
    // Scales that print in six digits or fewer keep their keys.
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 0.05, ""),
              "v5;c;w;s;1;0.05;");
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 0.125, ""),
              "v5;c;w;s;1;0.125;");
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 1.0, ""),
              "v5;c;w;s;1;1;");
    EXPECT_EQ(harness::cacheKey("c", "w", "s", 1, 2.0, ""),
              "v5;c;w;s;1;2;");
}
