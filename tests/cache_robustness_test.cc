/**
 * @file
 * Fault-tolerance tests for the three on-disk caches (results,
 * profiles, searched BIMs) and the shared atomic-IO layer beneath
 * them: corrupt lines — truncated tails, flipped checksums, wrong
 * field counts, stray NULs — must never abort a run. They are
 * skipped-and-quarantined (moved to `cache/quarantine/`, counted,
 * logged), the good entries still load, and the affected keys
 * degrade to cache misses that repopulate on the next store.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bim/bit_matrix.hh"
#include "harness/atomic_io.hh"
#include "harness/profile_cache.hh"
#include "harness/result_cache.hh"
#include "search/sbim_cache.hh"

using namespace valley;

namespace {

void
resetAllCaches()
{
    harness::resultCache().resetForTesting();
    harness::profileCache().resetForTesting();
    search::sbimCache().resetForTesting();
}

/** Fresh cache dir per test; caches reset so they re-read it. */
class CacheRobustnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_robust_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        setenv("VALLEY_CACHE_DIR", dir.c_str(), 1);
        unsetenv("VALLEY_CACHE");
        resetAllCaches();
    }

    void
    TearDown() override
    {
        resetAllCaches(); // drop this dir's entries from memory
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
    }

    /** Append raw bytes (possibly with NULs) to a cache file. */
    static void
    appendRaw(const std::string &path, const std::string &bytes)
    {
        std::ofstream out(path,
                          std::ios::app | std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    static std::string
    readAll(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }

    std::string
    quarantinePath(const std::string &cache_path) const
    {
        return harness::cacheDir() + "/quarantine/" +
               std::filesystem::path(cache_path).filename().string();
    }

    std::filesystem::path dir;
};

RunResult
sampleResult(const std::string &workload)
{
    RunResult r;
    r.workload = workload;
    r.scheme = "BASE";
    r.cycles = 12345;
    r.seconds = 0.03125;
    r.llcMissRate = 1.0 / 3.0;
    r.systemPowerW = 0.91829583405448945;
    return r;
}

} // namespace

TEST(AtomicIo, ChecksummedRecordRoundTrips)
{
    const std::string rec =
        harness::checksummedRecord("v9;some;key", "1 2 3.5");
    ASSERT_FALSE(rec.empty());
    EXPECT_EQ(rec.back(), '\n');
    const auto parsed = harness::parseChecksummedRecord(
        rec.substr(0, rec.size() - 1));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, "v9;some;key");
    EXPECT_EQ(parsed->second, "1 2 3.5");
}

TEST(AtomicIo, ParseRejectsTamperedTruncatedAndNulLines)
{
    std::string rec = harness::checksummedRecord("k", "payload");
    rec.pop_back(); // strip '\n'

    std::string flipped = rec;
    flipped[2] = flipped[2] == 'x' ? 'y' : 'x'; // corrupt payload
    EXPECT_FALSE(harness::parseChecksummedRecord(flipped));

    EXPECT_FALSE(harness::parseChecksummedRecord(
        rec.substr(0, rec.size() / 2))); // torn append
    EXPECT_FALSE(harness::parseChecksummedRecord("k|payload"));
    EXPECT_FALSE(harness::parseChecksummedRecord(
        "k|payload|cnothexnothexnot!"));
    std::string nulled = rec;
    nulled[1] = '\0';
    EXPECT_FALSE(harness::parseChecksummedRecord(nulled));

    EXPECT_TRUE(harness::parseChecksummedRecord(rec));
}

TEST_F(CacheRobustnessTest, AtomicWriteFileReplacesWholeFile)
{
    const std::string path = (dir / "f.txt").string();
    ASSERT_TRUE(harness::atomicWriteFile(path, "first\n"));
    ASSERT_TRUE(harness::atomicWriteFile(path, "second\n"));
    EXPECT_EQ(readAll(path), "second\n");
    // No temp droppings left behind.
    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1u);
}

TEST_F(CacheRobustnessTest, ResultCacheQuarantinesCorruptLines)
{
    const std::string k1 =
        harness::cacheKey("cfg", "MT", "BASE", 1, 1.0);
    const std::string k2 =
        harness::cacheKey("cfg", "LU", "BASE", 1, 1.0);
    const RunResult r1 = sampleResult("MT");
    const RunResult r2 = sampleResult("LU");
    harness::resultCache().store(k1, r1);
    harness::resultCache().store(k2, r2);
    resetAllCaches(); // force the next lookup to re-read disk

    const std::string path = harness::resultCache().path();
    const std::string v = harness::kResultCacheVersion;
    // Torn append: half a record, cut mid-payload.
    const std::string torn = harness::checksummedRecord(
        v + ";cfg;HS;BASE;1;1", harness::serializeResult(r1));
    appendRaw(path, torn.substr(0, torn.size() / 2) + "\n");
    // Bit rot: checksum no longer matches the payload.
    std::string rotted = harness::checksummedRecord(
        v + ";cfg;SC;BASE;1;1", harness::serializeResult(r2));
    rotted[rotted.find("BASE") + 1] = 'X';
    appendRaw(path, rotted);
    // Wrong field count: checksum fine, schema wrong.
    appendRaw(path, harness::checksummedRecord(
                        v + ";cfg;GS;BASE;1;1", "1 2 3"));
    // Stray NULs inside an otherwise current-version line.
    appendRaw(path, v + std::string(";cfg;NW;BASE;1;1|pay") +
                        std::string(1, '\0') + "load|c0123456789abcdef\n");
    // A pre-checksum epoch line is stale, NOT corrupt: preserved.
    appendRaw(path, "v3;cfg;MT;BASE;1;1|1 2 3\n");

    const std::uint64_t before = harness::quarantinedLineCount();
    const auto hit1 = harness::resultCache().lookup(k1);
    ASSERT_TRUE(hit1.has_value()); // good lines survive the cleanup
    EXPECT_EQ(*hit1, r1);
    const auto hit2 = harness::resultCache().lookup(k2);
    ASSERT_TRUE(hit2.has_value());
    EXPECT_EQ(*hit2, r2);
    EXPECT_EQ(harness::quarantinedLineCount(), before + 4);

    // The corrupt lines moved to quarantine; the rewritten cache file
    // keeps the good and the stale lines only.
    const std::string qfile = quarantinePath(path);
    ASSERT_TRUE(std::filesystem::exists(qfile));
    const std::string quarantined = readAll(qfile);
    EXPECT_NE(quarantined.find(";cfg;GS;"), std::string::npos);
    const std::string cleaned = readAll(path);
    EXPECT_EQ(cleaned.find(";cfg;GS;"), std::string::npos);
    EXPECT_EQ(cleaned.find('\0'), std::string::npos);
    EXPECT_NE(cleaned.find("v3;cfg;MT;"), std::string::npos);

    // The corrupted cells degraded to misses and repopulate.
    const std::string k3 =
        harness::cacheKey("cfg", "HS", "BASE", 1, 1.0);
    EXPECT_FALSE(harness::resultCache().lookup(k3).has_value());
    harness::resultCache().store(k3, sampleResult("HS"));
    resetAllCaches();
    EXPECT_TRUE(harness::resultCache().lookup(k3).has_value());
}

TEST_F(CacheRobustnessTest, ProfileCacheQuarantinesCorruptLines)
{
    const std::string key = harness::profileCacheKey(
        "MT", "", 12, 32, EntropyMetric::BitProbability, 1.0);
    EntropyProfile p;
    p.weight = 7;
    p.perBit = {0.25, 1.0 / 3.0, 1.0};
    harness::profileCache().store(key, p);
    resetAllCaches();

    const std::string path = harness::profileCache().path();
    const std::string v = harness::kProfileCacheVersion;
    // Valid checksum, impossible payload (2 bits declared, 1 given).
    appendRaw(path, harness::checksummedRecord(v + ";LU;identity",
                                               "7 2 0.5"));
    // Torn record.
    const std::string torn =
        harness::checksummedRecord(v + ";GS;identity", "7 1 0.5");
    appendRaw(path, torn.substr(0, torn.size() - 6) + "\n");

    const std::uint64_t before = harness::quarantinedLineCount();
    const auto hit = harness::profileCache().lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->weight, p.weight);
    EXPECT_EQ(hit->perBit, p.perBit);
    EXPECT_EQ(harness::quarantinedLineCount(), before + 2);
    EXPECT_TRUE(std::filesystem::exists(quarantinePath(path)));
}

TEST_F(CacheRobustnessTest, SbimCacheQuarantinesCorruptLines)
{
    search::SearchResult good;
    good.bim = BitMatrix::identity(8);
    good.cost = 0.125;
    good.identityCost = 0.5;
    good.targetEntropy = {0.75, 0.875};
    const std::string key =
        std::string(search::kSbimCacheVersion) + ";robust;test;key";
    search::sbimCache().store(key, good);
    resetAllCaches();

    const std::string path = search::sbimCache().path();
    const std::string v = search::kSbimCacheVersion;
    // Valid checksum, non-invertible matrix (all-zero rows): the
    // deserializer must refuse to hand the grid a garbage mapper.
    appendRaw(path,
              harness::checksummedRecord(
                  v + ";zeros", "4 0 0 0 0 1.0 2.0 1 0.5"));
    // Valid checksum, row 0 = 0x9 in a 3 x 3 matrix: the row
    // reaches past the matrix, and BitMatrix::setRow only asserts.
    const std::string wide = "3 9 2 4 0.5 1 0";
    EXPECT_FALSE(search::SbimCodec::decode(wide).has_value());
    appendRaw(path, harness::checksummedRecord(v + ";wide", wide));
    // Valid checksum, one field more than the schema has.
    const std::string longer = "3 1 2 4 0.5 1 0 99";
    EXPECT_FALSE(search::SbimCodec::decode(longer).has_value());
    appendRaw(path, harness::checksummedRecord(v + ";longer", longer));
    // Flipped checksum digit.
    std::string rotted =
        harness::checksummedRecord(v + ";rot", "1 1 0.1 0.2 0");
    const std::size_t crc_at = rotted.rfind("|c") + 2;
    rotted[crc_at] = rotted[crc_at] == '0' ? '1' : '0';
    appendRaw(path, rotted);

    const std::uint64_t before = harness::quarantinedLineCount();
    const auto hit = search::sbimCache().lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->bim == good.bim);
    EXPECT_EQ(hit->cost, good.cost);
    EXPECT_EQ(hit->targetEntropy, good.targetEntropy);
    EXPECT_EQ(harness::quarantinedLineCount(), before + 4);
    EXPECT_TRUE(std::filesystem::exists(quarantinePath(path)));
    EXPECT_FALSE(
        search::sbimCache().lookup(v + ";zeros").has_value());
    EXPECT_FALSE(search::sbimCache().lookup(v + ";wide").has_value());
}

TEST_F(CacheRobustnessTest, ChecksummedRecordRejectsSeparatorBytes)
{
    // Enforced unconditionally, not by assert: an NDEBUG build must
    // not write a record that parses as two lines. Invalid inputs
    // yield an empty record (the caller's append becomes a no-op).
    EXPECT_TRUE(harness::checksummedRecord("bad|key", "p").empty());
    EXPECT_TRUE(harness::checksummedRecord("bad\nkey", "p").empty());
    EXPECT_TRUE(harness::checksummedRecord("k", "two\nlines").empty());
    EXPECT_TRUE(harness::checksummedRecord("k", "cr\rhere").empty());
    EXPECT_TRUE(
        harness::checksummedRecord("k", std::string("x\0y", 3))
            .empty());
    // '|' in the payload is legal (the checksum field is found with
    // rfind), and a valid record round-trips.
    const std::string rec =
        harness::checksummedRecord("k", "pipes|are|fine");
    ASSERT_FALSE(rec.empty());
    const auto parsed = harness::parseChecksummedRecord(
        rec.substr(0, rec.size() - 1)); // strip '\n'
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, "k");
    EXPECT_EQ(parsed->second, "pipes|are|fine");
}

TEST_F(CacheRobustnessTest, QuarantineRewriteKeepsConcurrentAppends)
{
    // Regression: the quarantine path rewrites the whole file; a
    // record appended between the read pass and the rename used to
    // be silently discarded. Both sides now hold the sidecar flock,
    // so every record appended by the writer thread must survive an
    // arbitrary interleaving of quarantining loads.
    const std::string path = (dir / "concurrent.csv").string();
    constexpr int kRecords = 200;
    std::thread writer([&path] {
        for (int i = 0; i < kRecords; ++i)
            harness::atomicAppend(
                path, harness::checksummedRecord(
                          "vT;k" + std::to_string(i), "p"));
    });
    const auto countKeys = [&path] {
        std::set<std::string> keys;
        harness::loadChecksummedRecords(
            path, "vT",
            [&keys](const std::string &k, const std::string &p) {
                if (p != "p")
                    return false;
                keys.insert(k);
                return true;
            });
        return keys.size();
    };
    for (int i = 0; i < 20; ++i) {
        // A fresh corrupt line forces every load down the
        // quarantine-rewrite path while the writer is appending.
        harness::atomicAppend(path, "vT;c|x|c0000000000000000\n");
        countKeys();
    }
    writer.join();
    EXPECT_EQ(countKeys(), static_cast<std::size_t>(kRecords));
}

TEST_F(CacheRobustnessTest, StaleLockSidecarIsCleanedAtCacheOpen)
{
    // A SIGKILL between sidecar creation and process death leaves the
    // `.<basename>.lock` dotfile behind with no live flock holder.
    std::filesystem::create_directories(dir);
    const std::string data = (dir / "victim.csv").string();
    const std::string lock = (dir / ".victim.csv.lock").string();
    appendRaw(data, harness::checksummedRecord("v;k", "payload"));
    appendRaw(lock, ""); // orphaned sidecar, nobody holds it

    ASSERT_TRUE(std::filesystem::exists(lock));
    EXPECT_TRUE(harness::cleanStaleLock(data));
    EXPECT_FALSE(std::filesystem::exists(lock));
    // Idempotent: nothing left to clean.
    EXPECT_FALSE(harness::cleanStaleLock(data));

    // loadChecksummedRecords performs the same sweep at every open
    // (its own FileLock then re-creates the sidecar and releases it,
    // so afterwards the file exists again but is unheld — stale by
    // definition, removable by the next probe).
    appendRaw(lock, "");
    std::size_t seen = 0;
    const harness::LoadStats stats = harness::loadChecksummedRecords(
        data, "v", [&](const std::string &, const std::string &) {
            ++seen;
            return true;
        });
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(seen, 1u);
    EXPECT_TRUE(harness::cleanStaleLock(data));
    EXPECT_FALSE(std::filesystem::exists(lock));
}

TEST_F(CacheRobustnessTest, LiveLockHolderIsLeftUntouched)
{
    std::filesystem::create_directories(dir);
    const std::string data = (dir / "held.csv").string();
    const std::string lock = (dir / ".held.csv.lock").string();

    // Hold the sidecar flock ourselves: the probe must see a live
    // holder and leave the file alone. flock(2) locks belong to the
    // open file description, so a second descriptor in the same
    // process genuinely contends.
    const int fd = ::open(lock.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);

    EXPECT_FALSE(harness::cleanStaleLock(data));
    EXPECT_TRUE(std::filesystem::exists(lock));

    ::flock(fd, LOCK_UN);
    ::close(fd);
    EXPECT_TRUE(harness::cleanStaleLock(data));
    EXPECT_FALSE(std::filesystem::exists(lock));
}
