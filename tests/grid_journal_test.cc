/**
 * @file
 * Tests for the grid checkpoint journal and the resume path of
 * `runGrid`: records round-trip bit-identically, corrupt journal
 * lines are quarantined not fatal, and a grid interrupted by the
 * fault injector resumes to results bit-identical to an
 * uninterrupted run — serial and parallel.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/fault_inject.hh"
#include "harness/atomic_io.hh"
#include "harness/experiment.hh"
#include "harness/grid_journal.hh"
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"

using namespace valley;
using namespace valley::harness;

namespace {

/** Fresh cache dir per test, fault injector always disarmed after. */
class GridJournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_journal_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        setenv("VALLEY_CACHE_DIR", dir.c_str(), 1);
        unsetenv("VALLEY_CACHE");
        unsetenv("VALLEY_CHECKPOINT");
    }

    void
    TearDown() override
    {
        fault::configure("");
        unsetenv("VALLEY_CHECKPOINT");
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
    }

    /** The small grid all resume tests share. Caches off: the
     * journal alone must carry the resumed state. */
    GridOptions
    gridOptions(bool checkpoint, unsigned threads) const
    {
        GridOptions o;
        o.workloads = {"synth:strided", "synth:stencil3d"};
        o.mappers = {mapping::kBase, mapping::kPm};
        o.scale = 0.25;
        o.useCache = false;
        o.checkpoint = checkpoint;
        o.threads = threads;
        return o;
    }

    static void
    expectBitIdentical(const Grid &a, const Grid &b)
    {
        for (const auto &w : a.options().workloads)
            for (const std::string &s : a.options().mappers) {
                // serializeResult covers every persisted field at
                // full precision; config is restamped on resume.
                EXPECT_EQ(serializeResult(a.at(w, s)),
                          serializeResult(b.at(w, s)))
                    << w << "/" << s;
                EXPECT_EQ(a.at(w, s).config, b.at(w, s).config);
            }
    }

    std::filesystem::path dir;
};

RunResult
nastyResult()
{
    RunResult r;
    r.workload = "MT";
    r.scheme = "PAE";
    r.cycles = 0xfeedbeef;
    r.seconds = 1.0 / 3.0;
    r.llcMissRate = 0.91829583405448945;
    r.systemPowerW = 5e-324; // denormal min: precision torture test
    return r;
}

} // namespace

TEST(GridJournal, PathForIsStableAndDistinct)
{
    const std::string a = GridJournal::pathFor("grid-a");
    EXPECT_EQ(a, GridJournal::pathFor("grid-a"));
    EXPECT_NE(a, GridJournal::pathFor("grid-b"));
    EXPECT_NE(a.find("grid_journal_"), std::string::npos);
}

TEST_F(GridJournalTest, RecordLoadRoundTripsBitIdentically)
{
    const GridJournal j((dir / "j.csv").string());
    const RunResult r = nastyResult();
    const std::string key =
        cacheKey("cfg", "MT", "PAE", 1, 0.25);
    ASSERT_TRUE(j.record(key, r));
    const auto cells = j.load();
    ASSERT_EQ(cells.size(), 1u);
    ASSERT_TRUE(cells.count(key));
    EXPECT_EQ(cells.at(key), r);
    EXPECT_EQ(serializeResult(cells.at(key)), serializeResult(r));
}

TEST_F(GridJournalTest, CorruptJournalLineCostsOneCellNotTheJournal)
{
    const GridJournal j((dir / "j.csv").string());
    const std::string k1 = cacheKey("cfg", "MT", "BASE", 1, 1.0);
    const std::string k2 = cacheKey("cfg", "LU", "BASE", 1, 1.0);
    j.record(k1, nastyResult());
    j.record(k2, nastyResult());
    {
        // Simulate a kill mid-append: a truncated current-version
        // tail line.
        std::ofstream out(j.path(), std::ios::app);
        out << std::string(kResultCacheVersion) +
                   ";cfg;GS;BASE;1;1|torn mid wri";
    }
    const std::uint64_t before = quarantinedLineCount();
    const auto cells = j.load();
    EXPECT_EQ(cells.size(), 2u);
    EXPECT_EQ(quarantinedLineCount(), before + 1);
}

TEST_F(GridJournalTest, InterruptedSerialGridResumesBitIdentically)
{
    const Grid reference = runGrid(gridOptions(false, 1));

    // Interrupt: the 2nd simulated cell throws. The journal keeps
    // cell 1.
    fault::configure("grid_cell:2:throw");
    EXPECT_THROW(runGrid(gridOptions(true, 1)), fault::Injected);
    fault::configure("");

    bool found_journal = false;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().rfind("grid_journal_", 0) ==
            0) {
            found_journal = true;
            EXPECT_EQ(GridJournal(e.path().string()).load().size(),
                      1u);
        }
    ASSERT_TRUE(found_journal);

    // Resume: the journaled cell is skipped, the rest simulate, and
    // the whole grid is bit-identical to the uninterrupted run.
    const Grid resumed = runGrid(gridOptions(true, 1));
    expectBitIdentical(reference, resumed);

    // Every cell is now journaled, so a rerun resumes them all and
    // never reaches the fault site — "resumed cells don't count".
    fault::configure("grid_cell:1:throw");
    const Grid all_resumed = runGrid(gridOptions(true, 1));
    fault::configure("");
    EXPECT_EQ(fault::hitCount(), 0u);
    expectBitIdentical(reference, all_resumed);
}

TEST_F(GridJournalTest, InterruptedParallelGridResumesBitIdentically)
{
    const Grid reference = runGrid(gridOptions(false, 1));

    fault::configure("grid_cell:2:throw");
    EXPECT_THROW(runGrid(gridOptions(true, 4)), fault::Injected);
    fault::configure("");

    const Grid resumed = runGrid(gridOptions(true, 4));
    expectBitIdentical(reference, resumed);
}

TEST_F(GridJournalTest, SpecAxisIdentitiesAreEscapedInTheJournal)
{
    // Mapper specs and synth specs both carry commas; the journal's
    // cell keys must percent-escape them (and carry the v5 schema and
    // the layout identity) so no two cells can alias.
    GridOptions o;
    o.workloads = {"synth:hash_shuffle,fmb=64,tbs=32"};
    o.mappers = {"map:pae,seed=2"};
    o.scale = 0.25;
    o.useCache = false;
    o.checkpoint = true;
    o.threads = 1;
    const Grid first = runGrid(o);

    std::string journal;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().rfind("grid_journal_", 0) ==
            0)
            journal = e.path().string();
    ASSERT_FALSE(journal.empty());

    std::ifstream in(journal);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    // The cell key (everything before the payload separator) must
    // carry the v5 schema, escaped separators and the first-class
    // layout identity. The payload keeps raw field text — its only
    // reserved characters are '|' and newlines.
    const std::string key = line.substr(0, line.find('|'));
    EXPECT_EQ(key.rfind(std::string(kResultCacheVersion) + ";", 0),
              0u)
        << key;
    EXPECT_NE(key.find("%2C"), std::string::npos) << key;
    EXPECT_EQ(key.find("map:pae,seed"), std::string::npos)
        << "raw spec comma must be escaped: " << key;
    EXPECT_EQ(key.find(",fmb"), std::string::npos) << key;
    EXPECT_NE(key.find("layout:gddr5_1gb"), std::string::npos)
        << key;

    // And the escaped identity round-trips: a rerun resumes the cell
    // bit-identically instead of missing its own journal entry.
    const Grid resumed = runGrid(o);
    EXPECT_EQ(resumed.report().resumed, 1u);
    EXPECT_EQ(
        serializeResult(first.at(o.workloads[0], "map:pae,seed=2")),
        serializeResult(
            resumed.at(o.workloads[0], "map:pae,seed=02")));
}

TEST_F(GridJournalTest, DistinctLayoutPresetsKeepDistinctJournals)
{
    // The layout identity is part of the grid identity: the same
    // workloads x mappers grid on two presets must journal into two
    // files (and so can resume independently).
    GridOptions o;
    o.workloads = {"synth:strided"};
    o.mappers = {"map:base"};
    o.scale = 0.25;
    o.useCache = false;
    o.checkpoint = true;
    o.threads = 1;
    runGrid(o); // gddr5_1gb baseline

    GridOptions o2 = o;
    o2.config.layout = mapping::makeLayout("hbm2_4gb");
    runGrid(o2);

    std::size_t journals = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().rfind("grid_journal_", 0) ==
            0)
            ++journals;
    EXPECT_EQ(journals, 2u);
}

TEST_F(GridJournalTest, EnvVarEnablesCheckpointing)
{
    setenv("VALLEY_CHECKPOINT", "1", 1);
    GridOptions o = gridOptions(false, 1);
    o.workloads = {"synth:strided"};
    o.mappers = {mapping::kBase};
    runGrid(o);
    bool found_journal = false;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().rfind("grid_journal_", 0) ==
            0)
            found_journal = true;
    EXPECT_TRUE(found_journal);
}
