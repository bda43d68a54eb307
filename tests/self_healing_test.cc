/**
 * @file
 * Tests for how a grid degrades and resumes: cooperative
 * cancellation tokens (parent/child composition, deadlines,
 * `VALLEY_DEADLINE_MS`), pool-level task skipping, deadlines that
 * stop running cells, failure capture with `GridOptions::poison`,
 * resuming a killed `useCache` grid from the result cache, and the
 * ranked grid report. The end-to-end kill-and-rerun drill runs in CI
 * through `tools/valley_grid`.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancellation.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/grid_report.hh"
#include "harness/result_cache.hh"
#include "search/sbim_cache.hh"

using namespace valley;
using namespace valley::harness;

namespace {

/** Fresh cache dir and result-cache map per test; deadline env off. */
class SelfHealingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_heal_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        setenv("VALLEY_CACHE_DIR", dir.c_str(), 1);
        unsetenv("VALLEY_CACHE");
        unsetenv("VALLEY_DEADLINE_MS");
        resultCache().resetForTesting();
    }

    void
    TearDown() override
    {
        resultCache().resetForTesting();
        unsetenv("VALLEY_DEADLINE_MS");
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
    }

    /** Small, fast, deterministic grid; caches off. synth:strided
     * runs about 27k cycles under both mappers, synth:stencil3d
     * over 200k. */
    static GridOptions
    gridOptions(unsigned threads = 1)
    {
        GridOptions o;
        o.workloads = {"synth:strided", "synth:stencil3d"};
        o.mappers = {mapping::kBase, mapping::kPm};
        o.scale = 0.25;
        o.useCache = false;
        o.threads = threads;
        return o;
    }

    /** The uncached serial run of `gridOptions()`, computed once. */
    static const Grid &
    reference()
    {
        static const Grid g = runGrid(gridOptions());
        return g;
    }

    static void
    expectBitIdentical(const Grid &a, const Grid &b)
    {
        for (const auto &w : a.options().workloads)
            for (const std::string &s : a.options().mappers) {
                EXPECT_EQ(serializeResult(a.at(w, s)),
                          serializeResult(b.at(w, s)))
                    << w << "/" << s;
                EXPECT_EQ(a.at(w, s).config, b.at(w, s).config);
            }
    }

    static std::uint64_t
    count(const char *name)
    {
        return metrics::counter(name).value();
    }

    std::filesystem::path dir;
};

} // namespace

// ---------------------------------------------------------------
// CancelToken / Deadline semantics
// ---------------------------------------------------------------

TEST(CancelToken, CancelPropagatesToChildrenNotToParents)
{
    CancelToken parent;
    CancelToken child = parent.child();
    CancelToken grandchild = child.child();
    EXPECT_FALSE(parent.cancelled());
    EXPECT_FALSE(grandchild.cancelled());

    child.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(grandchild.cancelled());
    // Cancellation flows down the tree only.
    EXPECT_FALSE(parent.cancelled());

    parent.cancel();
    EXPECT_TRUE(parent.cancelled());
}

TEST(CancelToken, CopiesShareOneCancellationState)
{
    CancelToken a;
    CancelToken b = a; // copy, not child
    b.cancel();
    EXPECT_TRUE(a.cancelled());
}

TEST(CancelToken, ExpiredDeadlineFiresAndChildCannotExtendParent)
{
    using namespace std::chrono;
    CancelToken parent;
    parent.setDeadline(Deadline::after(milliseconds(0)));
    EXPECT_TRUE(parent.cancelled());

    // A child arming its own generous deadline still observes the
    // parent's expired one: layers tighten budgets, never extend.
    CancelToken child = parent.child();
    child.setDeadline(Deadline::after(hours(24)));
    EXPECT_TRUE(child.cancelled());

    CancelToken fresh;
    fresh.setDeadline(Deadline::after(hours(24)));
    EXPECT_FALSE(fresh.cancelled());
    fresh.setDeadline(Deadline::never());
    EXPECT_FALSE(fresh.cancelled());
}

TEST(CancelToken, EnvDeadlineParsesPositiveIntegersOnly)
{
    unsetenv("VALLEY_DEADLINE_MS");
    EXPECT_FALSE(CancelToken::envDeadlineMs().has_value());

    setenv("VALLEY_DEADLINE_MS", "250", 1);
    const auto d = CancelToken::envDeadlineMs();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->count(), 250);

    setenv("VALLEY_DEADLINE_MS", "0", 1);
    EXPECT_FALSE(CancelToken::envDeadlineMs().has_value());
    setenv("VALLEY_DEADLINE_MS", "soon", 1);
    EXPECT_FALSE(CancelToken::envDeadlineMs().has_value());
    setenv("VALLEY_DEADLINE_MS", "", 1);
    EXPECT_FALSE(CancelToken::envDeadlineMs().has_value());
    unsetenv("VALLEY_DEADLINE_MS");
}

TEST(ThreadPool, FiredTokenDrainsTheRoundWithoutRunningTasks)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};

    CancelToken token;
    token.cancel();
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.run(&token); // must return promptly, tasks retired unrun
    EXPECT_EQ(ran.load(), 0);

    // The pool is unharmed: the next round (unfired token) runs.
    CancelToken calm;
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.run(&calm);
    EXPECT_EQ(ran.load(), 16);

    // And a token-free round still works after a cancelled one.
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.run();
    EXPECT_EQ(ran.load(), 17);
}

// ---------------------------------------------------------------
// Grid degradation: failures, deadlines
// ---------------------------------------------------------------

TEST_F(SelfHealingTest, FailedCellsAbortTheGridUnlessPoisonCapturesThem)
{
    // A cycle budget between the two workloads' cycle counts fails
    // both cells of the longer workload and no other.
    const Grid &ref = reference();
    const auto cycles = [&](const std::string &w) {
        return std::minmax(ref.at(w, mapping::kBase).cycles,
                           ref.at(w, mapping::kPm).cycles);
    };
    const auto [short_min, short_max] = cycles("synth:strided");
    const auto [long_min, long_max] = cycles("synth:stencil3d");
    ASSERT_LT(short_max + 1, long_min);

    GridOptions o = gridOptions();
    o.config.maxCycles = short_max + 1;
    try {
        runGrid(o);
        ADD_FAILURE() << "the first failed cell must abort the grid";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cycle budget exceeded"),
                  std::string::npos)
            << e.what();
    }

    o.poison = true;
    o.report = true;
    const Grid g = runGrid(o);
    const GridReport &rep = g.report();
    EXPECT_TRUE(rep.degraded());
    EXPECT_EQ(rep.poisoned, 2u);
    EXPECT_EQ(rep.ok, 2u);
    ASSERT_EQ(rep.cells.size(), 4u);
    // Ranked first, named, with the exception text as the reason.
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(rep.cells[i].status, CellStatus::Poisoned);
        EXPECT_EQ(rep.cells[i].workload, "synth:stencil3d");
        EXPECT_NE(rep.cells[i].reason.find("cycle budget exceeded"),
                  std::string::npos)
            << rep.cells[i].reason;
    }
    for (const std::string &s : g.options().mappers)
        EXPECT_EQ(serializeResult(g.at("synth:strided", s)),
                  serializeResult(ref.at("synth:strided", s)))
            << s;
    // --report wrote the ranked JSON artifact.
    EXPECT_TRUE(std::filesystem::exists(
        GridReport::pathFor(rep.gridId)));
}

TEST_F(SelfHealingTest, PreCancelledGridDegradesToDeadlineMissed)
{
    CancelToken token;
    token.cancel();
    GridOptions o = gridOptions();
    o.cancel = &token;
    const Grid g = runGrid(o);

    const GridReport &rep = g.report();
    EXPECT_TRUE(rep.deadlineHit);
    EXPECT_TRUE(rep.degraded());
    EXPECT_EQ(rep.deadlineMissed, 4u);
    EXPECT_EQ(rep.ok, 0u);
    for (const CellReport &c : rep.cells)
        EXPECT_EQ(c.status, CellStatus::DeadlineMissed);
}

TEST_F(SelfHealingTest, DeadlineStopsRunningCellsAndCachesNothing)
{
    // At full scale MT simulates for about a second and its SBIM
    // search takes over 0.1 s; both cells start at once, and a 20 ms
    // budget fires long after they started and before either ends.
    GridOptions o;
    o.workloads = {"MT"};
    o.mappers = {mapping::kBase, mapping::kSbim};
    o.scale = 1.0;
    o.useCache = true;
    o.threads = 2;
    o.deadlineMs = 20;
    const std::uint64_t stores = count("cache.result.stores");
    const Grid g = runGrid(o);

    const GridReport &rep = g.report();
    EXPECT_TRUE(rep.deadlineHit);
    EXPECT_EQ(rep.deadlineMissed, 2u);
    EXPECT_EQ(count("cache.result.stores"), stores);
    EXPECT_FALSE(std::filesystem::exists(resultCache().path()));
    // The search the deadline cut short is not cached either.
    EXPECT_FALSE(std::filesystem::exists(search::sbimCache().path()));
}

// ---------------------------------------------------------------
// Resume through the result cache
// ---------------------------------------------------------------

TEST_F(SelfHealingTest, KilledCachedGridResumesBitIdentically)
{
    GridOptions o = gridOptions();
    o.useCache = true;
    runGrid(o);

    // What a kill during the third append leaves behind: two whole
    // records and a torn one.
    std::vector<std::string> lines;
    {
        std::ifstream in(resultCache().path());
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 4u);
    {
        std::ofstream out(resultCache().path(), std::ios::trunc);
        out << lines[0] << '\n'
            << lines[1] << '\n'
            << lines[2].substr(0, lines[2].size() / 2);
    }
    resultCache().resetForTesting();

    const std::uint64_t hits = count("cache.result.hits");
    const std::uint64_t misses = count("cache.result.misses");
    const Grid resumed = runGrid(o);
    EXPECT_EQ(count("cache.result.hits") - hits, 2u);
    EXPECT_EQ(count("cache.result.misses") - misses, 2u);
    EXPECT_FALSE(resumed.report().degraded());
    expectBitIdentical(reference(), resumed);
}

TEST_F(SelfHealingTest, SpecAxisIdentitiesAreEscapedInTheResultCache)
{
    // Mapper specs and synth specs both carry commas; the cell keys
    // must percent-escape them (and carry the v5 schema and the
    // layout identity) so no two cells can alias.
    GridOptions o;
    o.workloads = {"synth:hash_shuffle,fmb=64,tbs=32"};
    o.mappers = {"map:pae,seed=2"};
    o.scale = 0.25;
    o.useCache = true;
    o.threads = 1;
    const Grid first = runGrid(o);

    std::ifstream in(resultCache().path());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    // The cell key (everything before the payload separator) must
    // carry the v5 schema, escaped separators and the first-class
    // layout identity.
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

    // The escaped identity round-trips through the file: a respelled
    // spec in a fresh load hits the same cell.
    resultCache().resetForTesting();
    o.mappers = {"map:pae,seed=02"};
    const std::uint64_t hits = count("cache.result.hits");
    const Grid again = runGrid(o);
    EXPECT_EQ(count("cache.result.hits") - hits, 1u);
    EXPECT_EQ(
        serializeResult(first.at(o.workloads[0], "map:pae,seed=2")),
        serializeResult(again.at(o.workloads[0], "map:pae,seed=02")));
}

// ---------------------------------------------------------------
// Grid report ranking / serialization
// ---------------------------------------------------------------

TEST(GridReportRank, FinalizeRanksMostDegradedFirstAndRecounts)
{
    GridReport rep;
    rep.gridId = "0123456789abcdef";
    const auto cell = [](const char *w, const char *s,
                         CellStatus st) {
        CellReport c;
        c.workload = w;
        c.scheme = s;
        c.status = st;
        return c;
    };
    rep.cells = {
        cell("A", "BASE", CellStatus::Ok),
        cell("A", "PM", CellStatus::DeadlineMissed),
        cell("B", "BASE", CellStatus::Ok),
        cell("B", "PM", CellStatus::Poisoned),
        cell("C", "BASE", CellStatus::NotRun),
    };
    rep.finalize();

    ASSERT_EQ(rep.cells.size(), 5u);
    EXPECT_EQ(rep.cells[0].status, CellStatus::Poisoned);
    // NotRun is a transient alias for deadline-missed; both rank
    // above everything that actually produced a result.
    EXPECT_EQ(rep.cells[1].status, CellStatus::DeadlineMissed);
    EXPECT_EQ(rep.cells[2].status, CellStatus::NotRun);
    // Ties keep grid order.
    EXPECT_EQ(rep.cells[3].workload, "A");
    EXPECT_EQ(rep.cells[4].workload, "B");
    EXPECT_EQ(rep.cells[4].status, CellStatus::Ok);

    EXPECT_EQ(rep.ok, 2u);
    EXPECT_EQ(rep.poisoned, 1u);
    EXPECT_EQ(rep.deadlineMissed, 2u); // NotRun counts as missed
    EXPECT_TRUE(rep.degraded());
}

TEST(GridReportRank, JsonCarriesStatusNamesAndEscapedReasons)
{
    GridReport rep;
    rep.gridId = "feedbeeffeedbeef";
    CellReport bad;
    bad.workload = "MT";
    bad.scheme = "PM";
    bad.status = CellStatus::Poisoned;
    bad.reason = "said \"no\"\n\ttwice\\";
    CellReport good;
    good.workload = "LU";
    good.scheme = "BASE";
    good.status = CellStatus::Ok;
    rep.cells = {good, bad};
    rep.finalize();

    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"grid_id\": \"feedbeeffeedbeef\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\": \"poisoned\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    // The reason is JSON-escaped, not embedded raw.
    EXPECT_NE(json.find("said \\\"no\\\"\\n\\ttwice\\\\"),
              std::string::npos);
    EXPECT_EQ(json.find('\t'), std::string::npos);
    // Clean cells carry no reason key at all.
    EXPECT_EQ(json.find("\"reason\": \"\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
}

TEST(GridReportRank, StatusNamesAreStable)
{
    EXPECT_STREQ(cellStatusName(CellStatus::NotRun), "not_run");
    EXPECT_STREQ(cellStatusName(CellStatus::Ok), "ok");
    EXPECT_STREQ(cellStatusName(CellStatus::Poisoned), "poisoned");
    EXPECT_STREQ(cellStatusName(CellStatus::DeadlineMissed),
                 "deadline_missed");
}

TEST(GridReportRank, GridIdIsStableAndDistinct)
{
    EXPECT_EQ(gridIdHex("grid-a"), gridIdHex("grid-a"));
    EXPECT_NE(gridIdHex("grid-a"), gridIdHex("grid-b"));
    EXPECT_EQ(gridIdHex("grid-a").size(), 16u);
}
