/**
 * @file
 * Tests for the self-healing execution stack: cooperative
 * cancellation tokens (parent/child composition, deadlines,
 * `VALLEY_DEADLINE_MS`), pool-level task skipping, per-cell retry
 * with bounded attempts, poisoned-cell quarantine (journal
 * round-trip, resume skip, report listing), and the ranked grid
 * report. The process-level supervisor has its own suite
 * (supervisor_test.cc); the end-to-end kill drill runs in CI via
 * `bench/supervise_smoke`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/cancellation.hh"
#include "common/fault_inject.hh"
#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/grid_journal.hh"
#include "harness/grid_report.hh"
#include "harness/result_cache.hh"

using namespace valley;
using namespace valley::harness;

namespace {

/** Fresh cache dir per test; injector and deadline env cleaned. */
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
        unsetenv("VALLEY_CHECKPOINT");
        unsetenv("VALLEY_DEADLINE_MS");
    }

    void
    TearDown() override
    {
        fault::configure("");
        unsetenv("VALLEY_DEADLINE_MS");
        unsetenv("VALLEY_CACHE_DIR");
        std::filesystem::remove_all(dir);
    }

    /** Small, fast, deterministic grid. Caches off; the second cell
     * in grid order — hit 2 of the serial `grid_cell` site — is
     * (synth:strided, PM). */
    GridOptions
    gridOptions(unsigned threads = 1) const
    {
        GridOptions o;
        o.workloads = {"synth:strided", "synth:stencil3d"};
        o.mappers = {mapping::kBase, mapping::kPm};
        o.scale = 0.25;
        o.useCache = false;
        o.threads = threads;
        return o;
    }

    static void
    expectBitIdentical(const Grid &a, const Grid &b)
    {
        for (const auto &w : a.options().workloads)
            for (const std::string &s : a.options().mappers)
                EXPECT_EQ(serializeResult(a.at(w, s)),
                          serializeResult(b.at(w, s)))
                    << w << "/" << s;
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
// Poisoned journal records
// ---------------------------------------------------------------

TEST_F(SelfHealingTest, PoisonedRecordRoundTripsWithNastyReason)
{
    const GridJournal j((dir / "j.csv").string());
    const std::string key = cacheKey("cfg", "MT", "PM", 1, 0.25);
    // Reason with every byte class the record format must escape.
    const std::string reason =
        "profile failed: pipe|sep 100% \"quoted\"\nsecond line";
    ASSERT_TRUE(j.recordPoisoned(key, reason));

    const JournalContents c = j.loadAll();
    EXPECT_TRUE(c.cells.empty());
    ASSERT_EQ(c.poisoned.size(), 1u);
    ASSERT_TRUE(c.poisoned.count(key));
    EXPECT_EQ(c.poisoned.at(key), reason);
}

TEST_F(SelfHealingTest, SuccessRecordTrumpsStalePoisonMark)
{
    const GridJournal j((dir / "j.csv").string());
    const std::string key = cacheKey("cfg", "MT", "PM", 1, 0.25);
    ASSERT_TRUE(j.recordPoisoned(key, "transient ENOSPC"));

    RunResult r;
    r.workload = "MT";
    r.scheme = "PM";
    r.cycles = 42;
    ASSERT_TRUE(j.record(key, r));

    // A later successful simulation supersedes the quarantine: the
    // cell loads as a normal resumed result, not as poisoned.
    const JournalContents c = j.loadAll();
    EXPECT_EQ(c.poisoned.size(), 0u);
    ASSERT_EQ(c.cells.size(), 1u);
    EXPECT_EQ(c.cells.at(key).cycles, 42u);
}

// ---------------------------------------------------------------
// Grid retry / poison / deadline degradation
// ---------------------------------------------------------------

TEST_F(SelfHealingTest, RetryRecoversAFlakyCellBitIdentically)
{
    const Grid reference = runGrid(gridOptions());

    fault::configure("grid_cell:2:throw"); // one-shot: retry passes
    GridOptions o = gridOptions();
    o.maxAttempts = 2;
    const Grid healed = runGrid(o);
    fault::configure("");

    expectBitIdentical(reference, healed);
    const GridReport &rep = healed.report();
    EXPECT_FALSE(rep.degraded());
    EXPECT_EQ(rep.retried, 1u);
    EXPECT_EQ(rep.ok, 3u);
    // The retried cell is ranked above the clean ones.
    ASSERT_FALSE(rep.cells.empty());
    EXPECT_EQ(rep.cells.front().status, CellStatus::Retried);
    EXPECT_EQ(rep.cells.front().attempts, 2u);
}

TEST_F(SelfHealingTest, RetryRecoversUnderParallelGridToo)
{
    const Grid reference = runGrid(gridOptions());

    // Which attempt the injector hits is scheduling-dependent with
    // two workers — the healed grid must be bit-identical either way.
    fault::configure("grid_cell:2:throw");
    GridOptions o = gridOptions(/*threads=*/2);
    o.maxAttempts = 2;
    const Grid healed = runGrid(o);
    fault::configure("");

    expectBitIdentical(reference, healed);
    EXPECT_FALSE(healed.report().degraded());
}

TEST_F(SelfHealingTest, ExhaustedAttemptsStillAbortWithoutPoisonMode)
{
    fault::configure("grid_cell:2:throw:every=1"); // fails forever
    GridOptions o = gridOptions();
    o.maxAttempts = 3;
    EXPECT_THROW(runGrid(o), fault::Injected);
}

TEST_F(SelfHealingTest, PoisonedCellQuarantinesAndGridCompletes)
{
    fault::configure("grid_cell:2:throw");
    GridOptions o = gridOptions();
    o.checkpoint = true;
    o.poison = true;
    o.report = true;
    const Grid degraded = runGrid(o);
    fault::configure("");

    const GridReport &rep = degraded.report();
    EXPECT_TRUE(rep.degraded());
    EXPECT_EQ(rep.poisoned, 1u);
    EXPECT_EQ(rep.ok, 3u);
    // The report names exactly the injected cell, reason included.
    ASSERT_FALSE(rep.cells.empty());
    const CellReport &worst = rep.cells.front();
    EXPECT_EQ(worst.status, CellStatus::Poisoned);
    EXPECT_EQ(worst.workload, "synth:strided");
    EXPECT_EQ(worst.scheme, "PM");
    EXPECT_NE(worst.reason.find("grid_cell"), std::string::npos);
    // --report wrote the ranked JSON artifact.
    EXPECT_TRUE(std::filesystem::exists(
        GridReport::pathFor(rep.gridId)));

    // Resume with the injector disarmed: the poison mark survives in
    // the journal, the cell is skipped (not re-simulated), the three
    // healthy cells come back from the journal.
    const Grid resumed = runGrid(o);
    const GridReport &rep2 = resumed.report();
    EXPECT_TRUE(rep2.degraded());
    EXPECT_EQ(rep2.poisoned, 1u);
    EXPECT_EQ(rep2.resumed, 3u);
    EXPECT_EQ(rep2.ok, 0u);
    ASSERT_FALSE(rep2.cells.empty());
    EXPECT_EQ(rep2.cells.front().status, CellStatus::Poisoned);
    EXPECT_EQ(rep2.cells.front().workload, "synth:strided");
    EXPECT_EQ(rep2.cells.front().scheme, "PM");

    // The healthy cells are bit-identical across the two runs.
    for (const auto &w : degraded.options().workloads)
        for (const std::string &s : degraded.options().mappers) {
            if (w == "synth:strided" && s == mapping::kPm)
                continue;
            EXPECT_EQ(serializeResult(degraded.at(w, s)),
                      serializeResult(resumed.at(w, s)))
                << w << "/" << s;
        }
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

TEST_F(SelfHealingTest, ResumeCompletesAnInterruptedGridBitIdentically)
{
    const Grid reference = runGrid(gridOptions());

    // First run dies at the 3rd cell (historical abort-on-failure
    // contract: maxAttempts=1, poison off) with the first two cells
    // already journaled.
    GridOptions o = gridOptions();
    o.checkpoint = true;
    {
        fault::configure("grid_cell:3:throw");
        EXPECT_THROW(runGrid(o), fault::Injected);
        fault::configure("");
    }

    // Second run resumes the journaled cells and finishes the rest;
    // the merged grid must be bit-identical to the fault-free one.
    const Grid resumed = runGrid(o);
    expectBitIdentical(reference, resumed);
    EXPECT_EQ(resumed.report().resumed, 2u);
    EXPECT_EQ(resumed.report().ok, 2u);
    EXPECT_FALSE(resumed.report().degraded());
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
        c.attempts = 1;
        return c;
    };
    rep.cells = {
        cell("A", "BASE", CellStatus::Ok),
        cell("A", "PM", CellStatus::Resumed),
        cell("B", "BASE", CellStatus::Retried),
        cell("B", "PM", CellStatus::Poisoned),
        cell("C", "BASE", CellStatus::DeadlineMissed),
        cell("C", "PM", CellStatus::NotRun),
    };
    rep.finalize();

    ASSERT_EQ(rep.cells.size(), 6u);
    EXPECT_EQ(rep.cells[0].status, CellStatus::Poisoned);
    // NotRun is a transient alias for deadline-missed; both rank
    // above everything that actually produced a result.
    EXPECT_EQ(rep.cells[1].status, CellStatus::DeadlineMissed);
    EXPECT_EQ(rep.cells[2].status, CellStatus::NotRun);
    EXPECT_EQ(rep.cells[3].status, CellStatus::Retried);
    EXPECT_EQ(rep.cells[4].status, CellStatus::Resumed);
    EXPECT_EQ(rep.cells[5].status, CellStatus::Ok);

    EXPECT_EQ(rep.ok, 1u);
    EXPECT_EQ(rep.resumed, 1u);
    EXPECT_EQ(rep.retried, 1u);
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
    bad.attempts = 3;
    bad.reason = "said \"no\"\n\ttwice\\";
    CellReport good;
    good.workload = "LU";
    good.scheme = "BASE";
    good.status = CellStatus::Ok;
    good.attempts = 1;
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
    EXPECT_STREQ(cellStatusName(CellStatus::Resumed), "resumed");
    EXPECT_STREQ(cellStatusName(CellStatus::Retried), "retried");
    EXPECT_STREQ(cellStatusName(CellStatus::Poisoned), "poisoned");
    EXPECT_STREQ(cellStatusName(CellStatus::DeadlineMissed),
                 "deadline_missed");
}
