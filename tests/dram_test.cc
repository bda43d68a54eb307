/**
 * @file
 * Unit tests for the FR-FCFS memory controller and DRAM system.
 */

#include <gtest/gtest.h>

#include "dram/dram_system.hh"

using namespace valley;

namespace {

DramTiming
fastTiming()
{
    // Small numbers make hand-computed schedules easy to verify.
    DramTiming t;
    t.tCL = 4;
    t.tRCD = 4;
    t.tRP = 4;
    t.tRAS = 8;
    t.tBurst = 2;
    t.tWR = 4;
    t.tRRD = 2;
    return t;
}

DramRequest
readReq(unsigned bank, unsigned row, std::uint64_t tag, unsigned col = 0)
{
    DramRequest r;
    r.coord = DramCoord{0, bank, row, col};
    r.write = false;
    r.tag = tag;
    return r;
}

/** Drive the controller until `tag` completes; returns finish cycle. */
Cycle
runUntilDone(MemoryController &mc, std::uint64_t tag, Cycle start,
             Cycle limit = 10000)
{
    std::vector<DramCompletion> done;
    for (Cycle c = start; c < limit; ++c) {
        mc.tick(c, done);
        for (const auto &d : done)
            if (d.tag == tag)
                return d.finished;
        done.clear();
    }
    ADD_FAILURE() << "request " << tag << " never completed";
    return 0;
}

} // namespace

TEST(MemoryController, ClosedBankReadTiming)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    // Activate at cycle 0 (tRCD=4), column at 4 (bus 2), data at
    // 4 + tCL + tBurst = 10.
    const Cycle done = runUntilDone(mc, 1, 0);
    EXPECT_EQ(done, 10u);
    EXPECT_EQ(mc.stats().activations, 1u);
    EXPECT_EQ(mc.stats().reads, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 1u);
}

TEST(MemoryController, RowHitSkipsActivation)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    // Same row: no new activation, just a column access.
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 2, 3), 20));
    runUntilDone(mc, 2, 21);
    EXPECT_EQ(mc.stats().activations, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 1u);
    EXPECT_DOUBLE_EQ(mc.stats().rowHitRate(), 0.5);
}

TEST(MemoryController, RowConflictPrechargesAndReactivates)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    ASSERT_TRUE(mc.enqueue(readReq(0, 9, 2), 20));
    runUntilDone(mc, 2, 21);
    EXPECT_EQ(mc.stats().activations, 2u);
    EXPECT_EQ(mc.stats().precharges, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 2u);
    EXPECT_DOUBLE_EQ(mc.stats().rowHitRate(), 0.0);
}

TEST(MemoryController, FrFcfsPrefersRowHitOverOlderConflict)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    // Older request conflicts (row 9); younger hits the open row 5.
    ASSERT_TRUE(mc.enqueue(readReq(0, 9, 2), 20));
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 3, 1), 20));
    const Cycle hit_done = runUntilDone(mc, 3, 21);
    const Cycle conflict_done = runUntilDone(mc, 2, 21);
    EXPECT_LT(hit_done, conflict_done);
}

TEST(MemoryController, BanksOperateInParallel)
{
    MemoryController mc(4, fastTiming());
    // Two closed banks: their activations overlap (separated only by
    // tRRD), so total time is far below 2x the serial latency.
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(1, 7, 2), 0));
    const Cycle d1 = runUntilDone(mc, 1, 0);
    const Cycle d2 = runUntilDone(mc, 2, 0);
    EXPECT_LE(std::max(d1, d2), 16u); // serial would be ~20
}

TEST(MemoryController, WritesCountedAndNotCompleted)
{
    MemoryController mc(4, fastTiming());
    DramRequest w = readReq(0, 5, 7);
    w.write = true;
    ASSERT_TRUE(mc.enqueue(w, 0));
    std::vector<DramCompletion> done;
    for (Cycle c = 0; c < 100; ++c)
        mc.tick(c, done);
    EXPECT_TRUE(done.empty()); // writebacks produce no completions
    EXPECT_EQ(mc.stats().writes, 1u);
    EXPECT_EQ(mc.stats().reads, 0u);
}

TEST(MemoryController, QueueCapacityBackpressure)
{
    MemoryController mc(4, fastTiming(), /*queue_capacity=*/2);
    EXPECT_TRUE(mc.canAccept());
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(0, 2, 2), 0));
    EXPECT_FALSE(mc.canAccept());
    EXPECT_FALSE(mc.enqueue(readReq(0, 3, 3), 0));
    // Draining frees space again.
    runUntilDone(mc, 1, 0);
    EXPECT_TRUE(mc.canAccept());
}

TEST(MemoryController, PendingAndBanksWithPending)
{
    MemoryController mc(8, fastTiming());
    EXPECT_EQ(mc.pending(), 0u);
    EXPECT_EQ(mc.banksWithPending(), 0u);
    mc.enqueue(readReq(2, 1, 1), 0);
    mc.enqueue(readReq(2, 1, 2, 1), 0);
    mc.enqueue(readReq(5, 1, 3), 0);
    EXPECT_EQ(mc.pending(), 3u);
    EXPECT_EQ(mc.banksWithPending(), 2u);
}

TEST(MemoryController, DataBusSerializesColumnAccesses)
{
    // Both requests hit the same open row; the second is delayed by
    // the bus, not by bank timing.
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 2, 1), 20));
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 3, 2), 20));
    const Cycle d2 = runUntilDone(mc, 2, 21);
    const Cycle d3 = runUntilDone(mc, 3, 21);
    EXPECT_EQ(d3 - d2, fastTiming().tBurst);
}

TEST(MemoryController, LatencyAccounted)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    const Cycle done = runUntilDone(mc, 1, 0);
    EXPECT_EQ(mc.stats().latencySum, done);
}

TEST(MemoryController, StarvationCapReleasesConflictBehindBusyBus)
{
    // Bank 0 opens row 1; a row-2 request then waits behind row-1 hits
    // arriving every 8 cycles. Bank 1's hits arrive every 3 cycles
    // against a 4-cycle burst, so the data bus stays saturated and
    // bank 0's hits queue up instead of draining: its open row never
    // runs dry. Only the 2000-cycle starvation cap lets the row-2
    // request precharge. Requests are stamped after the tick of their
    // cycle, as GpuSystem enqueues them.
    MemoryController mc(2, DramTiming::hynixGddr5(),
                        /*queue_capacity=*/1024);
    std::vector<DramCompletion> done;
    std::uint64_t tag = 10;
    Cycle row2_done = 0;
    for (Cycle c = 0; c < 4000 && row2_done == 0; ++c) {
        mc.tick(c, done);
        for (const auto &d : done)
            if (d.tag == 2)
                row2_done = d.finished;
        done.clear();
        bool accepted = true;
        if (c == 0)
            accepted &= mc.enqueue(readReq(0, 1, 1), c);
        if (c == 1)
            accepted &= mc.enqueue(readReq(0, 2, 2), c);
        if (c >= 2 && (c - 2) % 8 == 0)
            accepted &= mc.enqueue(readReq(0, 1, tag++), c);
        if (c % 3 == 0)
            accepted &= mc.enqueue(readReq(1, 7, tag++), c);
        ASSERT_TRUE(accepted) << "queue full at cycle " << c;
    }
    EXPECT_EQ(row2_done, 2049u);
}

TEST(DramChannelStats, RowHitRateClampsAndGuards)
{
    DramChannelStats s;
    EXPECT_DOUBLE_EQ(s.rowHitRate(), 0.0);
    s.reads = 10;
    s.rowMisses = 2;
    EXPECT_DOUBLE_EQ(s.rowHitRate(), 0.8);
    s.rowMisses = 50; // writeback-triggered activations can exceed
    EXPECT_DOUBLE_EQ(s.rowHitRate(), 0.0);
}

TEST(DramSystem, RoutesByChannel)
{
    DramSystem sys(4, 4, fastTiming());
    DramRequest r = readReq(0, 1, 1);
    r.coord.channel = 2;
    ASSERT_TRUE(sys.enqueue(r, 0));
    EXPECT_EQ(sys.channel(2).pending(), 1u);
    EXPECT_EQ(sys.channel(0).pending(), 0u);
    EXPECT_EQ(sys.channelsWithPending(), 1u);
}

TEST(DramSystem, AggregatesStatsAndCompletions)
{
    DramSystem sys(2, 4, fastTiming());
    DramRequest a = readReq(0, 1, 1);
    DramRequest b = readReq(1, 2, 2);
    b.coord.channel = 1;
    ASSERT_TRUE(sys.enqueue(a, 0));
    ASSERT_TRUE(sys.enqueue(b, 0));
    std::vector<DramCompletion> done;
    for (Cycle c = 0; c < 100 && done.size() < 2; ++c)
        sys.tick(c, done);
    ASSERT_EQ(done.size(), 2u);
    const DramChannelStats total = sys.totalStats();
    EXPECT_EQ(total.reads, 2u);
    EXPECT_EQ(total.activations, 2u);
}

TEST(DramSystem, ParallelismSamplingHelpers)
{
    DramSystem sys(4, 16, fastTiming());
    EXPECT_EQ(sys.channelsWithPending(), 0u);
    for (unsigned ch = 0; ch < 3; ++ch) {
        DramRequest r = readReq(ch % 16, 1, ch);
        r.coord.channel = ch;
        ASSERT_TRUE(sys.enqueue(r, 0));
    }
    EXPECT_EQ(sys.channelsWithPending(), 3u);
    EXPECT_EQ(sys.banksWithPending(), 3u);
    EXPECT_EQ(sys.totalPending(), 3u);
}

TEST(DramTiming, PresetsMatchTableI)
{
    const DramTiming t = DramTiming::hynixGddr5();
    EXPECT_EQ(t.tCL, 12u);
    EXPECT_EQ(t.tRCD, 12u);
    EXPECT_EQ(t.tRP, 12u);
    EXPECT_DOUBLE_EQ(t.clockGhz, 0.924);
    // Bandwidth check: 128 B per tBurst cycles at 924 MHz x 4 channels
    // = 118.3 GB/s as in Table I.
    const double bw =
        128.0 / (t.tBurst / (t.clockGhz * 1e9)) * 4 / 1e9;
    EXPECT_NEAR(bw, 118.3, 0.5);
}

TEST(DramTiming, Stacked3dBandwidth)
{
    // 64 vaults x 128 B / (16 cycles at 1.25 GHz) = 640 GB/s.
    const DramTiming t = DramTiming::stacked3d();
    const double bw =
        128.0 / (t.tBurst / (t.clockGhz * 1e9)) * 64 / 1e9;
    EXPECT_NEAR(bw, 640.0, 1.0);
}
