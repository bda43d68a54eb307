/**
 * @file
 * Unit tests for the FR-FCFS memory controller and DRAM system.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
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

namespace {

/**
 * Brute-force FR-FCFS: one arrival-ordered vector, rescanned in full
 * every cycle, with no cached counts or wake bounds. It issues the
 * first ready open-row hit, else the first request whose bank can
 * take a precharge or activate, holding a conflict back while its
 * bank's open row still has queued hits unless it has waited 2000
 * cycles.
 */
class ReferenceController
{
  public:
    ReferenceController(unsigned num_banks, const DramTiming &timing,
                        unsigned capacity)
        : t(timing), capacity(capacity), banks(num_banks)
    {}

    bool
    enqueue(const DramRequest &req, Cycle now)
    {
        if (queue.size() >= capacity)
            return false;
        queue.push_back(Queued{req, now});
        return true;
    }

    void
    tick(Cycle now, std::vector<DramCompletion> &done)
    {
        // Completion order is part of the contract (it orders LLC
        // fills), so retire in the controller's swap-remove order.
        for (std::size_t i = 0; i < inflight.size();) {
            if (inflight[i].doneAt <= now) {
                if (!inflight[i].write) {
                    stats.latencySum += now - inflight[i].enqueued;
                    done.push_back(
                        DramCompletion{inflight[i].tag, now, false});
                }
                inflight[i] = inflight.back();
                inflight.pop_back();
            } else {
                ++i;
            }
        }
        if (!issueColumn(now))
            issueBankCommand(now);
    }

    unsigned
    pending() const
    {
        return static_cast<unsigned>(queue.size() + inflight.size());
    }

    unsigned
    banksWithPending() const
    {
        std::vector<bool> busy(banks.size(), false);
        for (const Queued &q : queue)
            busy[q.req.coord.bank] = true;
        return static_cast<unsigned>(
            std::count(busy.begin(), busy.end(), true));
    }

    DramChannelStats stats;
    /** Precharges the starvation cap released past queued hits. */
    unsigned cappedPrecharges = 0;

  private:
    struct Queued
    {
        DramRequest req;
        Cycle enqueued;
    };

    struct Bank
    {
        bool open = false;
        unsigned row = 0;
        Cycle readyAt = 0;
        Cycle activatedAt = 0;
    };

    struct Flight
    {
        std::uint64_t tag;
        Cycle doneAt;
        bool write;
        Cycle enqueued;
    };

    bool
    isHit(const DramRequest &r) const
    {
        const Bank &b = banks[r.coord.bank];
        return b.open && b.row == r.coord.row;
    }

    bool
    issueColumn(Cycle now)
    {
        if (busFreeAt > now)
            return false;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            const DramRequest &r = it->req;
            Bank &b = banks[r.coord.bank];
            if (!isHit(r) || b.readyAt > now)
                continue;
            busFreeAt = now + t.tBurst;
            stats.busBusyCycles += t.tBurst;
            b.readyAt = now + t.tBurst + (r.write ? t.tWR : 0);
            ++(r.write ? stats.writes : stats.reads);
            inflight.push_back(Flight{r.tag, now + t.tCL + t.tBurst,
                                      r.write, it->enqueued});
            queue.erase(it);
            return true;
        }
        return false;
    }

    bool
    issueBankCommand(Cycle now)
    {
        std::vector<bool> hits_queued(banks.size(), false);
        for (const Queued &q : queue)
            if (isHit(q.req))
                hits_queued[q.req.coord.bank] = true;
        for (const Queued &q : queue) {
            const DramRequest &r = q.req;
            Bank &b = banks[r.coord.bank];
            if (b.readyAt > now || isHit(r))
                continue;
            if (!b.open) {
                if (nextActivateAt > now)
                    continue;
                b.open = true;
                b.row = r.coord.row;
                b.readyAt = now + t.tRCD;
                b.activatedAt = now;
                nextActivateAt = now + t.tRRD;
                ++stats.activations;
                ++stats.rowMisses;
                return true;
            }
            if (b.activatedAt + t.tRAS > now ||
                (hits_queued[r.coord.bank] && q.enqueued + 2000 > now))
                continue;
            b.open = false;
            b.readyAt = now + t.tRP;
            ++stats.precharges;
            cappedPrecharges += hits_queued[r.coord.bank];
            return true;
        }
        return false;
    }

    DramTiming t;
    unsigned capacity;
    std::vector<Bank> banks;
    std::vector<Queued> queue;
    std::vector<Flight> inflight;
    Cycle busFreeAt = 0;
    Cycle nextActivateAt = 0;
};

/**
 * Seeded arrival stream in phases. A hot-row phase (2500–6000 cycles,
 * longer than the starvation cap) sends hits on one bank's row faster
 * than the bus drains them, with the odd conflict on that bank, either
 * alone or over random traffic; alone, no other arrival re-arms the
 * controller's wake bound. The other phases (500–3000 cycles) are
 * uniform random traffic over a few rows per bank and bursts of up to
 * four arrivals a cycle that keep the queue full.
 */
class ArrivalStream
{
  public:
    ArrivalStream(unsigned num_banks, std::uint64_t seed)
        : numBanks(num_banks), rng(seed)
    {}

    /** Requests arriving this cycle (tags are unique). */
    std::vector<DramRequest>
    next()
    {
        if (phaseLeft == 0) {
            phase = static_cast<Phase>(rng.below(4));
            phaseLeft = phase == Phase::HotRow || phase == Phase::HotMixed
                            ? rng.range(2500, 6000)
                            : rng.range(500, 3000);
            hotBank = static_cast<unsigned>(rng.below(numBanks));
            hotRow = static_cast<unsigned>(rng.below(4));
        }
        --phaseLeft;
        std::vector<DramRequest> out;
        switch (phase) {
        case Phase::HotRow:
        case Phase::HotMixed:
            if (rng.chance(2, 5))
                out.push_back(make(hotBank, hotRow));
            if (rng.chance(1, 100))
                out.push_back(make(hotBank, hotRow + 1 +
                                   static_cast<unsigned>(rng.below(3))));
            if (phase == Phase::HotMixed && rng.chance(1, 10))
                out.push_back(randomRequest());
            break;
        case Phase::Random:
            if (rng.chance(1, 4))
                out.push_back(randomRequest());
            break;
        case Phase::Burst:
            for (std::uint64_t n = rng.below(5); n > 0; --n)
                out.push_back(randomRequest());
            break;
        }
        return out;
    }

  private:
    enum class Phase { HotRow, HotMixed, Random, Burst };

    DramRequest
    make(unsigned bank, unsigned row)
    {
        DramRequest r;
        r.coord = DramCoord{0, bank, row, 0};
        r.write = rng.chance(3, 10);
        r.tag = ++lastTag;
        return r;
    }

    DramRequest
    randomRequest()
    {
        return make(static_cast<unsigned>(rng.below(numBanks)),
                    static_cast<unsigned>(rng.below(4)));
    }

    unsigned numBanks;
    XorShiftRng rng;
    Phase phase = Phase::Random;
    std::uint64_t phaseLeft = 0;
    unsigned hotBank = 0;
    unsigned hotRow = 0;
    std::uint64_t lastTag = 0;
};

} // namespace

TEST(MemoryController, MatchesBruteForceFrFcfs)
{
    // Requests arrive after the tick of their cycle, as GpuSystem
    // enqueues them. 128 banks span two bitset words.
    constexpr Cycle kCycles = 20000;
    unsigned rejected = 0;
    unsigned capped = 0;
    for (const DramTiming &timing :
         {DramTiming::hynixGddr5(), fastTiming()})
        for (unsigned num_banks : {1u, 16u, 128u})
            for (unsigned capacity : {4u, 64u})
                for (std::uint64_t seed : {1u, 2u, 3u}) {
                    SCOPED_TRACE(testing::Message()
                                 << "tBurst " << timing.tBurst << ", "
                                 << num_banks << " banks, capacity "
                                 << capacity << ", seed " << seed);
                    MemoryController mc(num_banks, timing, capacity);
                    ReferenceController ref(num_banks, timing, capacity);
                    ArrivalStream arrivals(num_banks, seed);
                    std::vector<DramCompletion> got, want;
                    for (Cycle c = 0; c < kCycles; ++c) {
                        mc.tick(c, got);
                        ref.tick(c, want);
                        ASSERT_EQ(got.size(), want.size()) << "cycle " << c;
                        for (std::size_t i = 0; i < got.size(); ++i) {
                            ASSERT_EQ(got[i].tag, want[i].tag)
                                << "cycle " << c;
                            ASSERT_EQ(got[i].finished, want[i].finished);
                            ASSERT_EQ(got[i].write, want[i].write);
                        }
                        got.clear();
                        want.clear();
                        ASSERT_EQ(mc.stats(), ref.stats) << "cycle " << c;
                        ASSERT_EQ(mc.pending(), ref.pending())
                            << "cycle " << c;
                        ASSERT_EQ(mc.banksWithPending(),
                                  ref.banksWithPending())
                            << "cycle " << c;
                        for (const DramRequest &r : arrivals.next()) {
                            const bool accepted = ref.enqueue(r, c);
                            ASSERT_EQ(mc.enqueue(r, c), accepted)
                                << "cycle " << c;
                            rejected += !accepted;
                        }
                    }
                    EXPECT_GT(ref.stats.precharges, 0u);
                    EXPECT_GT(ref.stats.writes, 0u);
                    capped += ref.cappedPrecharges;
                }
    // The streams reached a full queue and the starvation cap.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(capped, 0u);
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
