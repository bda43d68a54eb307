/**
 * @file
 * Integration tests for the cycle-level GPU simulator: small kernels
 * run to completion, the metrics satisfy accounting invariants, runs
 * are deterministic, and the paper's headline effects appear.
 */

#include <gtest/gtest.h>

#include "common/cancellation.hh"
#include "gpu/gpu_system.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"

using namespace valley;

namespace {

/** A small single-kernel workload with a configurable pattern. */
std::unique_ptr<Workload>
miniWorkload(unsigned tbs, bool strided, bool writes = false)
{
    KernelParams p;
    p.name = "mini";
    p.numTbs = tbs;
    p.warpsPerTb = 4;
    p.computeGap = 4;
    p.instrsPerRequest = 10;
    Kernel k(p, [strided, writes](TbId tb, TraceBuilder &b) {
        for (unsigned w = 0; w < 4; ++w) {
            const Addr base = (Addr{tb} * 4 + w) * 4096;
            if (strided)
                b.accessStrided(w, base, 2048, 32, writes);
            else
                b.accessLine(w, base, writes);
            b.accessLine(w, base + 128, false);
        }
    });
    std::vector<Kernel> ks;
    ks.push_back(std::move(k));
    return std::make_unique<Workload>(
        WorkloadInfo{"mini", "MINI", "test", false}, std::move(ks));
}

SimConfig
quickConfig()
{
    SimConfig cfg = SimConfig::paperBaseline();
    cfg.maxCycles = 50'000'000;
    return cfg;
}

} // namespace

TEST(GpuSystem, TinyKernelCompletes)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kBase, cfg.layout);
    GpuSystem sim(cfg, *mapper);
    const RunResult r = sim.run(*miniWorkload(4, false));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.requests, 4u * 4 * 2); // 2 lines per warp
    EXPECT_GT(r.seconds, 0.0);
}

TEST(GpuSystem, RejectsMismatchedLayout)
{
    const SimConfig cfg = quickConfig();
    const auto mapper =
        mapping::makeMapper(mapping::kBase, AddressLayout::stacked3d());
    EXPECT_THROW(GpuSystem(cfg, *mapper), std::invalid_argument);
}

TEST(GpuSystem, DeterministicAcrossRuns)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kPae, cfg.layout, 1);
    GpuSystem sim(cfg, *mapper);
    const auto wl = miniWorkload(32, true);
    const RunResult a = sim.run(*wl);
    const RunResult b = sim.run(*wl);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.dram.activations, b.dram.activations);
}

TEST(GpuSystem, FiredTokenThrowsCancelled)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kBase, cfg.layout);
    GpuSystem sim(cfg, *mapper);
    CancelToken token;
    token.cancel();
    EXPECT_THROW(sim.run(*miniWorkload(4, false), &token), Cancelled);
}

TEST(GpuSystem, UnfiredTokenLeavesTheResultBitIdentical)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kPae, cfg.layout, 1);
    GpuSystem sim(cfg, *mapper);
    const auto wl = miniWorkload(256, true, true);
    const RunResult plain = sim.run(*wl);
    // Long enough to cross several poll points.
    ASSERT_GT(plain.cycles, 4 * GpuSystem::kCancelPollCycles);
    const CancelToken token;
    EXPECT_EQ(harness::serializeResult(sim.run(*wl, &token)),
              harness::serializeResult(plain));
}

TEST(GpuSystem, AccountingInvariants)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kBase, cfg.layout);
    GpuSystem sim(cfg, *mapper);
    const RunResult r = sim.run(*miniWorkload(64, true, true));

    // Every coalesced transaction is exactly one L1 access.
    EXPECT_EQ(r.l1Accesses, r.requests);
    // LLC misses cannot exceed LLC accesses.
    EXPECT_LE(r.llcMisses, r.llcAccesses);
    // DRAM reads stem from LLC fill requests.
    EXPECT_LE(r.dram.reads, r.llcMisses);
    // Instructions follow the declared ratio.
    EXPECT_EQ(r.instructions,
              static_cast<std::uint64_t>(r.requests * 10));
    // Power must be populated and positive.
    EXPECT_GT(r.systemPowerW, 0.0);
    EXPECT_GT(r.gpuPower.staticW, 0.0);
    EXPECT_GE(r.dramPower.totalW(), r.dramPower.backgroundW);
}

TEST(GpuSystem, ParallelismMetricsWithinUnitCounts)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kFae, cfg.layout, 1);
    GpuSystem sim(cfg, *mapper);
    const RunResult r = sim.run(*miniWorkload(64, true));
    EXPECT_GE(r.llcParallelism, 1.0);
    EXPECT_LE(r.llcParallelism, cfg.llcSlices);
    EXPECT_GE(r.channelParallelism, 1.0);
    EXPECT_LE(r.channelParallelism, cfg.layout.numChannels());
    EXPECT_LE(r.bankParallelism, cfg.layout.numBanksPerChannel());
    EXPECT_GE(r.rowBufferHitRate, 0.0);
    EXPECT_LE(r.rowBufferHitRate, 1.0);
}

TEST(GpuSystem, MoreSmsRunFasterOnParallelWork)
{
    const auto wl = miniWorkload(256, false);
    SimConfig c12 = quickConfig();
    SimConfig c24 = SimConfig::withSms(24);
    c24.maxCycles = c12.maxCycles;
    const auto m12 = mapping::makeMapper(mapping::kFae, c12.layout, 1);
    const RunResult r12 = GpuSystem(c12, *m12).run(*wl);
    const RunResult r24 = GpuSystem(c24, *m12).run(*wl);
    EXPECT_LT(r24.cycles, r12.cycles);
}

TEST(GpuSystem, ValleyPatternSerializesUnderBase)
{
    // All TBs hammer addresses whose channel bits are constant: BASE
    // must be much slower than FAE (the paper's core effect).
    KernelParams p;
    p.name = "camped";
    p.numTbs = 48;
    p.warpsPerTb = 4;
    p.computeGap = 4;
    p.instrsPerRequest = 10;
    Kernel k(p, [](TbId tb, TraceBuilder &b) {
        for (unsigned w = 0; w < 4; ++w)
            // Stride 16 KB: bits 7-13 constant (channel 0, one bank).
            b.accessStrided(w, (Addr{tb} * 4 + w) * 512 * 1024, 16384,
                            32, false);
    });
    std::vector<Kernel> ks;
    ks.push_back(std::move(k));
    const Workload wl(WorkloadInfo{"camped", "CAMP", "test", true},
                      std::move(ks));

    const SimConfig cfg = quickConfig();
    const auto base = mapping::makeMapper(mapping::kBase, cfg.layout);
    const auto fae = mapping::makeMapper(mapping::kFae, cfg.layout, 1);
    const RunResult rb = GpuSystem(cfg, *base).run(wl);
    const RunResult rf = GpuSystem(cfg, *fae).run(wl);
    EXPECT_GT(static_cast<double>(rb.cycles) /
                  static_cast<double>(rf.cycles),
              1.5);
    // FAE spreads the requests across channels.
    EXPECT_GT(rf.channelParallelism, rb.channelParallelism);
}

TEST(GpuSystem, ApkiMpkiDerivedMetrics)
{
    const SimConfig cfg = quickConfig();
    const auto mapper = mapping::makeMapper(mapping::kBase, cfg.layout);
    GpuSystem sim(cfg, *mapper);
    const RunResult r = sim.run(*miniWorkload(32, false));
    EXPECT_NEAR(r.apki(),
                1000.0 * r.llcAccesses / r.instructions, 1e-9);
    EXPECT_NEAR(r.mpki(), 1000.0 * r.llcMisses / r.instructions,
                1e-9);
    EXPECT_LE(r.mpki(), r.apki());
}

TEST(GpuSystem, Stacked3dConfigRuns)
{
    SimConfig cfg = SimConfig::stacked3d();
    cfg.maxCycles = 50'000'000;
    const auto mapper = mapping::makeMapper(mapping::kPae, cfg.layout, 1);
    GpuSystem sim(cfg, *mapper);
    const RunResult r = sim.run(*miniWorkload(64, true));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LE(r.channelParallelism, 64.0);
}

TEST(SimConfigT, PaperBaselineMatchesTableI)
{
    const SimConfig c = SimConfig::paperBaseline();
    EXPECT_EQ(c.numSms, 12u);
    EXPECT_EQ(c.maxThreadsPerSm, 1536u);
    EXPECT_EQ(c.maxWarpsPerSm, 48u);
    EXPECT_EQ(c.schedulersPerSm, 2u);
    EXPECT_EQ(c.l1.sizeBytes, 16u * 1024);
    EXPECT_EQ(c.llcSlices, 8u);
    EXPECT_EQ(c.llcSlice.sizeBytes, 64u * 1024); // 512 KB total
    EXPECT_EQ(c.layout.numChannels(), 4u);
    EXPECT_EQ(c.layout.numBanksPerChannel(), 16u);
    EXPECT_DOUBLE_EQ(c.smClockGhz, 1.4);
}

TEST(SimConfigT, SliceMappingCoversAllSlices)
{
    const SimConfig c = SimConfig::paperBaseline();
    EXPECT_EQ(c.slicesPerChannel(), 2u);
    std::vector<bool> hit(c.llcSlices, false);
    for (unsigned ch = 0; ch < 4; ++ch)
        for (unsigned bank = 0; bank < 16; ++bank)
            hit[c.sliceOf(DramCoord{ch, bank, 0, 0})] = true;
    for (unsigned s = 0; s < c.llcSlices; ++s)
        EXPECT_TRUE(hit[s]) << "slice " << s << " unreachable";
}

TEST(SimConfigT, WithSmsValidates)
{
    EXPECT_THROW(SimConfig::withSms(0), std::invalid_argument);
    EXPECT_EQ(SimConfig::withSms(48).numSms, 48u);
}

TEST(SimConfigT, SecondsForUsesSmClock)
{
    const SimConfig c = SimConfig::paperBaseline();
    EXPECT_NEAR(c.secondsFor(1'400'000'000ull), 1.0, 1e-9);
}
