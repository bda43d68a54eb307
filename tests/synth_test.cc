/**
 * @file
 * Tests for the synthetic scenario generator (`src/synth/`): spec
 * canonicalization and range checks, registry integrity, generator
 * determinism across runs and thread counts, the line-alignment
 * invariant every family must uphold, the entropy shapes the families
 * advertise, and the `workloads::make` fallthrough (including the
 * zero-TB clamp of `workloads::scaled`).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/types.hh"
#include "search/searched_bim.hh"
#include "synth/registry.hh"
#include "workloads/profiler.hh"

using namespace valley;

namespace {

/** Tiny-but-nontrivial spec per family, used by the sweep tests. */
std::vector<std::string>
smallSpecs()
{
    std::vector<std::string> specs;
    for (const synth::FamilyInfo &f : synth::families())
        specs.push_back("synth:" + f.name);
    return specs;
}

} // namespace

// ---------------------------------------------------------------- spec

TEST(SynthSpec, ResolveCanonicalizesValuesAndOrder)
{
    // Reordered keys, redundant zero padding: same canonical form,
    // same hash — the property the on-disk caches key on.
    const auto a =
        synth::resolve("synth:stencil3d,halo=2,n=096,scale=0.5");
    const auto b =
        synth::resolve("synth:stencil3d,scale=0.50,n=96,halo=2");
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.hash(), b.hash());

    // Round trip: resolving the canonical string is a fixed point.
    const auto c = synth::resolve(a.canonical());
    EXPECT_EQ(c.canonical(), a.canonical());
    EXPECT_EQ(c.hash(), a.hash());
}

TEST(SynthSpec, CanonicalDropsDefaults)
{
    // Explicitly passing a default value is canonically invisible.
    const auto def = synth::resolve("synth:stream");
    const auto expl = synth::resolve("synth:stream,n=1048576");
    EXPECT_EQ(def.canonical(), "synth:stream");
    EXPECT_EQ(expl.canonical(), "synth:stream");
    EXPECT_EQ(def.hash(), expl.hash());

    // ...and different parameters hash differently.
    const auto other = synth::resolve("synth:stream,n=8192");
    EXPECT_NE(other.hash(), def.hash());
    EXPECT_EQ(other.canonical(), "synth:stream,n=8192");
}

TEST(SynthSpec, ResolveRejectsBadInput)
{
    EXPECT_THROW(synth::resolve("synth:nope"), std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,n=abc"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,n=-5"),
                 std::invalid_argument);
    // A sign behind whitespace would wrap to 2^64 - 1.
    EXPECT_THROW(synth::resolve("synth:stream,n= -1"),
                 std::invalid_argument);
    // Non-finite reals: NaN compares false, so it would pass every
    // range check.
    EXPECT_THROW(synth::resolve("synth:stream,ipr=nan"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,scale=nan"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,wr=inf"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:tiled2d,order=diag"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,scale=0"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,warps=64"),
                 std::invalid_argument);
    // Integers wider than the 32 bits generators read would alias a
    // smaller value under a different canonical identity; so would a
    // gap wider than `MemInstr::gap`. The seed is read as 64 bits.
    EXPECT_THROW(synth::resolve("synth:stream,tstride=4294967300"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,n=4294967296"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,ipt=18446744073709551615"),
                 std::invalid_argument);
    EXPECT_THROW(synth::resolve("synth:stream,gap=70000"),
                 std::invalid_argument);
    EXPECT_NO_THROW(synth::resolve("synth:stream,gap=65535"));
    EXPECT_NO_THROW(
        synth::resolve("synth:hash_shuffle,seed=18446744073709551615"));
    // A zero divisor (ipt=0, or warps * ipt wrapping to 0) would die
    // with SIGFPE, which no retry or poisoning can catch.
    EXPECT_THROW(synth::make("synth:stream,ipt=0", 1.0),
                 std::invalid_argument);
    EXPECT_THROW(synth::make("synth:stream,ipt=536870912", 1.0),
                 std::invalid_argument);
    EXPECT_THROW(synth::make("synth:stream,ipt=4097", 1.0),
                 std::invalid_argument);
    EXPECT_NO_THROW(synth::make("synth:stream,ipt=4096", 1.0));
    EXPECT_THROW(synth::make("synth:hash_shuffle,rpw=0", 1.0),
                 std::invalid_argument);
    EXPECT_THROW(synth::make("synth:hash_shuffle,rpw=4097", 1.0),
                 std::invalid_argument);
    EXPECT_NO_THROW(synth::make("synth:hash_shuffle,rpw=4096", 1.0));
    // Out-of-range geometry is rejected at build time, not truncated.
    EXPECT_THROW(synth::make("synth:stencil3d,nx=100", 1.0),
                 std::invalid_argument);
    EXPECT_THROW(synth::make("synth:hash_shuffle,fmb=100", 1.0),
                 std::invalid_argument);
    // A region check whose product wraps at 2^64 (4 * 2^31 * 2^31)
    // must still reject, and for the right reason.
    try {
        synth::make("synth:tiled2d,nx=2147483648,ny=2147483648", 1.0);
        ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds the 32 MB region"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------------ registry

TEST(SynthRegistry, AtLeastSixFamilies)
{
    EXPECT_GE(synth::families().size(), 6u);
    for (const synth::FamilyInfo &f : synth::families()) {
        EXPECT_NE(synth::findFamily(f.name), nullptr);
        EXPECT_FALSE(f.summary.empty());
        EXPECT_FALSE(f.params.empty());
    }
    EXPECT_EQ(synth::findFamily("nope"), nullptr);
}

TEST(SynthRegistry, MakeFallsThroughFromWorkloads)
{
    const auto wl = workloads::make("synth:stream", 0.25);
    EXPECT_EQ(wl->info().suite, "synth");
    EXPECT_EQ(wl->info().abbrev, "synth:stream");
    EXPECT_FALSE(wl->info().dims.empty());
    EXPECT_THROW(workloads::make("synth:nope", 0.25),
                 std::invalid_argument);
    EXPECT_THROW(workloads::make("synth:stream", 0.0),
                 std::invalid_argument);
}

TEST(SynthRegistry, AbbrevIsCanonicalSpec)
{
    const auto wl =
        workloads::make("synth:tiled2d,ny=512,order=col", 0.5);
    // Default parameters vanish from the canonical identity.
    EXPECT_EQ(wl->info().abbrev, "synth:tiled2d");
}

// ------------------------------------------------- generator invariants

class EverySynthFamily
    : public ::testing::TestWithParam<std::string>
{
};

INSTANTIATE_TEST_SUITE_P(
    Suite, EverySynthFamily, ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const synth::FamilyInfo &f : synth::families())
            names.push_back(f.name);
        return names;
    }()),
    [](const auto &info) { return info.param; });

TEST_P(EverySynthFamily, ProducesRequests)
{
    const auto wl =
        workloads::make("synth:" + GetParam(), 0.25);
    EXPECT_GT(wl->countRequests(), 1000u);
}

TEST_P(EverySynthFamily, LinesAlignedAndWithinPhysicalSpace)
{
    const auto wl = workloads::make("synth:" + GetParam(), 0.25);
    const Addr limit = Addr{1} << kPhysAddrBits;
    for (const Kernel &k : wl->kernels()) {
        for (TbId tb : {TbId{0}, k.numTbs() / 2, k.numTbs() - 1}) {
            const TbTrace t = k.trace(tb);
            ASSERT_EQ(t.warps.size(), k.warpsPerTb());
            for (const auto &warp : t.warps)
                for (const auto &instr : warp.instrs)
                    for (Addr line : instr.lines) {
                        ASSERT_EQ(line % 128, 0u)
                            << GetParam() << " " << k.name();
                        ASSERT_LT(line, limit)
                            << GetParam() << " " << k.name();
                    }
        }
    }
}

TEST_P(EverySynthFamily, SameSpecSameTraceAcrossRuns)
{
    const std::string spec = "synth:" + GetParam();
    const auto w1 = workloads::make(spec, 0.25);
    const auto w2 = workloads::make(spec, 0.25);
    ASSERT_EQ(w1->numKernels(), w2->numKernels());
    for (unsigned ki = 0; ki < w1->numKernels(); ++ki) {
        const Kernel &k1 = w1->kernels()[ki];
        const Kernel &k2 = w2->kernels()[ki];
        ASSERT_EQ(k1.numTbs(), k2.numTbs());
        for (TbId tb : {TbId{0}, k1.numTbs() - 1}) {
            const TbTrace a = k1.trace(tb);
            const TbTrace b = k2.trace(tb);
            ASSERT_EQ(a.warps.size(), b.warps.size());
            for (std::size_t w = 0; w < a.warps.size(); ++w) {
                ASSERT_EQ(a.warps[w].instrs.size(),
                          b.warps[w].instrs.size());
                for (std::size_t i = 0; i < a.warps[w].instrs.size();
                     ++i) {
                    EXPECT_EQ(a.warps[w].instrs[i].lines,
                              b.warps[w].instrs[i].lines);
                    EXPECT_EQ(a.warps[w].instrs[i].write,
                              b.warps[w].instrs[i].write);
                }
            }
        }
    }
}

TEST_P(EverySynthFamily, ProfileIdenticalAcrossThreadCounts)
{
    const auto wl = workloads::make("synth:" + GetParam(), 0.25);
    workloads::ProfileOptions serial;
    serial.threads = 1;
    workloads::ProfileOptions parallel;
    parallel.threads = 3;
    const EntropyProfile a = workloads::profileWorkload(*wl, serial);
    const EntropyProfile b = workloads::profileWorkload(*wl, parallel);
    EXPECT_EQ(a.perBit, b.perBit);
    EXPECT_EQ(a.weight, b.weight);
}

TEST_P(EverySynthFamily, ScaleShrinksTraces)
{
    const std::string spec = "synth:" + GetParam();
    const auto big = workloads::make(spec, 1.0);
    const auto small = workloads::make(spec, 0.25);
    EXPECT_LE(small->countRequests(), big->countRequests());
}

// -------------------------------------------------------- entropy shape

TEST(SynthEntropy, Stencil3dShowsAValley)
{
    // The x-block bits sit on the channel bits and stay pinned across
    // the TB window; the y/z sweep keeps high bits hot — the shape
    // BimSearch exists to fix.
    const auto wl = workloads::make("synth:stencil3d", 0.5);
    workloads::ProfileOptions po;
    const EntropyProfile p = workloads::profileWorkload(*wl, po);
    EXPECT_LT(p.meanOver({8, 9}), 0.3);
    double best = 0.0;
    for (unsigned b = 10; b < 30; ++b)
        best = std::max(best, p.perBit[b]);
    EXPECT_GT(best, 0.9);
}

TEST(SynthEntropy, StridedValleyWidthFollowsPitch)
{
    // pitch 2048 pins bits 7-10; pitch 512 only bits 7-8 — the valley
    // is a controllable function of the spec.
    const auto wide =
        workloads::make("synth:strided,rows=4096", 1.0);
    const auto narrow =
        workloads::make("synth:strided,rows=4096,pitch=512", 1.0);
    workloads::ProfileOptions po;
    const EntropyProfile pw = workloads::profileWorkload(*wide, po);
    const EntropyProfile pn = workloads::profileWorkload(*narrow, po);
    EXPECT_LT(pw.meanOver({8, 9, 10}), 0.5);
    EXPECT_GT(pn.meanOver({9, 10}), pw.meanOver({9, 10}));
}

TEST(SynthEntropy, HashShuffleIsNearFlat)
{
    const auto wl =
        workloads::make("synth:hash_shuffle,fmb=64,tbs=32", 1.0);
    workloads::ProfileOptions po;
    const EntropyProfile p = workloads::profileWorkload(*wl, po);
    EXPECT_GT(p.meanOver({8, 9, 10, 11, 12, 13}), 0.95);
}

TEST(SynthEntropy, Tiled2dOrderFlipsTheValley)
{
    workloads::ProfileOptions po;
    const auto col =
        workloads::make("synth:tiled2d,order=col", 1.0);
    const auto row =
        workloads::make("synth:tiled2d,order=row", 1.0);
    const EntropyProfile pc = workloads::profileWorkload(*col, po);
    const EntropyProfile pr = workloads::profileWorkload(*row, po);
    EXPECT_LT(pc.meanOver({8, 9}), pr.meanOver({8, 9}));
    EXPECT_GT(pr.meanOver({8, 9}), 0.85);
    EXPECT_FALSE(col->info().entropyValley == false);
    EXPECT_FALSE(row->info().entropyValley);
}

TEST(SynthEntropy, PipelineKernelsMixRegimes)
{
    // Per-kernel profiles must differ: the transpose stage has a
    // valley the produce stage does not — the multi-kernel scenario.
    const auto wl = workloads::make("synth:pipeline", 0.5);
    ASSERT_GE(wl->numKernels(), 2u);
    workloads::ProfileOptions po;
    const EntropyProfile produce =
        workloads::profileKernel(wl->kernels()[0], po);
    const EntropyProfile transpose =
        workloads::profileKernel(wl->kernels()[1], po);
    double max_delta = 0.0;
    for (unsigned b = 7; b < 30; ++b)
        max_delta = std::max(max_delta,
                             std::abs(produce.perBit[b] -
                                      transpose.perBit[b]));
    EXPECT_GT(max_delta, 0.3);
}

// ------------------------------------------------- search end-to-end

TEST(SynthSearch, SbimBeatsBaseOnSynthValley)
{
    // The acceptance bar of the subsystem: BimSearch finds a matrix
    // that strictly improves a *synthetic* workload's target-bit
    // entropy, profiles flowing through the standard pipeline.
    setenv("VALLEY_CACHE", "0", 1); // keep this test hermetic
    const auto wl = workloads::make("synth:stencil3d", 0.25);
    const AddressLayout layout = AddressLayout::hynixGddr5();
    search::SearchOptions so = search::defaultOptions(layout);
    so.restarts = 2;
    so.iterations = 400;
    so.threads = 1;
    const search::SetSearchResult r = search::searchSet(
        workloads::WorkloadSet({wl->info().abbrev}), layout, so, 0.25);
    unsetenv("VALLEY_CACHE");

    EXPECT_GT(r.annealed.gain(), 0.0);
    const std::vector<unsigned> targets = layout.randomizeTargets();
    EXPECT_GT(r.searchedProfiles[0].meanOver(targets),
              r.identityProfiles[0].meanOver(targets));
    EXPECT_TRUE(r.annealed.bim.invertible());
}

// ------------------------------------------------------- scaled() fix

TEST(ScaledClamp, TinyScaleNeverProducesZeroDimensions)
{
    EXPECT_EQ(workloads::scaled(100, 0.001, 32), 32u);
    EXPECT_EQ(workloads::scaled(512, 1.0, 128), 512u);
    EXPECT_EQ(workloads::scaled(1, 0.01, 1), 1u);
    // Every family survives the smallest representable scale with a
    // non-empty trace (the clamp + the Kernel zero-TB guard).
    for (const std::string &spec : smallSpecs()) {
        const auto wl = workloads::make(spec, 0.01);
        EXPECT_GT(wl->countRequests(), 0u) << spec;
    }
}

TEST(ScaledClamp, ZeroTbKernelThrows)
{
    KernelParams p;
    p.numTbs = 0;
    EXPECT_THROW(Kernel(p, [](TbId, TraceBuilder &) {}),
                 std::invalid_argument);
    KernelParams q;
    q.warpsPerTb = 0;
    EXPECT_THROW(Kernel(q, [](TbId, TraceBuilder &) {}),
                 std::invalid_argument);
}
