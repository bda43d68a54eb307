/**
 * @file
 * Unit tests for the window-based entropy metric (paper Section III).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "entropy/window_entropy.hh"

using namespace valley;

TEST(ShannonEntropyBaseV, FairCoinIsOne)
{
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({0.5, 0.5}), 1.0);
}

TEST(ShannonEntropyBaseV, ConstantIsZero)
{
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({1.0}), 0.0);
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({1.0, 0.0}), 0.0);
}

TEST(ShannonEntropyBaseV, PaperFootnoteExample)
{
    // Footnote 1: two unique BVRs with p = 2/3 and 1/3 -> H = 0.92.
    const double h = shannonEntropyBaseV({2.0 / 3.0, 1.0 / 3.0});
    EXPECT_NEAR(h, 0.918295, 1e-5);
}

TEST(ShannonEntropyBaseV, UniformOverVIsOneForAnyV)
{
    // log base v makes the uniform distribution max out at 1.
    for (int v = 2; v <= 8; ++v) {
        std::vector<double> p(v, 1.0 / v);
        EXPECT_NEAR(shannonEntropyBaseV(p), 1.0, 1e-12) << "v=" << v;
    }
}

TEST(ShannonEntropyBaseV, SkewLowersEntropy)
{
    EXPECT_LT(shannonEntropyBaseV({0.9, 0.1}),
              shannonEntropyBaseV({0.6, 0.4}));
}

TEST(ShannonEntropyBaseV, SingleOutcomeEdgeCases)
{
    // v == 1 must be handled inside the function (log base 1 is
    // undefined), whatever the support looks like: a lone
    // probability, one live outcome among zeros, or an empty vector.
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({1.0}), 0.0);
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({0.0, 0.0, 1.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({}), 0.0);
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({0.0, 0.0}), 0.0);
}

TEST(ShannonEntropyBaseV, AllEqualProbabilityIsExactlyOne)
{
    // The uniform distribution saturates the log-base-v metric; the
    // fair coin must be *exactly* 1 (windowBitEntropy sums it per
    // window and exact-equality tests depend on it).
    EXPECT_DOUBLE_EQ(shannonEntropyBaseV({0.5, 0.5}), 1.0);
    for (int v = 2; v <= 12; ++v) {
        std::vector<double> p(v, 1.0 / v);
        EXPECT_NEAR(shannonEntropyBaseV(p), 1.0, 1e-12) << "v=" << v;
        // Zero-probability entries must not change the support count.
        p.push_back(0.0);
        EXPECT_NEAR(shannonEntropyBaseV(p), 1.0, 1e-12) << "v=" << v;
    }
}

TEST(BvrAccumulator, CountsOnesPerBit)
{
    BvrAccumulator acc(4);
    acc.add(0b0001);
    acc.add(0b0011);
    acc.add(0b0111);
    acc.add(0b1111);
    const auto bvr = acc.bvrs();
    EXPECT_DOUBLE_EQ(bvr[0], 1.0);
    EXPECT_DOUBLE_EQ(bvr[1], 0.75);
    EXPECT_DOUBLE_EQ(bvr[2], 0.5);
    EXPECT_DOUBLE_EQ(bvr[3], 0.25);
    EXPECT_EQ(acc.requestCount(), 4u);
}

TEST(BvrAccumulator, EmptyIsAllZero)
{
    BvrAccumulator acc(8);
    for (double v : acc.bvrs())
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(WindowEntropy, PaperFigure3WindowSize2)
{
    // 8 TBs, alternating BVR 0 / 1 after sorting:
    // windows of 2: entropies 0,1,0,1,0,1,0 -> H* = 3/7.
    const std::vector<double> bvr = {0, 0, 1, 1, 0, 0, 1, 1};
    // Fig. 3 sorts per TB id; the sequence below reproduces the
    // figure's counts: windows alternate between {2 same} and {1+1}.
    const std::vector<double> fig3 = {0, 0, 1, 1, 0, 0, 1, 1};
    (void)bvr;
    EXPECT_NEAR(windowEntropy(fig3, 2), 3.0 / 7.0, 1e-12);
}

TEST(WindowEntropy, PaperFigure3WindowSize4)
{
    // Window size 4: every window holds two 0s and two 1s -> H* = 1.
    const std::vector<double> fig3 = {0, 0, 1, 1, 0, 0, 1, 1};
    EXPECT_DOUBLE_EQ(windowEntropy(fig3, 4), 1.0);
}

TEST(WindowEntropy, ConstantSeriesIsZero)
{
    EXPECT_DOUBLE_EQ(windowEntropy({0.5, 0.5, 0.5, 0.5}, 2), 0.0);
    EXPECT_DOUBLE_EQ(windowEntropy({0, 0, 0, 0, 0}, 3), 0.0);
}

TEST(WindowEntropy, WindowLargerThanSeriesUsesSingleWindow)
{
    // 2 TBs with different BVRs, window 8 -> one window, entropy 1.
    EXPECT_DOUBLE_EQ(windowEntropy({0.0, 1.0}, 8), 1.0);
}

TEST(WindowEntropy, EmptyOrZeroWindow)
{
    EXPECT_DOUBLE_EQ(windowEntropy({}, 4), 0.0);
    EXPECT_DOUBLE_EQ(windowEntropy({0.5}, 0), 0.0);
}

TEST(WindowEntropy, SingleTbIsZero)
{
    EXPECT_DOUBLE_EQ(windowEntropy({0.7}, 4), 0.0);
}

TEST(WindowEntropy, LargerWindowCanRaiseEntropy)
{
    // The paper's key observation (Fig. 3): inter-TB entropy can
    // compensate for low intra-TB entropy when the window grows.
    const std::vector<double> series = {0, 0, 1, 1, 0, 0, 1, 1};
    EXPECT_GT(windowEntropy(series, 4), windowEntropy(series, 2));
}

TEST(WindowEntropy, QuantizationTreatsEqualRatiosEqual)
{
    // 1/3 computed different ways must count as one BVR value.
    const double a = 1.0 / 3.0;
    const double b = 2.0 / 6.0;
    const double c = 333333.0 / 999999.0;
    EXPECT_DOUBLE_EQ(windowEntropy({a, b, c}, 3), 0.0);
}

TEST(WindowEntropy, ThreeDistinctValuesUseLogBase3)
{
    // One window of 3 distinct BVRs: uniform over v=3 -> entropy 1.
    EXPECT_DOUBLE_EQ(windowEntropy({0.0, 0.5, 1.0}, 3), 1.0);
}

TEST(WindowBitEntropy, MatchesEq2OnBinaryBvrExamples)
{
    // On 0/1 BVRs the two readings coincide (Fig. 3 + footnote 1).
    const std::vector<double> fig3 = {0, 0, 1, 1, 0, 0, 1, 1};
    EXPECT_NEAR(windowBitEntropy(fig3, 2), windowEntropy(fig3, 2), 1e-12);
    EXPECT_NEAR(windowBitEntropy(fig3, 4), windowEntropy(fig3, 4), 1e-12);
    EXPECT_NEAR(windowBitEntropy(fig3, 2), 3.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(windowBitEntropy(fig3, 4), 1.0);
}

TEST(WindowBitEntropy, FootnoteExample)
{
    // Window of 3 TBs, BVRs {0, 0, 1}: p = 1/3 -> H = 0.92.
    EXPECT_NEAR(windowBitEntropy({0, 0, 1}, 3), 0.918295, 1e-5);
}

TEST(WindowBitEntropy, SweepingTbsCarryFullInformation)
{
    // TBs that each sweep the bit uniformly (BVR 0.5) saturate the
    // request-weighted reading; the literal BVR-distribution reading
    // sees a single unique value and reports zero.
    const std::vector<double> sweep(16, 0.5);
    EXPECT_DOUBLE_EQ(windowBitEntropy(sweep, 4), 1.0);
    EXPECT_DOUBLE_EQ(windowEntropy(sweep, 4), 0.0);
}

TEST(WindowBitEntropy, ConstantBitIsZero)
{
    EXPECT_DOUBLE_EQ(windowBitEntropy(std::vector<double>(8, 0.0), 4),
                     0.0);
    EXPECT_DOUBLE_EQ(windowBitEntropy(std::vector<double>(8, 1.0), 4),
                     0.0);
}

TEST(WindowBitEntropy, EdgeCases)
{
    EXPECT_DOUBLE_EQ(windowBitEntropy({}, 4), 0.0);
    EXPECT_DOUBLE_EQ(windowBitEntropy({0.5}, 0), 0.0);
    EXPECT_DOUBLE_EQ(windowBitEntropy({0.0, 1.0}, 8), 1.0);
}

namespace {

/**
 * The pre-memoization windowBitEntropy: sliding BVR sum with the
 * heap-allocating `shannonEntropyBaseV({p, 1 - p})` tail. The
 * memoized production path must reproduce it bit for bit — the memo
 * caches each window's term keyed on the exact bit pattern of the
 * window's BVR sum and on the window width, so a hit returns the very
 * double a prior identical input produced.
 */
double
windowBitEntropyReference(const std::vector<double> &bvr_per_tb,
                          unsigned window)
{
    const std::size_t n = bvr_per_tb.size();
    if (n == 0 || window == 0)
        return 0.0;
    const std::size_t w = std::min<std::size_t>(window, n);
    const std::size_t windows = n - w + 1;
    double sum_bvr = 0.0;
    for (std::size_t i = 0; i < w; ++i)
        sum_bvr += bvr_per_tb[i];
    double total = 0.0;
    for (std::size_t i = 0;; ++i) {
        const double p = sum_bvr / static_cast<double>(w);
        if (p > 0.0 && p < 1.0)
            total += shannonEntropyBaseV({p, 1.0 - p});
        if (i + 1 >= windows)
            break;
        sum_bvr += bvr_per_tb[i + w] - bvr_per_tb[i];
    }
    return total / static_cast<double>(windows);
}

} // namespace

TEST(WindowBitEntropy, MemoizedTailMatchesVectorFormExactly)
{
    // Random request-count-style BVRs (k/64 with k uniform) repeat
    // window means heavily — the memo-hit path — while fully random
    // doubles in (0, 1) are almost all misses. Both must equal the
    // reference bit for bit, across window sizes.
    XorShiftRng rng(91);
    for (const unsigned window : {1u, 2u, 5u, 12u, 64u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<double> ratio(257), dense(257);
            for (std::size_t i = 0; i < ratio.size(); ++i) {
                ratio[i] =
                    static_cast<double>(rng.below(65)) / 64.0;
                dense[i] = rng.uniform();
            }
            ASSERT_EQ(windowBitEntropy(ratio, window),
                      windowBitEntropyReference(ratio, window))
                << "window=" << window << " trial=" << trial;
            ASSERT_EQ(windowBitEntropy(dense, window),
                      windowBitEntropyReference(dense, window))
                << "window=" << window << " trial=" << trial;
        }
    }
}

TEST(WindowBitEntropy, MemoizedTailHandlesDenormals)
{
    // Denormal window means exercise the memo's key scheme at the
    // bottom of the double range (every p > 0 has a nonzero bit
    // pattern, including subnormals). log of a subnormal is finite,
    // so the entropy term stays well-defined.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double sub = std::numeric_limits<double>::min() / 4.0;
    for (const unsigned window : {1u, 2u, 4u}) {
        const std::vector<double> series = {
            tiny, 0.0, sub, tiny, 0.5, sub * 3.0, 0.0, tiny};
        const double got = windowBitEntropy(series, window);
        const double want = windowBitEntropyReference(series, window);
        ASSERT_EQ(got, want) << "window=" << window;
        ASSERT_TRUE(std::isfinite(got));
        // Second call must hit the memo and return the same double.
        ASSERT_EQ(windowBitEntropy(series, window), got);
    }
}

TEST(WindowBitEntropy, TermMemoKeysOnWindowWidth)
{
    // A series of n copies of 1/w sums to exactly 1.0 in every window
    // of width w, so widths 2, 4 and 8 share one BVR sum but not one
    // window mean. Calling them alternately in one thread makes each
    // width find the sum the previous width memoized; only the width
    // in the key keeps p = 1/w apart.
    for (int round = 0; round < 3; ++round) {
        for (const unsigned window : {2u, 4u, 8u}) {
            const std::vector<double> series(
                16, 1.0 / static_cast<double>(window));
            ASSERT_EQ(windowBitEntropy(series, window),
                      windowBitEntropyReference(series, window))
                << "window=" << window << " round=" << round;
        }
    }
}

TEST(KernelProfile, PerBitEntropyAndWeight)
{
    // Two TBs; bit 0 BVR flips 0->1 (entropy 1 with w=2), bit 1
    // constant (entropy 0).
    const std::vector<std::vector<double>> tb_bvrs = {
        {0.0, 1.0},
        {1.0, 1.0},
    };
    const EntropyProfile p = kernelProfile(tb_bvrs, 2, 1000);
    ASSERT_EQ(p.numBits(), 2u);
    EXPECT_DOUBLE_EQ(p.perBit[0], 1.0);
    EXPECT_DOUBLE_EQ(p.perBit[1], 0.0);
    EXPECT_EQ(p.weight, 1000u);
}

TEST(EntropyProfile, CombineWeightsByRequests)
{
    EntropyProfile a;
    a.perBit = {1.0, 0.0};
    a.weight = 300;
    EntropyProfile b;
    b.perBit = {0.0, 1.0};
    b.weight = 100;
    const EntropyProfile c = EntropyProfile::combine({a, b});
    EXPECT_DOUBLE_EQ(c.perBit[0], 0.75);
    EXPECT_DOUBLE_EQ(c.perBit[1], 0.25);
    EXPECT_EQ(c.weight, 400u);
}

TEST(EntropyProfile, CombineEmptyAndZeroWeight)
{
    EXPECT_EQ(EntropyProfile::combine({}).numBits(), 0u);
    EntropyProfile a;
    a.perBit = {0.5};
    a.weight = 0;
    const EntropyProfile c = EntropyProfile::combine({a});
    EXPECT_DOUBLE_EQ(c.perBit[0], 0.0);
}

TEST(EntropyProfile, MeanAndMinOver)
{
    EntropyProfile p;
    p.perBit = {0.2, 0.4, 0.9, 1.0};
    EXPECT_DOUBLE_EQ(p.meanOver({0, 1}), 0.3);
    EXPECT_DOUBLE_EQ(p.minOver({1, 2, 3}), 0.4);
    EXPECT_DOUBLE_EQ(p.meanOver({}), 0.0);
    // Out-of-range bits read as zero entropy.
    EXPECT_DOUBLE_EQ(p.minOver({17}), 0.0);
}

TEST(BitFlipProfile, DetectsTogglingBits)
{
    // Alternating bit 3, constant elsewhere.
    std::vector<Addr> reqs;
    for (int i = 0; i < 100; ++i)
        reqs.push_back(i % 2 ? 0x8 : 0x0);
    const EntropyProfile p = bitFlipProfile(reqs, 8);
    EXPECT_DOUBLE_EQ(p.perBit[3], 1.0);
    EXPECT_DOUBLE_EQ(p.perBit[2], 0.0);
    EXPECT_EQ(p.weight, 100u);
}

TEST(BitFlipProfile, EmptyAndSingleRequestAreZero)
{
    EXPECT_DOUBLE_EQ(bitFlipProfile({}, 8).perBit[0], 0.0);
    const std::vector<Addr> one = {0xFF};
    EXPECT_DOUBLE_EQ(bitFlipProfile(one, 8).perBit[0], 0.0);
}

TEST(BitFlipProfile, InterleavingChangesFlipRateButNotWindowEntropy)
{
    // The paper's Section VII argument: two TBs, A writing addresses
    // with bit 5 = 0 and B with bit 5 = 1. Round-robin interleaving
    // shows bit 5 flipping constantly; batched interleaving shows it
    // flipping once. The window-based metric sees identical BVR sets
    // either way.
    std::vector<Addr> round_robin, batched;
    for (int i = 0; i < 64; ++i) {
        round_robin.push_back(i % 2 ? 0x20 : 0x0);
        batched.push_back(i < 32 ? 0x0 : 0x20);
    }
    const double rr = bitFlipProfile(round_robin, 8).perBit[5];
    const double ba = bitFlipProfile(batched, 8).perBit[5];
    EXPECT_DOUBLE_EQ(rr, 1.0);
    EXPECT_LT(ba, 0.2); // one flip out of 63 pairs
    // Window entropy on the per-TB BVRs is interleaving-independent
    // by construction: both TBs have fixed BVRs {0, 1}.
    EXPECT_DOUBLE_EQ(windowBitEntropy({0.0, 1.0}, 2), 1.0);
}

TEST(EntropyProfile, ChartRendersBars)
{
    EntropyProfile p;
    p.perBit.assign(10, 0.0);
    p.perBit[9] = 1.0;
    const std::string chart = p.chart(9, 6);
    // Exactly one full-height column (bit 9) -> 10 '#'s.
    const auto hashes = std::count(chart.begin(), chart.end(), '#');
    EXPECT_EQ(hashes, 10);
}
