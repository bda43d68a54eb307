/**
 * @file
 * Unit tests for common/bitops.hh.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"

using namespace valley;

TEST(Bitops, MaskBasics)
{
    EXPECT_EQ(bits::mask(0), 0u);
    EXPECT_EQ(bits::mask(1), 1u);
    EXPECT_EQ(bits::mask(6), 0x3Fu);
    EXPECT_EQ(bits::mask(30), 0x3FFFFFFFu);
    EXPECT_EQ(bits::mask(64), ~std::uint64_t{0});
}

TEST(Bitops, ExtractField)
{
    const std::uint64_t v = 0b1011'0110'1100;
    EXPECT_EQ(bits::extract(v, 3, 0), 0b1100u);
    EXPECT_EQ(bits::extract(v, 7, 4), 0b0110u);
    EXPECT_EQ(bits::extract(v, 11, 8), 0b1011u);
    EXPECT_EQ(bits::extract(v, 11, 0), v);
}

TEST(Bitops, ExtractSingleBit)
{
    EXPECT_EQ(bits::bit(0b100, 2), 1u);
    EXPECT_EQ(bits::bit(0b100, 1), 0u);
    EXPECT_EQ(bits::bit(~std::uint64_t{0}, 63), 1u);
}

TEST(Bitops, InsertField)
{
    std::uint64_t v = 0;
    v = bits::insert(v, 7, 4, 0xF);
    EXPECT_EQ(v, 0xF0u);
    v = bits::insert(v, 7, 4, 0x3);
    EXPECT_EQ(v, 0x30u);
    // Inserting must not disturb neighboring bits.
    v = bits::insert(0xFFFF, 7, 4, 0);
    EXPECT_EQ(v, 0xFF0Fu);
}

TEST(Bitops, InsertTruncatesOversizedField)
{
    // Field wider than [hi:lo] is masked down.
    EXPECT_EQ(bits::insert(0, 3, 0, 0x1F), 0xFu);
}

TEST(Bitops, SetBit)
{
    EXPECT_EQ(bits::setBit(0, 5, 1), 32u);
    EXPECT_EQ(bits::setBit(32, 5, 0), 0u);
    EXPECT_EQ(bits::setBit(32, 5, 1), 32u);
}

TEST(Bitops, Parity)
{
    EXPECT_EQ(bits::parity(0), 0u);
    EXPECT_EQ(bits::parity(1), 1u);
    EXPECT_EQ(bits::parity(0b1010101), 0u);
    EXPECT_EQ(bits::parity(0b101010), 1u);
}

TEST(Bitops, IsPow2)
{
    EXPECT_FALSE(bits::isPow2(0));
    EXPECT_TRUE(bits::isPow2(1));
    EXPECT_TRUE(bits::isPow2(1024));
    EXPECT_FALSE(bits::isPow2(1023));
}

TEST(Bitops, Log2Exact)
{
    EXPECT_EQ(bits::log2Exact(1), 0u);
    EXPECT_EQ(bits::log2Exact(2), 1u);
    EXPECT_EQ(bits::log2Exact(1u << 20), 20u);
}

TEST(Bitops, Log2Ceil)
{
    EXPECT_EQ(bits::log2Ceil(1), 0u);
    EXPECT_EQ(bits::log2Ceil(2), 1u);
    EXPECT_EQ(bits::log2Ceil(3), 2u);
    EXPECT_EQ(bits::log2Ceil(4), 2u);
    EXPECT_EQ(bits::log2Ceil(5), 3u);
}

TEST(Bitops, Transpose64Orientation)
{
    // After the transpose, bit c of rows[r] is bit r of the original
    // rows[c] — the exact property the trace planes need (lane[b]
    // position i == address i bit b).
    XorShiftRng rng(31);
    std::array<std::uint64_t, 64> orig, t;
    for (unsigned i = 0; i < 64; ++i)
        orig[i] = t[i] = rng.next();
    bits::simdOps().transpose64(t.data());
    for (unsigned r = 0; r < 64; ++r)
        for (unsigned c = 0; c < 64; ++c)
            ASSERT_EQ((t[r] >> c) & 1, (orig[c] >> r) & 1)
                << "r=" << r << " c=" << c;
}

TEST(Bitops, Transpose64IsAnInvolution)
{
    XorShiftRng rng(32);
    std::array<std::uint64_t, 64> orig, t;
    for (unsigned i = 0; i < 64; ++i)
        orig[i] = t[i] = rng.next();
    bits::simdOps().transpose64(t.data());
    bits::simdOps().transpose64(t.data());
    EXPECT_EQ(t, orig);
}

TEST(Bitops, Transpose64Identity)
{
    // The identity matrix (row r = bit r) is its own transpose.
    std::array<std::uint64_t, 64> t;
    for (unsigned i = 0; i < 64; ++i)
        t[i] = std::uint64_t{1} << i;
    const std::array<std::uint64_t, 64> orig = t;
    bits::simdOps().transpose64(t.data());
    EXPECT_EQ(t, orig);
}

// ---- runtime SIMD dispatch: every level must be bit-identical to the
// scalar oracle on random and adversarial inputs ------------------------------

namespace {

/** Kernel tables this CPU can actually run, scalar first. */
std::vector<const bits::SimdOps *>
availableLevels()
{
    std::vector<const bits::SimdOps *> out;
    for (const bits::SimdLevel level :
         {bits::SimdLevel::Scalar, bits::SimdLevel::Avx2,
          bits::SimdLevel::Avx512})
        if (const bits::SimdOps *ops = bits::simdOpsFor(level))
            out.push_back(ops);
    return out;
}

/** Word patterns that stress shuffle/blend/mask lanes, not just RNG. */
std::vector<std::uint64_t>
adversarialWords()
{
    std::vector<std::uint64_t> w = {
        0,
        ~std::uint64_t{0},
        0x5555555555555555ull,
        0xAAAAAAAAAAAAAAAAull,
        0x0F0F0F0F0F0F0F0Full,
        0x00FF00FF00FF00FFull,
        0x0000FFFF0000FFFFull,
        0x00000000FFFFFFFFull,
        0x8000000000000001ull,
        1,
    };
    for (unsigned b = 0; b < 64; b += 7)
        w.push_back(std::uint64_t{1} << b);
    return w;
}

/** Lengths around every vector-width boundary, plus empty. */
const std::size_t kLens[] = {0,  1,  2,  3,  4,  5,   7,   8,
                             9,  15, 16, 17, 31, 32,  33,  63,
                             64, 65, 96, 100, 511, 1024, 1025};

std::vector<std::uint64_t>
randomWords(std::size_t n, XorShiftRng &rng)
{
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t &x : v)
        x = rng.next();
    return v;
}

} // namespace

TEST(SimdDispatch, ScalarTableAlwaysAvailable)
{
    EXPECT_EQ(bits::scalarSimdOps().level, bits::SimdLevel::Scalar);
    EXPECT_STREQ(bits::scalarSimdOps().name, "scalar");
    ASSERT_NE(bits::simdOpsFor(bits::SimdLevel::Scalar), nullptr);
    // The dispatched table is one of the constructable ones.
    const bits::SimdOps &d = bits::simdOps();
    EXPECT_EQ(bits::simdOpsFor(d.level), &d);
}

TEST(SimdDispatch, Transpose64MatchesScalar)
{
    XorShiftRng rng(77);
    for (const bits::SimdOps *ops : availableLevels()) {
        for (int trial = 0; trial < 50; ++trial) {
            std::array<std::uint64_t, 64> a, b;
            for (unsigned i = 0; i < 64; ++i)
                a[i] = b[i] = rng.next();
            bits::transpose64Scalar(a.data());
            ops->transpose64(b.data());
            ASSERT_EQ(a, b) << ops->name << " trial " << trial;
        }
        // Adversarial: constant-pattern rows hit degenerate blends.
        for (const std::uint64_t w : adversarialWords()) {
            std::array<std::uint64_t, 64> a, b;
            a.fill(w);
            b.fill(w);
            bits::transpose64Scalar(a.data());
            ops->transpose64(b.data());
            ASSERT_EQ(a, b) << ops->name << " word " << w;
        }
    }
}

TEST(SimdDispatch, PopcountWordsMatchesScalar)
{
    XorShiftRng rng(78);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens) {
            const auto v = randomWords(n, rng);
            ASSERT_EQ(ops->popcountWords(v.data(), n),
                      oracle.popcountWords(v.data(), n))
                << ops->name << " n=" << n;
        }
}

TEST(SimdDispatch, XorPopcount2MatchesScalarAndSupportsAliasing)
{
    XorShiftRng rng(79);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens) {
            const auto a = randomWords(n, rng);
            const auto b = randomWords(n, rng);
            std::vector<std::uint64_t> d1(n), d2(n);
            const std::uint64_t o1 =
                oracle.xorPopcount2(a.data(), b.data(), d1.data(), n);
            const std::uint64_t o2 =
                ops->xorPopcount2(a.data(), b.data(), d2.data(), n);
            ASSERT_EQ(o1, o2) << ops->name << " n=" << n;
            ASSERT_EQ(d1, d2) << ops->name << " n=" << n;
            // dst aliasing a is the in-place accept path of the
            // search's row cache.
            auto alias = a;
            const std::uint64_t oa = ops->xorPopcount2(
                alias.data(), b.data(), alias.data(), n);
            ASSERT_EQ(oa, o1) << ops->name << " alias n=" << n;
            ASSERT_EQ(alias, d1) << ops->name << " alias n=" << n;
        }
}

TEST(SimdDispatch, XorPopcountNMatchesScalar)
{
    XorShiftRng rng(80);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens)
            for (const std::size_t nsrc : {0u, 1u, 2u, 5u, 13u}) {
                std::vector<std::vector<std::uint64_t>> bufs;
                std::vector<const std::uint64_t *> srcs;
                for (std::size_t s = 0; s < nsrc; ++s) {
                    bufs.push_back(randomWords(n, rng));
                    srcs.push_back(bufs.back().data());
                }
                std::vector<std::uint64_t> d1(n, 0xDEAD),
                    d2(n, 0xBEEF);
                const std::uint64_t o1 = oracle.xorPopcountN(
                    srcs.data(), nsrc, d1.data(), n);
                const std::uint64_t o2 = ops->xorPopcountN(
                    srcs.data(), nsrc, d2.data(), n);
                ASSERT_EQ(o1, o2)
                    << ops->name << " n=" << n << " nsrc=" << nsrc;
                ASSERT_EQ(d1, d2)
                    << ops->name << " n=" << n << " nsrc=" << nsrc;
                // Null dst: count-only mode.
                ASSERT_EQ(
                    ops->xorPopcountN(srcs.data(), nsrc, nullptr, n),
                    o1)
                    << ops->name << " n=" << n << " nsrc=" << nsrc;
            }
}

TEST(SimdDispatch, XorPopcountEachMatchesScalar)
{
    XorShiftRng rng(81);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens) {
            auto a = randomWords(n, rng);
            const auto b = randomWords(n, rng);
            // Sprinkle adversarial words across the run.
            const auto adv = adversarialWords();
            for (std::size_t i = 0; i < n; i += 3)
                a[i] = adv[i % adv.size()];
            std::vector<std::uint64_t> d1(n), d2(n), c1(n), c2(n);
            oracle.xorPopcountEach(a.data(), b.data(), d1.data(),
                                   c1.data(), n);
            ops->xorPopcountEach(a.data(), b.data(), d2.data(),
                                 c2.data(), n);
            ASSERT_EQ(d1, d2) << ops->name << " n=" << n;
            ASSERT_EQ(c1, c2) << ops->name << " n=" << n;
            // dst aliasing a, as in the in-place row-cache update.
            auto alias = a;
            ops->xorPopcountEach(alias.data(), b.data(), alias.data(),
                                 c2.data(), n);
            ASSERT_EQ(alias, d1) << ops->name << " alias n=" << n;
            ASSERT_EQ(c2, c1) << ops->name << " alias n=" << n;
        }
}
