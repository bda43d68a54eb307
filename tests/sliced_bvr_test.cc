/**
 * @file
 * Tests for the bit-sliced BVR accumulator: bit-for-bit equivalence
 * with the scalar `BvrAccumulator` at stream lengths that exercise
 * the block boundaries and the scalar tail path, plus the fused
 * remap entry point.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bim/compiled_transform.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "entropy/sliced_bvr.hh"
#include "entropy/window_entropy.hh"
#include "mapping/mapper_registry.hh"

using namespace valley;

namespace {

std::vector<Addr>
randomStream(std::size_t n, unsigned bits, std::uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<Addr> addrs(n);
    for (Addr &a : addrs)
        a = rng.next() & bits::mask(bits);
    return addrs;
}

} // namespace

TEST(SlicedBvrAccumulator, MatchesScalarBitForBitAcrossTailLengths)
{
    // Lengths straddling the 64-address transpose block and the
    // 128-address packed block: everything from empty through
    // multi-block plus a partial tail.
    const std::size_t lengths[] = {0,   1,   2,   63,  64,  65,
                                   100, 127, 128, 129, 191, 192,
                                   255, 256, 1000, 4113};
    for (const std::size_t n : lengths) {
        const auto addrs = randomStream(n, 30, 1000 + n);
        BvrAccumulator scalar(30);
        SlicedBvrAccumulator sliced(30);
        for (Addr a : addrs) {
            scalar.add(a);
            sliced.add(a);
        }
        EXPECT_EQ(scalar.requestCount(), sliced.requestCount())
            << "n=" << n;
        const auto sb = scalar.bvrs();
        const auto lb = sliced.bvrs();
        ASSERT_EQ(sb.size(), lb.size());
        for (std::size_t b = 0; b < sb.size(); ++b)
            ASSERT_EQ(sb[b], lb[b]) << "n=" << n << " bit=" << b;
    }
}

TEST(SlicedBvrAccumulator, AddManyMatchesAdd)
{
    // Batched insertion in ragged chunk sizes must land exactly where
    // one-at-a-time insertion does, including the direct-from-source
    // full-block fast path.
    const auto addrs = randomStream(777, 30, 42);
    SlicedBvrAccumulator one(30), many(30);
    for (Addr a : addrs)
        one.add(a);
    std::size_t i = 0;
    const std::size_t chunks[] = {1, 63, 64, 129, 7, 256, 200};
    std::size_t c = 0;
    while (i < addrs.size()) {
        const std::size_t take =
            std::min(chunks[c++ % 7], addrs.size() - i);
        many.addMany({addrs.data() + i, take});
        i += take;
    }
    EXPECT_EQ(one.requestCount(), many.requestCount());
    EXPECT_EQ(one.bvrs(), many.bvrs());
}

TEST(SlicedBvrAccumulator, WideModeMatchesScalar)
{
    // nbits > 32 disables address packing; the plain 64-address block
    // must stay exact, including bits in the upper word half.
    const auto addrs = randomStream(517, 48, 7);
    BvrAccumulator scalar(48);
    SlicedBvrAccumulator sliced(48);
    for (Addr a : addrs) {
        scalar.add(a);
        sliced.add(a);
    }
    EXPECT_EQ(scalar.bvrs(), sliced.bvrs());
}

TEST(SlicedBvrAccumulator, IgnoresBitsAboveWidth)
{
    // Junk above `nbits` (packing leaves it in unread lanes) must not
    // leak into the tracked counts.
    XorShiftRng rng(9);
    BvrAccumulator scalar(8);
    SlicedBvrAccumulator sliced(8);
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.next(); // full 64-bit values
        scalar.add(a);
        sliced.add(a);
    }
    EXPECT_EQ(scalar.bvrs(), sliced.bvrs());
}

TEST(SlicedBvrAccumulator, AddManyMappedFusesTheRemap)
{
    // Feeding raw addresses through the fused remap must equal
    // mapping each address first and accumulating the result.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const auto mapper = mapping::makeMapper(mapping::kFae, layout, 1);
    const CompiledTransform &ct = mapper->compiled();
    const auto addrs = randomStream(999, 30, 11);

    BvrAccumulator premapped(30);
    for (Addr a : addrs)
        premapped.add(ct.apply(a));

    SlicedBvrAccumulator fused(30);
    fused.addManyMapped(addrs, [&ct](Addr a) { return ct.apply(a); });

    EXPECT_EQ(premapped.requestCount(), fused.requestCount());
    EXPECT_EQ(premapped.bvrs(), fused.bvrs());
}

TEST(SlicedBvrAccumulator, EmptyIsAllZero)
{
    SlicedBvrAccumulator acc(16);
    EXPECT_EQ(acc.requestCount(), 0u);
    for (double v : acc.bvrs())
        EXPECT_DOUBLE_EQ(v, 0.0);
}
