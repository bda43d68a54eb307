/**
 * @file
 * Property tests for the byte-sliced CompiledTransform fast path and
 * the precompiled address-layout decoder: both must be exact
 * drop-in replacements for their naive counterparts.
 */

#include <gtest/gtest.h>

#include "bim/compiled_transform.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "mapping/mapper_registry.hh"

using namespace valley;

TEST(CompiledTransform, MatchesNaiveApplyForAllSchemes)
{
    for (const AddressLayout &layout :
         {AddressLayout::hynixGddr5(), AddressLayout::stacked3d()}) {
        const std::vector<std::string> &specs = mapping::paperMappers();
        for (std::uint64_t i = 0; i < specs.size(); ++i) {
            const std::string &s = specs[i];
            for (std::uint64_t seed : {1, 2, 3}) {
                const auto m = mapping::makeMapper(s, layout, seed);
                const CompiledTransform &ct = m->compiled();
                XorShiftRng rng(seed * 1000 + i);
                for (int i = 0; i < 2000; ++i) {
                    const Addr a =
                        rng.next() & bits::mask(layout.addrBits);
                    ASSERT_EQ(ct.apply(a), m->matrix().apply(a))
                        << s << " seed " << seed
                        << " addr " << a;
                }
            }
        }
    }
}

TEST(CompiledTransform, MatchesNaiveApplyOnRandomInvertibleBims)
{
    XorShiftRng rng(2026);
    for (int trial = 0; trial < 30; ++trial) {
        const unsigned n = 2 + static_cast<unsigned>(rng.below(63));
        BitMatrix m(n);
        do {
            for (unsigned r = 0; r < n; ++r)
                m.setRow(r, rng.next() & bits::mask(n));
        } while (!m.invertible());
        const CompiledTransform ct(m);
        for (int i = 0; i < 500; ++i) {
            const Addr a = rng.next(); // full 64-bit input
            ASSERT_EQ(ct.apply(a), m.apply(a))
                << "n=" << n << " addr " << a;
        }
    }
}

TEST(CompiledTransform, PassThroughAboveMatrixSize)
{
    const BitMatrix m = BitMatrix::identity(8);
    const CompiledTransform ct(m);
    const Addr a = 0xFEDCBA9876543210ull;
    EXPECT_EQ(ct.apply(a), a);
}

TEST(CompiledTransform, IdentityDetection)
{
    EXPECT_TRUE(
        CompiledTransform(BitMatrix::identity(30)).isIdentity());
    BitMatrix m = BitMatrix::identity(30);
    m.set(8, 20, true);
    EXPECT_FALSE(CompiledTransform(m).isIdentity());

    const auto base = mapping::makeMapper(
        mapping::kBase, AddressLayout::hynixGddr5(), 1);
    EXPECT_TRUE(base->compiled().isIdentity());
    const auto fae = mapping::makeMapper(
        mapping::kFae, AddressLayout::hynixGddr5(), 1);
    EXPECT_FALSE(fae->compiled().isIdentity());
}

TEST(CompiledDecoder, MatchesLayoutDecode)
{
    XorShiftRng rng(7);
    for (const AddressLayout &layout :
         {AddressLayout::hynixGddr5(), AddressLayout::stacked3d()}) {
        const CompiledDecoder dec(layout);
        for (int i = 0; i < 5000; ++i) {
            const Addr a = rng.next() & bits::mask(layout.addrBits);
            const DramCoord slow = layout.decode(a);
            const DramCoord fast = dec.decode(a);
            ASSERT_EQ(fast.channel, slow.channel) << a;
            ASSERT_EQ(fast.bank, slow.bank) << a;
            ASSERT_EQ(fast.row, slow.row) << a;
            ASSERT_EQ(fast.column, slow.column) << a;
        }
    }
}

TEST(AddressMapper, MapUsesCompiledPath)
{
    // mapper.map must equal the naive matrix apply for every scheme —
    // the mapper freezes its matrix at construction.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    XorShiftRng rng(11);
    for (const std::string &s : mapping::paperMappers()) {
        const auto m = mapping::makeMapper(s, layout, 5);
        for (int i = 0; i < 1000; ++i) {
            const Addr a = rng.next() & bits::mask(30);
            ASSERT_EQ(m->map(a), m->matrix().apply(a));
        }
    }
}
