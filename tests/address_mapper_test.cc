/**
 * @file
 * Unit and property tests for the paper's six address mappers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "mapping/mapper_registry.hh"

using namespace valley;

namespace {

const AddressLayout &
gddr5()
{
    static const AddressLayout l = AddressLayout::hynixGddr5();
    return l;
}

} // namespace

TEST(PaperMappers, PresentationOrder)
{
    const auto &order = mapping::paperMappers();
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(mapping::displayName(order[0]), "BASE");
    EXPECT_EQ(mapping::displayName(order[1]), "PM");
    EXPECT_EQ(mapping::displayName(order[2]), "RMP");
    EXPECT_EQ(mapping::displayName(order[3]), "PAE");
    EXPECT_EQ(mapping::displayName(order[4]), "FAE");
    EXPECT_EQ(mapping::displayName(order[5]), "ALL");
}

TEST(BaseScheme, IsIdentity)
{
    const auto m = mapping::makeMapper(mapping::kBase, gddr5());
    XorShiftRng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & bits::mask(30);
        EXPECT_EQ(m->map(a), a);
    }
    EXPECT_EQ(m->remapLatency(), 0u);
}

TEST(PmScheme, OnlyChannelAndBankBitsChange)
{
    const auto m = mapping::makeMapper(mapping::kPm, gddr5());
    XorShiftRng rng(2);
    const std::uint64_t target_mask = bits::mask(6) << 8; // bits 8-13
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & bits::mask(30);
        EXPECT_EQ(m->map(a) & ~target_mask, a & ~target_mask);
    }
}

TEST(PmScheme, XorsLowRowBits)
{
    const auto m = mapping::makeMapper(mapping::kPm, gddr5());
    // Flipping row bit 18 must flip exactly one target bit (bit 8) in
    // the output, since PM donors are the LSB row bits in order.
    const Addr base = 0;
    const Addr flipped = Addr{1} << 18;
    const Addr diff = m->map(base) ^ m->map(flipped);
    EXPECT_EQ(diff, (Addr{1} << 18) | (Addr{1} << 8));
}

TEST(PmScheme, MatrixRowsHaveTwoTaps)
{
    // Fig. 6c: PM rows for target bits have exactly two ones.
    const auto m = mapping::makeMapper(mapping::kPm, gddr5());
    for (unsigned t : gddr5().randomizeTargets())
        EXPECT_EQ(std::popcount(m->matrix().row(t)), 2);
}

TEST(RmpScheme, RoutesGlobalTopEntropyBitsToChannelBank)
{
    // RMP's donors are the suite's top-6 average-entropy bits (11-16,
    // per the Section IV-B methodology applied to our workload set);
    // they land in the channel/bank positions 8-13 in order.
    const auto m = mapping::makeMapper(mapping::kRmp, gddr5());
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(m->map(Addr{1} << (11 + i)), Addr{1} << (8 + i));
    // Displaced inputs 8..10 reappear at the vacated outputs 14..16.
    EXPECT_EQ(m->map(Addr{1} << 8), Addr{1} << 14);
    EXPECT_EQ(m->map(Addr{1} << 9), Addr{1} << 15);
    EXPECT_EQ(m->map(Addr{1} << 10), Addr{1} << 16);
    // Permutation matrix: every row has a single tap.
    EXPECT_EQ(m->matrix().xorGateCount(), 0u);
}

TEST(PaeScheme, ReadsOnlyPageBitsWritesOnlyChBank)
{
    const auto m = mapping::makeMapper(mapping::kPae, gddr5(), 1);
    const auto targets = gddr5().randomizeTargets();
    const std::uint64_t page = gddr5().pageMask();
    for (unsigned t = 0; t < 30; ++t) {
        const bool is_target =
            std::find(targets.begin(), targets.end(), t) != targets.end();
        if (is_target) {
            EXPECT_EQ(m->matrix().row(t) & ~page, 0u) << "bit " << t;
        } else {
            EXPECT_TRUE(m->matrix().rowIsIdentity(t)) << "bit " << t;
        }
    }
}

TEST(PaeScheme, ColumnBitsNeverAffectOutput)
{
    // PAE must keep requests within a DRAM page on the same page:
    // changing only column/block bits never changes channel/bank/row.
    const auto m = mapping::makeMapper(mapping::kPae, gddr5(), 1);
    XorShiftRng rng(3);
    const std::uint64_t page = gddr5().pageMask();
    for (int i = 0; i < 300; ++i) {
        const Addr base = rng.next() & bits::mask(30) & page;
        const DramCoord c0 = m->coordOf(base);
        for (int j = 0; j < 20; ++j) {
            const Addr col_noise =
                rng.next() & (gddr5().columnMask() | bits::mask(6));
            const DramCoord c = m->coordOf(base | col_noise);
            EXPECT_EQ(c.channel, c0.channel);
            EXPECT_EQ(c.bank, c0.bank);
            EXPECT_EQ(c.row, c0.row);
        }
    }
}

TEST(FaeScheme, ColumnBitsDoAffectChannelBank)
{
    // FAE harvests column entropy, so some column bit must influence
    // the channel/bank selection — the row-locality cost the paper
    // reports (Fig. 15).
    const auto m = mapping::makeMapper(mapping::kFae, gddr5(), 1);
    bool any_column_tap = false;
    for (unsigned t : gddr5().randomizeTargets())
        any_column_tap |=
            (m->matrix().row(t) & gddr5().columnMask()) != 0;
    EXPECT_TRUE(any_column_tap);
    // But FAE still only rewrites channel/bank bits.
    XorShiftRng rng(4);
    const std::uint64_t target_mask = bits::mask(6) << 8;
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & bits::mask(30);
        EXPECT_EQ(m->map(a) & ~target_mask, a & ~target_mask);
    }
}

TEST(AllScheme, RewritesRowAndColumnBitsToo)
{
    const auto m = mapping::makeMapper(mapping::kAll, gddr5(), 1);
    unsigned non_identity_rows = 0;
    for (unsigned b = 6; b < 30; ++b)
        non_identity_rows += !m->matrix().rowIsIdentity(b);
    // All 24 non-block rows are random; overwhelmingly unlikely that
    // any collapses to identity, but require at least row+col changes.
    EXPECT_GT(non_identity_rows, 12u);
}

TEST(AllSchemesP, BlockBitsAlwaysPreserved)
{
    for (const std::string &s : mapping::paperMappers()) {
        const auto m = mapping::makeMapper(s, gddr5(), 1);
        XorShiftRng rng(5);
        for (int i = 0; i < 500; ++i) {
            const Addr a = rng.next() & bits::mask(30);
            EXPECT_EQ(m->map(a) & bits::mask(6), a & bits::mask(6))
                << s;
        }
    }
}

TEST(AllSchemesP, BijectiveOnRandomSample)
{
    for (const std::string &s : mapping::paperMappers()) {
        const auto m = mapping::makeMapper(s, gddr5(), 2);
        const auto inv = m->matrix().inverse();
        ASSERT_TRUE(inv.has_value()) << s;
        XorShiftRng rng(6);
        for (int i = 0; i < 2000; ++i) {
            const Addr a = rng.next() & bits::mask(30);
            EXPECT_EQ(inv->apply(m->map(a)), a) << s;
        }
    }
}

TEST(AllSchemesP, RemapLatencyOneCycleExceptBase)
{
    for (const std::string &s : mapping::paperMappers()) {
        const auto m = mapping::makeMapper(s, gddr5(), 1);
        if (s == mapping::kBase || s == mapping::kRmp) {
            // Pure wire permutations need no XOR gates.
            EXPECT_EQ(m->matrix().xorGateCount(), 0u);
        } else {
            EXPECT_EQ(m->remapLatency(), 1u) << s;
        }
    }
}

TEST(AllSchemesP, SingleCycleXorTreeDepth)
{
    // The paper's single-cycle budget: tree depth must stay tiny
    // (< 6 levels of 2-input XORs even for ALL).
    for (const std::string &s : mapping::paperMappers()) {
        const auto m = mapping::makeMapper(s, gddr5(), 1);
        EXPECT_LE(m->matrix().xorTreeDepth(), 5u) << s;
    }
}

TEST(BroadSchemes, DifferentSeedsGiveDifferentBims)
{
    for (const char *s : {mapping::kPae, mapping::kFae, mapping::kAll}) {
        const auto m1 = mapping::makeMapper(s, gddr5(), 1);
        const auto m2 = mapping::makeMapper(s, gddr5(), 2);
        const auto m3 = mapping::makeMapper(s, gddr5(), 3);
        EXPECT_FALSE(m1->matrix() == m2->matrix()) << s;
        EXPECT_FALSE(m2->matrix() == m3->matrix()) << s;
        // Same seed reproduces the same BIM.
        const auto m1b = mapping::makeMapper(s, gddr5(), 1);
        EXPECT_TRUE(m1->matrix() == m1b->matrix()) << s;
    }
}

TEST(Schemes3d, TargetsCoverStackVaultBank)
{
    const AddressLayout l = AddressLayout::stacked3d();
    for (const char *s : {mapping::kPae, mapping::kFae, mapping::kAll}) {
        const auto m = mapping::makeMapper(s, l, 1);
        EXPECT_TRUE(m->matrix().invertible());
        // 10 randomized bits (2 ch + 4 vault + 4 bank).
        unsigned randomized = 0;
        for (unsigned t : l.randomizeTargets())
            randomized += !m->matrix().rowIsIdentity(t);
        EXPECT_GE(randomized, 9u) << s;
    }
    // PM and RMP build too.
    EXPECT_NO_THROW(mapping::makeMapper(mapping::kPm, l));
    EXPECT_NO_THROW(mapping::makeMapper(mapping::kRmp, l));
}

TEST(Mapper, CoordOfUsesMappedAddress)
{
    const auto base = mapping::makeMapper(mapping::kBase, gddr5());
    const Addr a = (Addr{3} << 8) | (Addr{9} << 10); // ch 3, bank 9
    const DramCoord c = base->coordOf(a);
    EXPECT_EQ(c.channel, 3u);
    EXPECT_EQ(c.bank, 9u);

    const auto rmp = mapping::makeMapper(mapping::kRmp, gddr5());
    // Input bit 15 routed to output bit 12 (bank bit 2).
    const DramCoord cr = rmp->coordOf(Addr{1} << 15);
    EXPECT_EQ(cr.bank, 4u);
    EXPECT_EQ(cr.channel, 0u);
}

TEST(Mapper, CustomBimWrapping)
{
    BitMatrix m = BitMatrix::identity(30);
    m.set(8, 20, true); // channel bit harvests one row bit
    const auto mapper = std::make_unique<AddressMapper>("MY", gddr5(), m);
    EXPECT_EQ(mapper->name(), "MY");
    EXPECT_EQ(mapper->map(Addr{1} << 20),
              (Addr{1} << 20) | (Addr{1} << 8));
}

TEST(Mapper, RejectsSingularBim)
{
    BitMatrix m = BitMatrix::identity(30);
    m.setRow(8, 0);
    EXPECT_THROW(AddressMapper("BAD", gddr5(), m), std::invalid_argument);
}

TEST(Mapper, RejectsSizeMismatch)
{
    EXPECT_THROW(AddressMapper("BAD", gddr5(), BitMatrix::identity(16)),
                 std::invalid_argument);
}

TEST(MinimalistOpenPage, RoutesLowestRowBitsToChannelBank)
{
    const auto m = mapping::makeMapper("map:mop", gddr5());
    EXPECT_EQ(m->name(), "MOP");
    // Row bits 18..23 land in the channel/bank positions 8..13.
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(m->map(Addr{1} << (18 + i)), Addr{1} << (8 + i));
    // Pure permutation, bijective.
    EXPECT_EQ(m->matrix().xorGateCount(), 0u);
    EXPECT_TRUE(m->matrix().invertible());
}

TEST(MinimalistOpenPage, ConsecutivePagesInterleaveAcrossChannels)
{
    // The scheme's design goal: page-sized strides hit different
    // channels/banks (good for CPU streams).
    const auto m = mapping::makeMapper("map:mop", gddr5());
    std::set<unsigned> channels;
    for (unsigned page = 0; page < 8; ++page)
        channels.insert(
            m->coordOf(Addr{page} << 18).channel);
    EXPECT_EQ(channels.size(), 4u);
}

TEST(Schemes, ChannelSpreadOnPathologicalColumnMajorStream)
{
    // The Fig. 2 scenario: a column-major TB whose addresses differ
    // only in high-order bits all land on channel 0 under BASE; Broad
    // schemes must spread them over all 4 channels.
    const std::uint64_t stride = 1u << 17; // touches colHi+row bits only
    std::vector<Addr> addrs;
    for (int i = 0; i < 64; ++i)
        addrs.push_back(static_cast<Addr>(i) * stride);

    const auto count_channels = [&](const AddressMapper &m) {
        std::set<unsigned> chans;
        for (Addr a : addrs)
            chans.insert(m.coordOf(a).channel);
        return chans.size();
    };

    const auto base = mapping::makeMapper(mapping::kBase, gddr5());
    const auto pae = mapping::makeMapper(mapping::kPae, gddr5(), 1);
    const auto fae = mapping::makeMapper(mapping::kFae, gddr5(), 1);
    EXPECT_EQ(count_channels(*base), 1u);
    EXPECT_EQ(count_channels(*pae), 4u);
    EXPECT_EQ(count_channels(*fae), 4u);
}
