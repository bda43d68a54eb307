/**
 * @file
 * Tests for the declarative layout registry
 * (`mapping/layout_registry`): the presets derive bit-for-bit the
 * legacy hard-coded layouts, organizations are validated, unknown
 * keys diagnose with the preset list, and the preset table holds
 * valid keys in a pinned order, each a well-formed partition of its
 * address space.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hh"
#include "mapping/address_layout.hh"
#include "mapping/layout_registry.hh"

using namespace valley;
using mapping::DramOrganization;
using mapping::FieldKind;
using mapping::OrgField;

namespace {

/** Exception message of a throwing callable (fails if it returns). */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected std::invalid_argument";
    return "";
}

void
expectField(const BitField &f, unsigned lo, unsigned width,
            const char *what)
{
    EXPECT_EQ(f.lo, lo) << what;
    EXPECT_EQ(f.width, width) << what;
}

} // namespace

TEST(LayoutRegistry, Gddr5PresetMatchesThePaperFig4Positions)
{
    // The positions the seed hard-coded from the paper's text: the
    // BASE valley covers channel bits 8-9 and bank bit 10; RMP's
    // donors are bits 8-11, 15 and 16.
    const AddressLayout l = mapping::makeLayout("gddr5_1gb");
    EXPECT_EQ(l.addrBits, 30u);
    expectField(l.block, 0, 6, "block");
    expectField(l.colLo, 6, 2, "colLo");
    expectField(l.channel, 8, 2, "channel");
    expectField(l.bank, 10, 4, "bank");
    expectField(l.colHi, 14, 4, "colHi");
    expectField(l.row, 18, 12, "row");
    EXPECT_EQ(l.vault.width, 0u);
    EXPECT_EQ(l.spec, "layout:gddr5_1gb");
}

TEST(LayoutRegistry, Stacked3dPresetMatchesTheLegacyConstructor)
{
    const AddressLayout l = mapping::makeLayout("stacked3d_4gb");
    EXPECT_EQ(l.addrBits, 32u);
    expectField(l.block, 0, 6, "block");
    expectField(l.colLo, 6, 2, "colLo");
    expectField(l.channel, 8, 2, "channel (stack select)");
    expectField(l.vault, 10, 4, "vault");
    expectField(l.bank, 14, 4, "bank");
    expectField(l.colHi, 18, 4, "colHi");
    expectField(l.row, 22, 10, "row");
}

TEST(LayoutRegistry, LegacyConstructorsDelegateToThePresets)
{
    // hynixGddr5/stacked3d and the registry can never drift: they ARE
    // the presets now.
    const AddressLayout a = AddressLayout::hynixGddr5();
    const AddressLayout b = mapping::makeLayout("layout:gddr5_1gb");
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.addrBits, b.addrBits);
    EXPECT_EQ(a.row.lo, b.row.lo);
    EXPECT_EQ(AddressLayout::stacked3d().spec,
              "layout:stacked3d_4gb");
}

TEST(LayoutRegistry, EveryPresetPartitionsItsAddressSpace)
{
    // The table's invariants: valid keys in the pinned order, and
    // fields that tile [0, addrBits) exactly — pairwise disjoint,
    // jointly covering.
    const char *const order[] = {"gddr5_1gb", "stacked3d_4gb", "hbm2_4gb",
                                 "ddr4_4gb", "gddr6_2gb"};
    const std::vector<DramOrganization> &table = mapping::layoutPresets();
    ASSERT_EQ(table.size(), std::size(order));
    for (std::size_t i = 0; i < table.size(); ++i) {
        const DramOrganization &org = table[i];
        EXPECT_EQ(org.key, order[i]);
        EXPECT_TRUE(spec::validKey(org.key)) << org.key;
        const AddressLayout l = mapping::makeLayout(org.key);
        std::uint64_t seen = 0;
        for (const BitField *f :
             {&l.block, &l.colLo, &l.channel, &l.vault, &l.bank,
              &l.colHi, &l.row}) {
            const std::uint64_t m = f->positionMask();
            EXPECT_EQ(seen & m, 0u) << org.key << ": overlap";
            seen |= m;
        }
        ASSERT_LT(l.addrBits, 64u);
        EXPECT_EQ(seen, (std::uint64_t{1} << l.addrBits) - 1)
            << org.key << ": fields must cover the address";
        EXPECT_GE(l.channel.width + l.vault.width, 1u) << org.key;
        EXPECT_GE(l.bank.width, 1u) << org.key;
        EXPECT_EQ(l.spec, "layout:" + org.key);
        EXPECT_EQ(mapping::layoutIdentity(l), l.spec);
        EXPECT_EQ(mapping::findLayoutPreset(org.key), &org);
    }
}

TEST(LayoutRegistry, SpecAndBareKeySpellAreEquivalent)
{
    EXPECT_EQ(mapping::canonicalLayoutSpec("hbm2_4gb"),
              "layout:hbm2_4gb");
    EXPECT_EQ(mapping::canonicalLayoutSpec("layout:hbm2_4gb"),
              "layout:hbm2_4gb");
    const AddressLayout a = mapping::makeLayout("hbm2_4gb");
    const AddressLayout b = mapping::makeLayout("layout:hbm2_4gb");
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.addrBits, b.addrBits);
}

TEST(LayoutRegistry, UnknownKeyDiagnosticListsRegisteredKeys)
{
    EXPECT_EQ(errorOf([] { mapping::makeLayout("nosuch"); }),
              "unknown layout 'nosuch': registered layouts are "
              "gddr5_1gb, stacked3d_4gb, hbm2_4gb, ddr4_4gb, gddr6_2gb");
}

TEST(LayoutRegistry, MalformedOrganizationsAreRejected)
{
    const auto org = [](std::vector<OrgField> fields) {
        DramOrganization o;
        o.key = "zzbadorg";
        o.displayName = "bad";
        o.summary = "bad";
        o.fields = std::move(fields);
        return o;
    };
    // Missing Row.
    EXPECT_THROW(mapping::layoutFromOrganization(
                     org({{FieldKind::Block, 6},
                          {FieldKind::Channel, 2},
                          {FieldKind::Bank, 4}})),
                 std::invalid_argument);
    // Duplicate Channel.
    EXPECT_THROW(mapping::layoutFromOrganization(
                     org({{FieldKind::Block, 6},
                          {FieldKind::Channel, 2},
                          {FieldKind::Channel, 2},
                          {FieldKind::Bank, 4},
                          {FieldKind::Row, 12}})),
                 std::invalid_argument);
    // Zero-width field.
    EXPECT_THROW(mapping::layoutFromOrganization(
                     org({{FieldKind::Block, 0},
                          {FieldKind::Channel, 2},
                          {FieldKind::Bank, 4},
                          {FieldKind::Row, 12}})),
                 std::invalid_argument);
}

TEST(LayoutRegistry, HandAssembledLayoutsKeyOnTheirName)
{
    // A layout built without the registry has no spec; its cache
    // identity falls back to the (escaped) free-form name.
    AddressLayout l = AddressLayout::hynixGddr5();
    l.spec.clear();
    l.name = "custom,layout";
    EXPECT_EQ(mapping::layoutIdentity(l), "custom%2Clayout");
}
