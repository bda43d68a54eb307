/**
 * @file
 * Tests for the string-keyed mapper registry
 * (`mapping/mapper_registry`): canonical forms and hash stability,
 * schema validation diagnostics (unknown family/parameter listing
 * the registered keys), duplicate
 * registration rejection, and the pinned spec, display name and
 * seed tag of every built-in family.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapping/address_layout.hh"
#include "mapping/mapper_registry.hh"

using namespace valley;

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

/** A minimal valid family for registration-path tests. */
mapping::MapperFamily
probeFamily(const std::string &name)
{
    mapping::MapperFamily f;
    f.name = name;
    f.summary = "test probe";
    f.seedTag = 900;
    f.displayName = [](const mapping::ResolvedMapperSpec &) {
        return std::string("PROBE");
    };
    f.build = [](const mapping::ResolvedMapperSpec &,
                 const AddressLayout &l, XorShiftRng &) {
        return BitMatrix::identity(l.addrBits);
    };
    return f;
}

} // namespace

TEST(MapperRegistry, BuiltinFamiliesAreRegistered)
{
    // The builtin TU must survive static-archive linking (the anchor
    // regression): every family the harness depends on is present.
    for (const char *name : {"base", "pm", "rmp", "pae", "fae", "all",
                             "sbim", "gbim", "mop", "perm"}) {
        const auto *f = mapping::findMapperFamily(name);
        ASSERT_NE(f, nullptr) << name;
        EXPECT_EQ(f->name, name);
    }
    EXPECT_EQ(mapping::findMapperFamily("nosuch"), nullptr);
}

TEST(MapperRegistry, CanonicalFormOmitsDefaultsAndNormalizesInts)
{
    EXPECT_EQ(mapping::canonicalMapperSpec("map:pae"), "map:pae");
    // Default-valued parameters are dropped from the canonical form.
    EXPECT_EQ(mapping::canonicalMapperSpec("map:pae,seed=0"),
              "map:pae");
    // U64 values are parsed and reprinted, so spellings converge.
    EXPECT_EQ(mapping::canonicalMapperSpec("map:pae,seed=007"),
              "map:pae,seed=7");
    EXPECT_EQ(mapping::canonicalMapperSpec("map:perm,order=RoCoBaCh"),
              "map:perm,order=RoCoBaCh");
    // Canonicalization is idempotent.
    const std::string c =
        mapping::canonicalMapperSpec("map:all,seed=12");
    EXPECT_EQ(mapping::canonicalMapperSpec(c), c);
}

TEST(MapperRegistry, HashIsStableAcrossSpellingsAndDistinctAcrossSpecs)
{
    const auto h = [](const std::string &s) {
        return mapping::resolveMapperSpec(s).hash();
    };
    EXPECT_EQ(h("map:pae"), h("map:pae,seed=0"));
    EXPECT_EQ(h("map:pae,seed=3"), h("map:pae,seed=03"));
    EXPECT_NE(h("map:pae"), h("map:fae"));
    EXPECT_NE(h("map:pae,seed=1"), h("map:pae,seed=2"));
    EXPECT_NE(h("map:perm,order=RoCoBaCh"),
              h("map:perm,order=RoCoChBa"));
}

TEST(MapperRegistry, UnknownFamilyDiagnosticListsRegisteredFamilies)
{
    const std::string msg = errorOf(
        [] { mapping::resolveMapperSpec("map:nosuch"); });
    EXPECT_NE(msg.find("unknown family 'nosuch'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("registered families are"), std::string::npos);
    for (const char *name : {"base", "pm", "sbim", "perm"})
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
}

TEST(MapperRegistry, UnknownParameterDiagnosticListsKnownKeys)
{
    const std::string msg = errorOf(
        [] { mapping::resolveMapperSpec("map:pae,bogus=1"); });
    EXPECT_NE(msg.find("no parameter 'bogus'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("seed"), std::string::npos) << msg;
}

TEST(MapperRegistry, RequiredParameterMustBeGiven)
{
    const std::string msg =
        errorOf([] { mapping::resolveMapperSpec("map:perm"); });
    EXPECT_NE(msg.find("requires parameter"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("order"), std::string::npos) << msg;
}

TEST(MapperRegistry, ValueValidationRejectsGarbage)
{
    // Non-numeric U64 value.
    EXPECT_THROW(mapping::resolveMapperSpec("map:pae,seed=abc"),
                 std::invalid_argument);
    EXPECT_THROW(mapping::resolveMapperSpec("map:pae,seed=1x"),
                 std::invalid_argument);
    // Digits only: a sign or whitespace must not wrap or be skipped.
    EXPECT_THROW(mapping::resolveMapperSpec("map:pae,seed=-1"),
                 std::invalid_argument);
    EXPECT_THROW(mapping::resolveMapperSpec("map:pae,seed=+3"),
                 std::invalid_argument);
    EXPECT_THROW(mapping::resolveMapperSpec("map:pae,seed= 3"),
                 std::invalid_argument);
    // The perm order validator: unknown and duplicate field tokens.
    EXPECT_THROW(mapping::resolveMapperSpec("map:perm,order=RoXx"),
                 std::invalid_argument);
    EXPECT_THROW(mapping::resolveMapperSpec("map:perm,order=RoRoCo"),
                 std::invalid_argument);
}

TEST(MapperRegistry, DuplicateRegistrationIsRejected)
{
    mapping::registerMapper(probeFamily("zzdupprobe"));
    const std::string msg = errorOf(
        [] { mapping::registerMapper(probeFamily("zzdupprobe")); });
    EXPECT_NE(msg.find("zzdupprobe"), std::string::npos) << msg;
    // The first registration stays usable.
    EXPECT_NE(mapping::findMapperFamily("zzdupprobe"), nullptr);
}

TEST(MapperRegistry, MalformedFamiliesAreRejected)
{
    auto bad_name = probeFamily("ZZ-Bad");
    EXPECT_THROW(mapping::registerMapper(std::move(bad_name)),
                 std::invalid_argument);
    auto no_build = probeFamily("zznobuild");
    no_build.build = nullptr;
    EXPECT_THROW(mapping::registerMapper(std::move(no_build)),
                 std::invalid_argument);
}

TEST(MapperRegistry, BuiltinFamiliesPinSpecDisplayNameAndSeedTag)
{
    // The display name is the RunResult::scheme label and the seed
    // tag seeds every BIM draw; both reach the on-disk caches.
    struct Pin
    {
        const char *spec;
        const char *name;
        std::uint64_t seedTag;
    };
    const Pin pins[] = {
        {"map:base", "BASE", 0}, {"map:pm", "PM", 1},
        {"map:rmp", "RMP", 2},   {"map:pae", "PAE", 3},
        {"map:fae", "FAE", 4},   {"map:all", "ALL", 5},
        {"map:sbim", "SBIM", 6}, {"map:gbim", "GBIM", 7},
    };
    const std::vector<std::string> constants = {
        mapping::kBase, mapping::kPm,  mapping::kRmp,  mapping::kPae,
        mapping::kFae,  mapping::kAll, mapping::kSbim, mapping::kGbim};
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        const Pin &p = pins[i];
        const auto r = mapping::resolveMapperSpec(p.spec);
        EXPECT_EQ(r.canonical(), p.spec);
        EXPECT_EQ(constants[i], p.spec);
        EXPECT_EQ(mapping::displayName(p.spec), p.name);
        EXPECT_EQ(r.family().seedTag, p.seedTag) << p.spec;
    }
}

TEST(MapperRegistry, DisplayNamesAreJournalSafe)
{
    // Display names land in space-separated result rows and
    // '|'-separated cache records; none of the reserved characters
    // may appear.
    for (const auto *f : mapping::mapperFamilies()) {
        std::string spec = "map:" + f->name;
        if (f->name == "perm")
            spec += ",order=RoCoBaCh";
        const auto r = mapping::resolveMapperSpec(spec);
        const std::string label = f->displayName(r);
        EXPECT_FALSE(label.empty()) << f->name;
        EXPECT_EQ(label.find_first_of(" \t,;|%\n\r"),
                  std::string::npos)
            << f->name << ": " << label;
    }
}

TEST(MapperRegistry, SpecSeedOverridesCallerSeed)
{
    const AddressLayout l = AddressLayout::hynixGddr5();
    const auto pinned = mapping::makeMapper("map:pae,seed=3", l, 1);
    const auto caller = mapping::makeMapper("map:pae", l, 3);
    EXPECT_TRUE(pinned->matrix() == caller->matrix());
    // seed=0 inherits the caller seed instead.
    const auto inherit = mapping::makeMapper("map:pae,seed=0", l, 5);
    const auto five = mapping::makeMapper("map:pae", l, 5);
    EXPECT_TRUE(inherit->matrix() == five->matrix());
}

TEST(MapperRegistry, ProfileDrivenFamiliesRefuseMakeMapper)
{
    const AddressLayout l = AddressLayout::hynixGddr5();
    for (const char *spec : {"map:sbim", "map:gbim"}) {
        const std::string msg = errorOf(
            [&] { mapping::makeMapper(spec, l); });
        EXPECT_NE(msg.find("search"), std::string::npos) << msg;
    }
}
