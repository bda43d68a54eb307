/**
 * @file
 * Tests for the one spec grammar (`common/spec.hh`) that `synth:`
 * workloads and `map:` mappers share: parsing in written order,
 * malformed-spec rejection under both prefixes, diagnostics that name
 * the offending spec for grammar and schema errors from both
 * registries, the comma-list splitter of the CLIs and
 * `WorkloadSet::parse`, and the number rules (`parseU64`, `parseF64`)
 * that spec values and the CLIs' numeric flags share.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hh"
#include "mapping/mapper_registry.hh"
#include "synth/registry.hh"

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

} // namespace

TEST(Spec, ParseKeepsFamilyAndParamsInWrittenOrder)
{
    const auto s =
        spec::Spec::parse("synth:", "synth:stencil3d,n=96,halo=1");
    EXPECT_EQ(s.family, "stencil3d");
    ASSERT_EQ(s.params.size(), 2u);
    EXPECT_EQ(s.params[0].first, "n");
    EXPECT_EQ(s.params[0].second, "96");
    EXPECT_EQ(s.params[1].first, "halo");
    ASSERT_NE(s.find("halo"), nullptr);
    EXPECT_EQ(*s.find("halo"), "1");
    EXPECT_EQ(s.find("scale"), nullptr);

    const auto m = spec::Spec::parse("map:", "map:perm,order=RoCoBaCh");
    EXPECT_EQ(m.family, "perm");
    ASSERT_EQ(m.params.size(), 1u);
    EXPECT_EQ(m.params[0].first, "order");
    EXPECT_EQ(m.params[0].second, "RoCoBaCh");
}

TEST(Spec, RejectsMalformedSpecsUnderBothPrefixes)
{
    for (const std::string prefix : {"synth:", "map:"}) {
        for (const std::string bad :
             {"", "st encil", "stream,n", "stream,n=", "stream,=4",
              "stream,n=1,n=2", "Stream", "stream,N=1"})
            EXPECT_THROW(spec::Spec::parse(prefix, prefix + bad),
                         std::invalid_argument)
                << prefix + bad;
        // A spec under the other prefix, or none, is not this kind.
        EXPECT_THROW(spec::Spec::parse(prefix, "stencil3d"),
                     std::invalid_argument);
    }
    EXPECT_THROW(spec::Spec::parse("synth:", "map:pae"),
                 std::invalid_argument);
}

TEST(Spec, ErrorsCarryTheOffendingSpec)
{
    // Grammar errors, under both prefixes: every diagnostic names the
    // spec it was parsing.
    for (const std::string prefix : {"synth:", "map:"})
        for (const std::string tail :
             {"", "PAE", "pae,seed", "pae,=1", "pae,seed=1,seed=2",
              "pae,,seed=1"}) {
            const std::string bad = prefix + tail;
            const std::string msg =
                errorOf([&] { spec::Spec::parse(prefix, bad); });
            EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos)
                << msg;
        }
    EXPECT_NE(errorOf([] { spec::Spec::parse("map:", "pae"); })
                  .find("'pae'"),
              std::string::npos);

    // Schema errors from both registries: unknown family or key, a
    // value of the wrong kind, a failed validator, a missing required
    // parameter, and synth's shared range checks.
    for (const std::string bad :
         {"synth:nope", "synth:stream,bogus=1", "synth:stream,n=abc",
          "synth:stream,ipr=nan", "synth:tiled2d,order=diag",
          "synth:stream,warps=64", "synth:stream,gap=70000",
          "synth:stream,n=4294967296"}) {
        const std::string msg = errorOf([&] { synth::resolve(bad); });
        EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos) << msg;
    }
    // A parameter combination the generator rejects.
    for (const std::string bad :
         {"synth:stream,ipt=0", "synth:stencil3d,nx=100"}) {
        const std::string msg = errorOf([&] { synth::make(bad, 1.0); });
        EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos) << msg;
    }
    for (const std::string bad :
         {"map:nosuch", "map:pae,bogus=1", "map:perm",
          "map:pae,seed=abc", "map:perm,order=RoXx"}) {
        const std::string msg =
            errorOf([&] { mapping::resolveMapperSpec(bad); });
        EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos) << msg;
    }
}

TEST(Spec, SplitListPreservesInputOrder)
{
    const auto raw =
        spec::splitList("MT,synth:hash_shuffle,fmb=64,LU");
    ASSERT_EQ(raw.size(), 3u);
    EXPECT_EQ(raw[0], "MT");
    EXPECT_EQ(raw[1], "synth:hash_shuffle,fmb=64");
    EXPECT_EQ(raw[2], "LU");
}

TEST(Spec, SplitListGluesParametersOntoTheirSpec)
{
    // The same rule for every list a CLI takes: workloads, mappers
    // and layouts.
    EXPECT_EQ(spec::splitList("MT,synth:stream,wr=0.75"),
              (std::vector<std::string>{"MT", "synth:stream,wr=0.75"}));
    EXPECT_EQ(spec::splitList("BASE,map:pae,seed=3,map:perm,"
                              "order=RoCoBaCh"),
              (std::vector<std::string>{"BASE", "map:pae,seed=3",
                                        "map:perm,order=RoCoBaCh"}));
    EXPECT_EQ(spec::splitList("gddr5_1gb,layout:hbm2_4gb"),
              (std::vector<std::string>{"gddr5_1gb", "layout:hbm2_4gb"}));
    // Empty fragments name no member.
    EXPECT_EQ(spec::splitList(",MT,,synth:stream,,wr=1,"),
              (std::vector<std::string>{"MT", "synth:stream,wr=1"}));
    EXPECT_TRUE(spec::splitList("").empty());

    // A parameter with no spec before it to attach to.
    for (const char *bad : {"wr=0.75", "wr=0.75,MT", "MT,wr=0.75",
                            "BASE,seed=3"}) {
        const std::string msg = errorOf([&] { spec::splitList(bad); });
        EXPECT_NE(msg.find(bad), std::string::npos) << msg;
    }
}

TEST(Spec, ValidKeyIsLowercaseDigitsAndUnderscore)
{
    EXPECT_TRUE(spec::validKey("hash_shuffle"));
    EXPECT_TRUE(spec::validKey("gddr5_1gb"));
    for (const char *bad : {"", "Stream", "a-b", "a b", "a:b", "a=b"})
        EXPECT_FALSE(spec::validKey(bad)) << bad;
}

TEST(Spec, ParseU64TakesOnlyDigitsThatFitIn64Bits)
{
    EXPECT_EQ(spec::parseU64("0"), 0u);
    EXPECT_EQ(spec::parseU64("3"), 3u);
    EXPECT_EQ(spec::parseU64("007"), 7u);
    EXPECT_EQ(spec::parseU64("18446744073709551615"),
              std::uint64_t{18446744073709551615ull});
    for (const char *bad :
         {"10ms", "x", "", "-1", "+3", " 3", "3 ", "18446744073709551616",
          "nan", "inf", "1e309", "1.5", "0x10"})
        EXPECT_FALSE(spec::parseU64(bad)) << "'" << bad << "'";
}

TEST(Spec, ParseF64TakesOnlyOneWholeFiniteReal)
{
    EXPECT_EQ(spec::parseF64("0.25"), 0.25);
    EXPECT_EQ(spec::parseF64("-1"), -1.0);
    EXPECT_EQ(spec::parseF64("1e3"), 1000.0);
    EXPECT_EQ(spec::parseF64("18446744073709551616"),
              18446744073709551616.0);
    // strtod's own lexing: a sign and leading whitespace are part of
    // a number; anything left over after it is not.
    EXPECT_EQ(spec::parseF64("+3"), 3.0);
    EXPECT_EQ(spec::parseF64(" 3"), 3.0);
    for (const char *bad :
         {"10ms", "x", "", "3 ", "nan", "inf", "-inf", "1e309", "0.5x"})
        EXPECT_FALSE(spec::parseF64(bad)) << "'" << bad << "'";
}
