/**
 * @file
 * Tests for `workloads::WorkloadSet`: canonical order-insensitive
 * identity (members sorted/deduplicated, synth specs canonicalized),
 * the `--set`-style parser including synth specs with comma
 * parameters, and the `escapeSpecField` escaping that keeps spec
 * strings safe inside the one-line-per-entry cache CSVs.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "workloads/workload_set.hh"

using namespace valley;
using workloads::WorkloadSet;
using workloads::escapeSpecField;

TEST(EscapeSpecField, EscapesSeparatorsInjectively)
{
    EXPECT_EQ(escapeSpecField("MT"), "MT");
    EXPECT_EQ(escapeSpecField("a,b"), "a%2Cb");
    EXPECT_EQ(escapeSpecField("a;b"), "a%3Bb");
    EXPECT_EQ(escapeSpecField("a|b"), "a%7Cb");
    EXPECT_EQ(escapeSpecField("a\nb"), "a%0Ab");
    EXPECT_EQ(escapeSpecField("a\rb"), "a%0Db");
    // '%' itself escapes, so escaping is injective: the escaped form
    // of a literal "%2C" differs from the escape of ",".
    EXPECT_EQ(escapeSpecField("a%2Cb"), "a%252Cb");
    EXPECT_NE(escapeSpecField("a%2Cb"), escapeSpecField("a,b"));
    // No separator characters survive.
    const std::string e =
        escapeSpecField("synth:hash_shuffle,fmb=64,tbs=32");
    EXPECT_EQ(e.find(','), std::string::npos);
    EXPECT_EQ(e.find('\n'), std::string::npos);
}

TEST(WorkloadSet, IdentityIsOrderInsensitive)
{
    const WorkloadSet a({"MT", "LU", "GS"});
    const WorkloadSet b({"GS", "MT", "LU"});
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.members(), b.members());
    EXPECT_EQ(a.shortId(), b.shortId());
    // Sorted member order is the defining order.
    EXPECT_EQ(a.members(),
              (std::vector<std::string>{"GS", "LU", "MT"}));
}

TEST(WorkloadSet, DeduplicatesAndCanonicalizesSynthSpecs)
{
    // Reordered synth parameters resolve to one canonical spec, so
    // the two spellings are the same member — and the duplicate "MT"
    // collapses.
    const WorkloadSet a(
        {"MT", "MT", "synth:hash_shuffle,fmb=64,tbs=32"});
    const WorkloadSet b({"synth:hash_shuffle,tbs=32,fmb=64", "MT"});
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(WorkloadSet, DistinctSetsGetDistinctIdentity)
{
    const WorkloadSet a({"MT", "LU"});
    const WorkloadSet b({"MT", "GS"});
    const WorkloadSet c({"MT"});
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_NE(a.hash(), b.hash());
}

TEST(WorkloadSet, RejectsEmptyAndUnknownMembers)
{
    EXPECT_THROW(WorkloadSet({}), std::invalid_argument);
    EXPECT_THROW(WorkloadSet({"NOPE"}), std::invalid_argument);
    EXPECT_THROW(WorkloadSet({"synth:not_a_family"}),
                 std::invalid_argument);
}

TEST(WorkloadSet, ParseReattachesSynthParameters)
{
    // "fmb=64" / "tbs=32" are parameters of the preceding synth
    // member, not members themselves.
    const WorkloadSet s = WorkloadSet::parse(
        "MT,synth:hash_shuffle,fmb=64,tbs=32,LU");
    EXPECT_EQ(s.size(), 3u);
    const WorkloadSet expect(
        {"MT", "LU", "synth:hash_shuffle,fmb=64,tbs=32"});
    EXPECT_EQ(s.key(), expect.key());
}

TEST(WorkloadSet, ParseRejectsDanglingParameters)
{
    // A key=value fragment with no synth member to attach to.
    EXPECT_THROW(WorkloadSet::parse("fmb=64,MT"),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSet::parse("MT,fmb=64"),
                 std::invalid_argument);
}

TEST(WorkloadSet, BuildsEveryMemberInCanonicalOrder)
{
    const WorkloadSet s({"LU", "synth:strided", "MT"});
    const auto wls = s.build(0.25);
    ASSERT_EQ(wls.size(), 3u);
    for (std::size_t i = 0; i < wls.size(); ++i)
        EXPECT_EQ(wls[i]->info().abbrev, s.members()[i]);
    // Canonical (sorted) order, not construction order.
    EXPECT_EQ(wls[0]->info().abbrev, "LU");
    EXPECT_EQ(wls[1]->info().abbrev, "MT");
    EXPECT_EQ(wls[2]->info().abbrev, "synth:strided");
}
