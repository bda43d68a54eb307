/**
 * @file
 * Seeded mutation fuzz test of the one spec grammar
 * (`common/spec.hh`) and the registries built on it.
 *
 * A fixed-seed `XorShiftRng` mutates a corpus of valid inputs: every
 * `synth:` and `map:` family with all of its parameters written out,
 * the layout keys, and mixed comma lists. Mutations insert, delete or
 * replace a byte drawn from the grammar's separators, digits and
 * letters, or replace a whole value with one sitting on an integer or
 * float bound. Every entry point must return or throw
 * `std::invalid_argument`; anything else (another exception type, or
 * a crash the sanitizer build reports) fails the test. Every spec
 * that resolves must have a canonical form that resolves to itself
 * with the same hash and holds none of the cache-key separators.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "common/spec.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "synth/registry.hh"

using namespace valley;

namespace {

constexpr unsigned kMutants = 40000;

std::vector<std::string>
corpus()
{
    std::vector<std::string> c;
    for (const synth::FamilyInfo &f : synth::families()) {
        std::string s = synth::FamilyInfo::kPrefix + f.name;
        for (const spec::Param &p : f.params)
            s += "," + p.key + "=" + p.def;
        c.push_back(s);
    }
    for (const mapping::MapperFamily *f : mapping::mapperFamilies()) {
        std::string s = mapping::MapperFamily::kPrefix + f->name;
        // The one required parameter is perm's order.
        for (const spec::Param &p : f->params)
            s += "," + p.key + "=" + (p.def.empty() ? "RoCoBaCh" : p.def);
        c.push_back(s);
    }
    for (const mapping::DramOrganization *org : mapping::layoutPresets()) {
        c.push_back(org->key);
        c.push_back(mapping::kLayoutPrefix + org->key);
    }
    c.push_back("MT,synth:stream,wr=0.75,n=4096,LU");
    c.push_back("BASE,map:pae,seed=3,map:perm,order=RoCoBaCh,FAE");
    c.push_back("synth:hash_shuffle,fmb=64,tbs=32,synth:tiled2d,order=row");
    c.push_back("gddr5_1gb,layout:hbm2_4gb,stacked3d_4gb");
    return c;
}

/** Bytes a mutation inserts or writes. */
constexpr std::string_view kAlphabet =
    ",=:|;%\n0123456789-.eabcdfghijklmnopqrstuvwxyzABCDRoChVa_";

/** Whole values on the bounds of the integer and float kinds. */
const char *const kValues[] = {
    "0",          "1",
    "65535",      "65536",
    "4294967295", "4294967296",
    "18446744073709551615", "18446744073709551616",
    "-1",         "nan",
    "inf",        "1e308",
};

std::string
mutate(std::string s, XorShiftRng &rng)
{
    for (unsigned n = 1 + rng.below(2); n > 0; --n) {
        const std::size_t pos = rng.below(s.size() + 1);
        const char byte = kAlphabet[rng.below(kAlphabet.size())];
        switch (rng.below(4)) {
        case 0:
            s.insert(pos, 1, byte);
            break;
        case 1:
            if (pos < s.size())
                s.erase(pos, 1);
            break;
        case 2:
            if (pos < s.size())
                s[pos] = byte;
            break;
        default: {
            std::vector<std::size_t> eqs;
            for (std::size_t i = 0; i < s.size(); ++i)
                if (s[i] == '=')
                    eqs.push_back(i);
            if (eqs.empty())
                break;
            const std::size_t eq = eqs[rng.below(eqs.size())];
            const std::size_t end = s.find(',', eq);
            s.replace(eq + 1,
                      (end == std::string::npos ? s.size() : end) - eq - 1,
                      kValues[rng.below(std::size(kValues))]);
        }
        }
    }
    return s;
}

/** Run `fn`, treating `std::invalid_argument` as a clean rejection. */
template <typename Fn>
void
returnsOrRejects(Fn &&fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &) {
    }
}

/** `resolve(text)`, or nothing when it rejects the spec. */
template <typename Resolve>
auto
resolved(Resolve resolve, const std::string &text)
    -> std::optional<decltype(resolve(text))>
{
    try {
        return resolve(text);
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    }
}

/** The canonical form is a separator-free fixed point. */
template <typename Resolved, typename Resolve>
void
expectCanonicalFixedPoint(const std::string &text, const Resolved &r,
                          Resolve resolve)
{
    const std::string canon = r.canonical();
    EXPECT_EQ(canon.find_first_of("|;%\n\r"), std::string::npos)
        << "\"" << text << "\" -> \"" << canon << "\"";
    const auto again = resolve(canon);
    EXPECT_EQ(again.canonical(), canon) << "\"" << text << "\"";
    EXPECT_EQ(again.hash(), r.hash()) << "\"" << text << "\"";
}

} // namespace

TEST(SpecFuzz, MutantsResolveOrThrowInvalidArgument)
{
    const std::vector<std::string> seeds = corpus();
    XorShiftRng rng(0x5EC0F022ull);
    unsigned synth_ok = 0, mapper_ok = 0, made = 0;
    for (unsigned i = 0; i < kMutants; ++i) {
        const std::string text =
            mutate(seeds[rng.below(seeds.size())], rng);
        try {
            returnsOrRejects([&] { spec::splitList(text); });
            returnsOrRejects([&] { mapping::canonicalLayoutSpec(text); });
            if (const auto r = resolved(synth::resolve, text)) {
                ++synth_ok;
                expectCanonicalFixedPoint(text, *r, synth::resolve);
                returnsOrRejects([&] {
                    synth::make(text, 0.05);
                    ++made;
                });
            }
            if (const auto r = resolved(mapping::resolveMapperSpec, text)) {
                ++mapper_ok;
                expectCanonicalFixedPoint(text, *r,
                                          mapping::resolveMapperSpec);
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "\"" << text << "\" threw " << e.what();
        }
    }
    // The mutants must keep reaching the resolvers and generators,
    // or the test checks nothing.
    EXPECT_GT(synth_ok, kMutants / 100);
    EXPECT_GT(mapper_ok, kMutants / 100);
    EXPECT_GT(made, kMutants / 200);
}
