/**
 * @file
 * Seeded mutation fuzz tests of the one spec grammar
 * (`common/spec.hh`), the registries and workload sets built on it,
 * and the result-cache record codec.
 *
 * A fixed-seed `XorShiftRng` mutates a corpus of valid inputs: every
 * `synth:` and `map:` family with all of its parameters written out,
 * the layout keys, mixed comma lists, and encoded result-cache
 * records. Mutations insert, delete or replace a byte drawn from the
 * grammar's separators, digits and letters, or replace a whole value
 * with one sitting on an integer or float bound. Every
 * spec entry point must return or throw `std::invalid_argument`;
 * anything else (another exception type, or a crash the sanitizer
 * build reports) fails the test. Every spec that resolves must have a
 * canonical form that resolves to itself with the same hash and holds
 * none of the cache-key separators. A cache file is input from
 * outside the program, so `deserializeResult` must never throw: it
 * returns nothing, or a value whose encoding decodes back to the same
 * encoding.
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
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "synth/registry.hh"
#include "workloads/workload_set.hh"

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
    for (const mapping::MapperFamily &f : mapping::mapperFamilies()) {
        std::string s = mapping::MapperFamily::kPrefix + f.name;
        // The one required parameter is perm's order.
        for (const spec::Param &p : f.params)
            s += "," + p.key + "=" + (p.def.empty() ? "RoCoBaCh" : p.def);
        c.push_back(s);
    }
    for (const mapping::DramOrganization &org : mapping::layoutPresets()) {
        c.push_back(org.key);
        c.push_back(mapping::kLayoutPrefix + org.key);
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

/** Replace the value after a random '=' with one on a bound. */
void
swapSpecValue(std::string &s, XorShiftRng &rng)
{
    std::vector<std::size_t> eqs;
    for (std::size_t i = 0; i < s.size(); ++i)
        if (s[i] == '=')
            eqs.push_back(i);
    if (eqs.empty())
        return;
    const std::size_t eq = eqs[rng.below(eqs.size())];
    const std::size_t end = s.find(',', eq);
    s.replace(eq + 1, (end == std::string::npos ? s.size() : end) - eq - 1,
              kValues[rng.below(std::size(kValues))]);
}

/** Bytes a mutation writes into an encoded cache payload. */
constexpr std::string_view kPayloadAlphabet = " 0123456789-+.eEabcdefx|";

/** Hostile whole fields: a negative count, 2^64, a huge double, NaN,
 * stray hex and a denormal. */
const char *const kPayloadValues[] = {
    "-1", "18446744073709551616", "1e308", "nan", "0x1f", "ff", "1e-320",
};

/** Replace a random space-separated payload field. */
void
swapPayloadField(std::string &s, XorShiftRng &rng)
{
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < s.size(); ++i)
        if (s[i] == ' ')
            starts.push_back(i + 1);
    const std::size_t at = starts[rng.below(starts.size())];
    const std::size_t end = s.find(' ', at);
    s.replace(at, (end == std::string::npos ? s.size() : end) - at,
              kPayloadValues[rng.below(std::size(kPayloadValues))]);
}

/**
 * One or two mutations of `s`: insert, delete or replace a byte from
 * `alphabet`, or swap a whole value with `swap`.
 */
std::string
mutate(std::string s, XorShiftRng &rng,
       std::string_view alphabet = kAlphabet,
       void (*swap)(std::string &, XorShiftRng &) = swapSpecValue)
{
    for (unsigned n = 1 + rng.below(2); n > 0; --n) {
        const std::size_t pos = rng.below(s.size() + 1);
        const char byte = alphabet[rng.below(alphabet.size())];
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
        default:
            swap(s, rng);
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

namespace {

/**
 * Decode `text` as a result record: nothing, or a value whose
 * encoding decodes back to the same encoding. Returns whether it
 * decoded.
 */
bool
decodesToFixedPoint(const std::string &text)
{
    const auto v = harness::deserializeResult(text);
    if (!v)
        return false;
    const std::string enc = harness::serializeResult(*v);
    const auto again = harness::deserializeResult(enc);
    EXPECT_TRUE(again.has_value()) << "\"" << text << "\" -> " << enc;
    if (again)
        EXPECT_EQ(harness::serializeResult(*again), enc)
            << "\"" << text << "\"";
    return true;
}

} // namespace

TEST(SpecFuzz, MutatedCacheRecordsAndWorkloadSetsDecodeOrReject)
{
    RunResult zero;
    zero.workload = "MT";
    zero.scheme = "BASE";
    RunResult r;
    r.workload = "synth:stream";
    r.scheme = "PAE";
    r.cycles = 0xfeedbeef;
    r.seconds = 1.0 / 3.0;
    r.llcMissRate = 0.91829583405448945;
    r.systemPowerW = 5e-324; // denormal
    const std::string results[] = {harness::serializeResult(zero),
                                   harness::serializeResult(r)};

    const std::string lists[] = {
        "MT,synth:stream,wr=0.75,n=4096,LU",
        "synth:hash_shuffle,fmb=64,tbs=32,synth:tiled2d,order=row",
        "GS,NW,synth:stencil3d,n=16",
    };

    XorShiftRng rng(0xC0DEC5ull);
    unsigned decoded = 0, parsed = 0;
    for (unsigned i = 0; i < kMutants / 4; ++i) {
        const std::string rt = mutate(results[rng.below(2)], rng,
                                      kPayloadAlphabet, swapPayloadField);
        const std::string lt = mutate(lists[rng.below(std::size(lists))], rng);
        try {
            decoded += decodesToFixedPoint(rt);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "a decode threw " << e.what() << ": \"" << rt
                          << "\"";
        }
        try {
            const workloads::WorkloadSet set =
                workloads::WorkloadSet::parse(lt);
            ++parsed;
            const workloads::WorkloadSet rebuilt(set.members());
            EXPECT_EQ(rebuilt.key(), set.key()) << "\"" << lt << "\"";
            EXPECT_EQ(rebuilt.hash(), set.hash()) << "\"" << lt << "\"";
        } catch (const std::invalid_argument &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << "\"" << lt << "\" threw " << e.what();
        }
    }
    // The mutants must keep reaching the decoder's success path.
    EXPECT_GT(decoded, kMutants / 100);
    EXPECT_GT(parsed, kMutants / 100);
}
