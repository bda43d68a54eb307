/**
 * @file
 * Differential oracle: the legacy `Scheme` enum path and the
 * registry spec path must be bit-identical — same BIM matrices on
 * every layout preset, same serialized `RunResult`s on every Table II
 * workload (and synth specs), same grid cells — and the new layout
 * presets must run end to end, searched mappers included.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "mapping/address_mapper.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "workloads/workload.hh"
#include "workloads/workload_set.hh"

using namespace valley;

namespace {

/**
 * Every oracle run uses a private cache directory: the enum and spec
 * paths must agree through the cache too (same keys, same hits), and
 * the developer's real cache must stay untouched.
 */
class MapperOracle : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("valley_oracle_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        setenv("VALLEY_CACHE_DIR", dir.c_str(), 1);
        unsetenv("VALLEY_CACHE");
        harness::resultCache().resetForTesting();
    }

    void
    TearDown() override
    {
        unsetenv("VALLEY_CACHE_DIR");
        harness::resultCache().resetForTesting();
        std::filesystem::remove_all(dir);
    }

    std::filesystem::path dir;
};

/** The small scale every oracle simulation runs at. */
constexpr double kScale = 0.05;

} // namespace

TEST(MapperOracleMatrix, EnumAndSpecBuildIdenticalBimsOnEveryLayout)
{
    // The heart of the refactor: for every layout preset, every
    // buildable scheme and several seeds, `makeScheme` (legacy) and
    // `makeMapper(schemeSpec(s))` (registry) produce the same matrix
    // and the same display name.
    for (const auto *org : mapping::layoutPresets()) {
        const AddressLayout layout = mapping::makeLayout(org->key);
        for (Scheme s : allSchemes()) {
            for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
                const auto legacy =
                    mapping::makeScheme(s, layout, seed);
                const auto spec = mapping::makeMapper(
                    mapping::schemeSpec(s), layout, seed);
                EXPECT_TRUE(legacy->matrix() == spec->matrix())
                    << org->key << " " << schemeName(s) << " seed "
                    << seed;
                EXPECT_EQ(legacy->name(), spec->name());
                EXPECT_TRUE(spec->matrix().invertible());
            }
        }
        // The non-enum families are invertible everywhere too.
        const auto mop = mapping::makeMapper("map:mop", layout);
        EXPECT_TRUE(mop->matrix().invertible()) << org->key;
    }
}

TEST(MapperOracleMatrix, SearchedSchemesThrowInBothPaths)
{
    const AddressLayout l = AddressLayout::hynixGddr5();
    for (Scheme s : {Scheme::SBIM, Scheme::GBIM}) {
        EXPECT_THROW(mapping::makeScheme(s, l),
                     std::invalid_argument);
        EXPECT_THROW(
            mapping::makeMapper(mapping::schemeSpec(s), l),
            std::invalid_argument);
    }
}

TEST_F(MapperOracle, RunResultsBitIdenticalOnEveryTableIIWorkload)
{
    // All 16 Table II workloads under PM: the enum cell must
    // serialize byte-identically to the spec cell, and the spec cell
    // must be a cache hit of the enum cell (same v5 key).
    const SimConfig cfg = SimConfig::paperBaseline();
    for (const std::string &w : workloads::allSet()) {
        const RunResult a = harness::runOneCached(
            cfg, mapping::schemeSpec(Scheme::PM), w, kScale, 1);
        const RunResult b =
            harness::runOneCached(cfg, "map:pm", w, kScale, 1);
        EXPECT_EQ(harness::serializeResult(a),
                  harness::serializeResult(b))
            << w;
    }
}

TEST_F(MapperOracle, RunResultsBitIdenticalAcrossSchemesAndSynthSpecs)
{
    const SimConfig cfg = SimConfig::paperBaseline();
    // Every buildable scheme on one workload...
    for (Scheme s : allSchemes()) {
        const RunResult a = harness::runOneCached(
            cfg, mapping::schemeSpec(s), "MT", kScale, 1);
        const RunResult b = harness::runOneCached(
            cfg, mapping::schemeSpec(s), "MT", kScale, 1);
        EXPECT_EQ(harness::serializeResult(a),
                  harness::serializeResult(b))
            << schemeName(s);
    }
    // ...and a synth-spec workload (both grammars at once).
    const RunResult a = harness::runOneCached(
        cfg, mapping::schemeSpec(Scheme::PAE), "synth:stencil3d", kScale,
        1);
    const RunResult b = harness::runOneCached(
        cfg, "map:pae", "synth:stencil3d", kScale, 1);
    EXPECT_EQ(harness::serializeResult(a),
              harness::serializeResult(b));
}

TEST_F(MapperOracle, GridCellsBitIdenticalAcrossEnumAndSpecAxes)
{
    harness::GridOptions enum_axis;
    enum_axis.workloads = {"MT", "LU"};
    enum_axis.schemes = {Scheme::BASE, Scheme::PM, Scheme::PAE};
    enum_axis.scale = kScale;
    enum_axis.threads = 1;
    enum_axis.useCache = true;

    harness::GridOptions spec_axis = enum_axis;
    spec_axis.schemes.clear();
    spec_axis.mappers = {"map:base", "map:pm", "map:pae"};

    const harness::Grid ge = harness::runGrid(enum_axis);
    const harness::Grid gs = harness::runGrid(spec_axis);

    for (const std::string &w : {std::string("MT"),
                                 std::string("LU")}) {
        for (Scheme s : {Scheme::BASE, Scheme::PM, Scheme::PAE}) {
            // Enum lookup on the enum grid == spec lookup on the
            // spec grid — and the cross lookups agree too, because
            // the enum axis *is* the spec axis after normalization.
            EXPECT_EQ(harness::serializeResult(ge.at(w, s)),
                      harness::serializeResult(gs.at(
                          w, mapping::schemeSpec(s))))
                << w << " " << schemeName(s);
            EXPECT_EQ(harness::serializeResult(ge.at(
                          w, mapping::schemeSpec(s))),
                      harness::serializeResult(gs.at(w, s)));
        }
        EXPECT_EQ(ge.speedup(w, Scheme::PM),
                  gs.speedup(w, "map:pm"));
    }
    // Both spellings produced one normalized mapper axis.
    EXPECT_EQ(ge.options().mappers, gs.options().mappers);
}

TEST_F(MapperOracle, NewPresetsProduceInvertibleSearchedMappers)
{
    // SBIM/GBIM on each new hardware preset: the search must return
    // an invertible matrix whose mapping round-trips.
    for (const char *key : {"hbm2_4gb", "ddr4_4gb", "gddr6_2gb"}) {
        const AddressLayout layout = mapping::makeLayout(key);
        search::SearchOptions so = search::defaultOptions(layout);
        so.threads = 1;
        so.restarts = 1;
        so.iterations = 120;

        const auto sbim = search::setMapper(
            layout, workloads::WorkloadSet({"MT"}), so, kScale);
        EXPECT_EQ(sbim->name(), "SBIM") << key;
        ASSERT_TRUE(sbim->matrix().invertible()) << key;
        const auto gbim = search::setMapper(
            layout, workloads::WorkloadSet({"MT", "LU"}), so, kScale,
            "GBIM");
        EXPECT_EQ(gbim->name(), "GBIM") << key;
        ASSERT_TRUE(gbim->matrix().invertible()) << key;

        const auto inv = sbim->matrix().inverse();
        ASSERT_TRUE(inv.has_value()) << key;
        XorShiftRng rng(7);
        const std::uint64_t mask =
            (std::uint64_t{1} << layout.addrBits) - 1;
        for (int i = 0; i < 200; ++i) {
            const Addr a = rng.next() & mask;
            EXPECT_EQ(inv->apply(sbim->map(a)), a);
        }
    }
}

TEST_F(MapperOracle, LayoutAxisSweepsNewPresetsEndToEnd)
{
    // The layout becomes a grid axis: one grid per preset, each with
    // its own identity, each producing usable normalized metrics.
    harness::GridOptions o;
    o.workloads = {"MT"};
    o.mappers = {"map:base", "map:pm"};
    o.layouts = {"hbm2_4gb", "layout:ddr4_4gb", "gddr6_2gb"};
    o.scale = kScale;
    o.threads = 1;

    const auto grids = harness::runGrids(o);
    ASSERT_EQ(grids.size(), 3u);
    EXPECT_EQ(grids[0].layout, "layout:hbm2_4gb");
    EXPECT_EQ(grids[1].layout, "layout:ddr4_4gb");
    EXPECT_EQ(grids[2].layout, "layout:gddr6_2gb");
    for (const auto &lg : grids) {
        const RunResult &base = lg.grid.at("MT", "map:base");
        EXPECT_GT(base.cycles, 0u) << lg.layout;
        EXPECT_EQ(base.scheme, "BASE") << lg.layout;
        EXPECT_GT(lg.grid.speedup("MT", "map:pm"), 0.0) << lg.layout;
        EXPECT_FALSE(lg.grid.report().degraded()) << lg.layout;
    }
}
