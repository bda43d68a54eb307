/**
 * @file
 * Mapper oracles: golden row hashes pin the BIM every built-in family
 * draws on every layout preset, a cold simulation serializes
 * byte-identically to its cache hit, spellings of one mapper share
 * one grid axis, and the non-GDDR5 presets run end to end, searched
 * mappers included.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/fnv.hh"
#include "common/metrics.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "workloads/workload.hh"
#include "workloads/workload_set.hh"

using namespace valley;

namespace {

/**
 * Every oracle run uses a private cache directory, so cold runs are
 * really cold and the developer's real cache stays untouched.
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

/** One pinned matrix: FNV-1a over its rows (`rowHash`). */
struct GoldenBim
{
    const char *layout;
    const char *spec;
    std::uint64_t seed; ///< 0: the family ignores the seed
    const char *rowHash;
};

/**
 * Every built-in BIM family on every layout preset. Cached results
 * depend on these draws (through each family's seed tag and draw
 * order), so a mismatch here silently invalidates every cached cell.
 */
const GoldenBim kGoldenBims[] = {
    {"gddr5_1gb", "map:base", 0, "c48e8f84555dc8c1"},
    {"gddr5_1gb", "map:pm", 0, "22de0b341e6408ed"},
    {"gddr5_1gb", "map:rmp", 0, "3b5c085354be84a1"},
    {"gddr5_1gb", "map:pae", 1, "8d96ae7114891a85"},
    {"gddr5_1gb", "map:pae", 2, "47987db31fd30a5e"},
    {"gddr5_1gb", "map:pae", 3, "4e8208c8bb35a594"},
    {"gddr5_1gb", "map:fae", 1, "fc3e59bed3c1595e"},
    {"gddr5_1gb", "map:fae", 2, "cba8e09a82f59f4d"},
    {"gddr5_1gb", "map:fae", 3, "5898775c537c39a5"},
    {"gddr5_1gb", "map:all", 1, "7946dd147411b294"},
    {"gddr5_1gb", "map:all", 2, "e3c639abb24297eb"},
    {"gddr5_1gb", "map:all", 3, "8d5af0a1a6989121"},
    {"gddr5_1gb", "map:mop", 0, "f2bc90efab25df85"},
    {"stacked3d_4gb", "map:base", 0, "992d71a5cf9711c1"},
    {"stacked3d_4gb", "map:pm", 0, "323e5760b801dcb8"},
    {"stacked3d_4gb", "map:rmp", 0, "865b76a82cd09261"},
    {"stacked3d_4gb", "map:pae", 1, "9a47d20d1041e309"},
    {"stacked3d_4gb", "map:pae", 2, "245518ec105212d7"},
    {"stacked3d_4gb", "map:pae", 3, "d82d9dda1f04a9d5"},
    {"stacked3d_4gb", "map:fae", 1, "70dd4f3bf07fe169"},
    {"stacked3d_4gb", "map:fae", 2, "95f92499fc3218b7"},
    {"stacked3d_4gb", "map:fae", 3, "a77ef264fcd6b699"},
    {"stacked3d_4gb", "map:all", 1, "86e50a002e296039"},
    {"stacked3d_4gb", "map:all", 2, "52058583a4c8e8b7"},
    {"stacked3d_4gb", "map:all", 3, "848f58461143ff94"},
    {"stacked3d_4gb", "map:mop", 0, "c9d7a578edc6851d"},
    {"hbm2_4gb", "map:base", 0, "992d71a5cf9711c1"},
    {"hbm2_4gb", "map:pm", 0, "77cb69c0d92163bc"},
    {"hbm2_4gb", "map:rmp", 0, "6299066406f52e61"},
    {"hbm2_4gb", "map:pae", 1, "b10e17869b8b43fa"},
    {"hbm2_4gb", "map:pae", 2, "413576c8f4e7da78"},
    {"hbm2_4gb", "map:pae", 3, "e2ef40647b0c4c12"},
    {"hbm2_4gb", "map:fae", 1, "c66bfeedccdbd7fc"},
    {"hbm2_4gb", "map:fae", 2, "2cb6ddbbefdaa5fa"},
    {"hbm2_4gb", "map:fae", 3, "e7f2c1eda6c07820"},
    {"hbm2_4gb", "map:all", 1, "86e50a002e296039"},
    {"hbm2_4gb", "map:all", 2, "52058583a4c8e8b7"},
    {"hbm2_4gb", "map:all", 3, "848f58461143ff94"},
    {"hbm2_4gb", "map:mop", 0, "451f964768e94251"},
    {"ddr4_4gb", "map:base", 0, "992d71a5cf9711c1"},
    {"ddr4_4gb", "map:pm", 0, "ca3803ff6906546d"},
    {"ddr4_4gb", "map:rmp", 0, "e0ca375560b33dc1"},
    {"ddr4_4gb", "map:pae", 1, "1865bfd2caddf5ff"},
    {"ddr4_4gb", "map:pae", 2, "41de23813204b8b3"},
    {"ddr4_4gb", "map:pae", 3, "f8a5aab5123e605e"},
    {"ddr4_4gb", "map:fae", 1, "9eaa726975546902"},
    {"ddr4_4gb", "map:fae", 2, "6c6f35e3ea670d3f"},
    {"ddr4_4gb", "map:fae", 3, "d8b4883cd6d48af1"},
    {"ddr4_4gb", "map:all", 1, "86e50a002e296039"},
    {"ddr4_4gb", "map:all", 2, "52058583a4c8e8b7"},
    {"ddr4_4gb", "map:all", 3, "848f58461143ff94"},
    {"ddr4_4gb", "map:mop", 0, "1dfe77f4d3ddf685"},
    {"gddr6_2gb", "map:base", 0, "19d9684bbf731221"},
    {"gddr6_2gb", "map:pm", 0, "52e28af418e20fcd"},
    {"gddr6_2gb", "map:rmp", 0, "f6a14db3dcd84d41"},
    {"gddr6_2gb", "map:pae", 1, "6adec242ab0e9265"},
    {"gddr6_2gb", "map:pae", 2, "57938200fd87f31e"},
    {"gddr6_2gb", "map:pae", 3, "718c2ecf009fb314"},
    {"gddr6_2gb", "map:fae", 1, "906bcb6de7a4a09e"},
    {"gddr6_2gb", "map:fae", 2, "2cc605dd86c5dd2d"},
    {"gddr6_2gb", "map:fae", 3, "ab7f2bd15d197745"},
    {"gddr6_2gb", "map:all", 1, "82a934fe4158760d"},
    {"gddr6_2gb", "map:all", 2, "41a70f6ddda40d0c"},
    {"gddr6_2gb", "map:all", 3, "3f2df559fc07acae"},
    {"gddr6_2gb", "map:mop", 0, "9fe2ad828dcea965"},
};

/** FNV-1a folded over the row masks, as 16 hex digits. */
std::string
rowHash(const BitMatrix &bim)
{
    std::uint64_t h = bits::kFnvOffsetBasis;
    for (unsigned r = 0; r < bim.size(); ++r)
        h = bits::fnv1aU64(h, bim.row(r));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

TEST(MapperOracleMatrix, GoldenBimsOnEveryLayout)
{
    // Per preset: 4 seed-free families once, 3 seeded ones x 3 seeds.
    EXPECT_EQ(std::size(kGoldenBims), 13 * mapping::layoutPresets().size());
    for (const GoldenBim &g : kGoldenBims) {
        const AddressLayout layout = mapping::makeLayout(g.layout);
        const std::vector<std::uint64_t> seeds =
            g.seed ? std::vector<std::uint64_t>{g.seed}
                   : std::vector<std::uint64_t>{1, 2, 3};
        for (std::uint64_t seed : seeds) {
            const auto m = mapping::makeMapper(g.spec, layout, seed);
            EXPECT_EQ(rowHash(m->matrix()), g.rowHash)
                << g.layout << " " << g.spec << " seed " << seed;
            EXPECT_TRUE(m->matrix().invertible())
                << g.layout << " " << g.spec << " seed " << seed;
        }
    }
}

TEST_F(MapperOracle, RunResultsBitIdenticalBetweenColdRunAndCacheHit)
{
    // All 16 Table II workloads under PM, the six paper mappers on
    // MT and a synth-spec workload under PAE: the second call must be
    // a cache hit that serializes byte-identically to the cold run.
    std::vector<std::pair<std::string, std::string>> cells;
    for (const std::string &w : workloads::allSet())
        cells.emplace_back(mapping::kPm, w);
    for (const std::string &m : mapping::paperMappers())
        cells.emplace_back(m, "MT");
    cells.emplace_back(mapping::kPae, "synth:stencil3d");

    const SimConfig cfg = SimConfig::paperBaseline();
    const metrics::Counter &hits = metrics::counter("cache.result.hits");
    for (const auto &[mapper, w] : cells) {
        const RunResult cold =
            harness::runOneCached(cfg, mapper, w, kScale, 1);
        const std::uint64_t hits_before = hits.value();
        const RunResult hit =
            harness::runOneCached(cfg, mapper, w, kScale, 1);
        EXPECT_EQ(hits.value(), hits_before + 1) << mapper << " " << w;
        EXPECT_EQ(harness::serializeResult(cold),
                  harness::serializeResult(hit))
            << mapper << " " << w;
    }
}

TEST_F(MapperOracle, SpellingsOfOneMapperShareOneGridAxis)
{
    harness::GridOptions spelled;
    spelled.workloads = {"MT", "LU"};
    spelled.mappers = {mapping::kBase, "map:pae,seed=0"};
    spelled.scale = kScale;
    spelled.threads = 1;
    spelled.useCache = true;

    harness::GridOptions canonical = spelled;
    canonical.mappers = {mapping::kBase, mapping::kPae};

    const harness::Grid gs = harness::runGrid(spelled);
    const harness::Grid gc = harness::runGrid(canonical);

    EXPECT_EQ(gs.options().mappers, gc.options().mappers);
    for (const std::string &w : {std::string("MT"),
                                 std::string("LU")}) {
        for (const std::string &m : gc.options().mappers)
            EXPECT_EQ(harness::serializeResult(gs.at(w, m)),
                      harness::serializeResult(gc.at(w, m)))
                << w << " " << m;
        EXPECT_EQ(gs.speedup(w, "map:pae,seed=0"),
                  gc.speedup(w, mapping::kPae));
    }
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
