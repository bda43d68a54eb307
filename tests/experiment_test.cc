/**
 * @file
 * Tests for the experiment harness (grid running + normalization) and
 * an end-to-end reproduction sanity check at reduced scale.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "workloads/profiler.hh"

using namespace valley;
using namespace valley::harness;

namespace {

/** Shared small grid: one valley workload, three schemes. */
const Grid &
smallGrid()
{
    static const Grid grid = [] {
        GridOptions o;
        o.workloads = {"SC", "GS"};
        o.mappers = {mapping::kBase, mapping::kPm, mapping::kFae};
        o.scale = 0.5;
        return runGrid(std::move(o));
    }();
    return grid;
}

} // namespace

TEST(Harness, RunOneProducesLabeledResult)
{
    const RunResult r =
        runOne(SimConfig::paperBaseline(), "map:pae", "GS", 0.25, 1);
    EXPECT_EQ(r.workload, "GS");
    EXPECT_EQ(r.scheme, "PAE");
    EXPECT_GT(r.cycles, 0u);
}

TEST(Harness, GridShapeAndLookup)
{
    const Grid &g = smallGrid();
    EXPECT_EQ(g.options().workloads.size(), 2u);
    EXPECT_EQ(g.at("SC", mapping::kBase).workload, "SC");
    EXPECT_EQ(g.at("GS", mapping::kFae).scheme, "FAE");
    EXPECT_THROW(g.at("XXX", mapping::kBase), std::out_of_range);
    EXPECT_THROW(g.at("SC", mapping::kAll), std::out_of_range);
}

TEST(Harness, BaseNormalizationsAreOne)
{
    const Grid &g = smallGrid();
    for (const auto &w : g.options().workloads) {
        EXPECT_DOUBLE_EQ(g.speedup(w, mapping::kBase), 1.0);
        EXPECT_DOUBLE_EQ(g.dramPowerNorm(w, mapping::kBase), 1.0);
        EXPECT_DOUBLE_EQ(g.systemPowerNorm(w, mapping::kBase), 1.0);
        EXPECT_DOUBLE_EQ(g.perfPerWattNorm(w, mapping::kBase), 1.0);
    }
    EXPECT_DOUBLE_EQ(g.hmeanSpeedup(mapping::kBase), 1.0);
}

TEST(Harness, SpeedupIsTimeRatio)
{
    const Grid &g = smallGrid();
    const double expected = g.at("SC", mapping::kBase).seconds /
                            g.at("SC", mapping::kFae).seconds;
    EXPECT_DOUBLE_EQ(g.speedup("SC", mapping::kFae), expected);
}

TEST(Harness, PerfPerWattConsistency)
{
    const Grid &g = smallGrid();
    const double sp = g.speedup("SC", mapping::kFae);
    const double pw = g.systemPowerNorm("SC", mapping::kFae);
    EXPECT_NEAR(g.perfPerWattNorm("SC", mapping::kFae), sp / pw, 1e-9);
}

TEST(Harness, MeanHelpers)
{
    const Grid &g = smallGrid();
    const double m = g.mean(mapping::kBase, [](const RunResult &r) {
        return r.llcMissRate;
    });
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
    EXPECT_GT(g.meanDramPowerNorm(mapping::kFae), 0.0);
    EXPECT_GT(g.hmeanPerfPerWattNorm(mapping::kFae), 0.0);
    EXPECT_NEAR(g.meanExecTimeNorm(mapping::kBase), 1.0, 1e-12);
}

TEST(Harness, ReproductionShapeAtReducedScale)
{
    // End-to-end: even at half scale, FAE must beat BASE on the
    // valley workload SC and leave the random-access workload MUM
    // essentially untouched (paper Figs. 12 & 20).
    GridOptions o;
    o.workloads = {"SC", "MUM"};
    o.mappers = {mapping::kBase, mapping::kFae};
    o.scale = 0.5;
    const Grid g = runGrid(std::move(o));
    EXPECT_GT(g.speedup("SC", mapping::kFae), 1.3);
    EXPECT_NEAR(g.speedup("MUM", mapping::kFae), 1.0, 0.1);
}

TEST(Harness, ParallelGridBitIdenticalToSerial)
{
    // Each cell is an independent, deterministically seeded
    // simulation, so the threaded grid must reproduce the serial one
    // exactly — including every derived power/parallelism metric.
    GridOptions o;
    o.workloads = {"SC", "GS"};
    o.mappers = {mapping::kBase, mapping::kFae};
    o.scale = 0.25;

    GridOptions serial = o;
    serial.threads = 1;
    const Grid gs = runGrid(std::move(serial));

    GridOptions parallel = o;
    parallel.threads = 4;
    const Grid gp = runGrid(std::move(parallel));

    for (const auto &w : o.workloads)
        for (const std::string &s : o.mappers)
            EXPECT_TRUE(gs.at(w, s) == gp.at(w, s))
                << w << "/" << s;
}

TEST(Harness, MapperNamedTwiceOnTheAxisIsRejected)
{
    // Two spellings of one mapper share a cell identity: the grid
    // would simulate, cache and report that cell twice. The axis
    // must be rejected, naming the canonical spec, before any cell
    // runs.
    GridOptions o;
    o.workloads = {"SC"};
    o.mappers = {"map:pae", "map:pae,seed=0", mapping::kBase};
    o.scale = 0.05;
    try {
        normalizeGridAxes(o);
        ADD_FAILURE() << "a repeated mapper must be rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("map:pae"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(runGrid(o), std::invalid_argument);
}

TEST(Harness, BimSeedChangesBroadSchemeResults)
{
    // Fig. 19: different BIMs give (slightly) different results; the
    // run must at least be wired through to the generator.
    const RunResult a =
        runOne(SimConfig::paperBaseline(), "map:pae", "GS", 0.25, 1);
    const RunResult b =
        runOne(SimConfig::paperBaseline(), "map:pae", "GS", 0.25, 2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Profiler, MappedProfileRemovesValley)
{
    // Fig. 10: applying FAE to MT's addresses lifts the channel-bit
    // entropy that BASE leaves in the valley. (Full scale: the MT
    // valley needs the full TB grid to show against window w=12.)
    const auto wl = workloads::make("MT", 1.0);
    workloads::ProfileOptions po;
    const EntropyProfile base = workloads::profileWorkload(*wl, po);

    const auto fae = mapping::makeMapper(
        mapping::kFae, AddressLayout::hynixGddr5(), 1);
    workloads::ProfileOptions pm = po;
    pm.mapper = fae.get();
    const EntropyProfile mapped = workloads::profileWorkload(*wl, pm);

    const std::vector<unsigned> chbank = {8, 9, 10, 11, 12, 13};
    EXPECT_GT(mapped.meanOver(chbank), base.meanOver(chbank) + 0.3);
    EXPECT_GT(mapped.minOver(chbank), 0.8);
}

TEST(Profiler, BlockBitsAlwaysZeroEntropy)
{
    const auto wl = workloads::make("FWT", 0.25);
    workloads::ProfileOptions po;
    const EntropyProfile p = workloads::profileWorkload(*wl, po);
    for (unsigned b = 0; b < 7; ++b)
        EXPECT_DOUBLE_EQ(p.perBit[b], 0.0) << "bit " << b;
}

TEST(Profiler, WindowSizeMatters)
{
    // Larger windows can only expose more inter-TB entropy (Fig. 3).
    const auto wl = workloads::make("MT", 0.5);
    workloads::ProfileOptions w1;
    w1.window = 1;
    workloads::ProfileOptions w12;
    w12.window = 12;
    const auto p1 = workloads::profileWorkload(*wl, w1);
    const auto p12 = workloads::profileWorkload(*wl, w12);
    double gain = 0.0;
    for (unsigned b = 6; b < 30; ++b)
        gain += p12.perBit[b] - p1.perBit[b];
    EXPECT_GT(gain, 0.0);
}
