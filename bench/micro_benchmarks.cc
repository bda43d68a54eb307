/**
 * @file
 * google-benchmark micro-benchmarks: cost of the BIM transform (the
 * hardware the paper implements as a single-cycle XOR tree), entropy
 * analysis throughput, FR-FCFS controller throughput and end-to-end
 * simulator speed.
 */

#include <benchmark/benchmark.h>

#include "bim/bim_builder.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "dram/dram_system.hh"
#include "entropy/window_entropy.hh"
#include "harness/experiment.hh"
#include "workloads/profiler.hh"

using namespace valley;

// --- BIM ----------------------------------------------------------------

static void
BM_BimApply(benchmark::State &state, const char *mapper_spec)
{
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const auto mapper = mapping::makeMapper(mapper_spec, layout, 1);
    XorShiftRng rng(7);
    Addr a = rng.next() & bits::mask(30);
    for (auto _ : state) {
        a = mapper->map(a) + 64;
        a &= bits::mask(30);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_BimApply, base, "map:base");
BENCHMARK_CAPTURE(BM_BimApply, pm, "map:pm");
BENCHMARK_CAPTURE(BM_BimApply, pae, "map:pae");
BENCHMARK_CAPTURE(BM_BimApply, fae, "map:fae");
BENCHMARK_CAPTURE(BM_BimApply, all, "map:all");

static void
BM_BimApplyNaive(benchmark::State &state, const char *mapper_spec)
{
    // The row-wise parity loop CompiledTransform replaces: one AND +
    // popcount-parity per output bit, 30 iterations per address.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const auto mapper = mapping::makeMapper(mapper_spec, layout, 1);
    const BitMatrix &m = mapper->matrix();
    XorShiftRng rng(7);
    Addr a = rng.next() & bits::mask(30);
    for (auto _ : state) {
        a = m.apply(a) + 64;
        a &= bits::mask(30);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_BimApplyNaive, base, "map:base");
BENCHMARK_CAPTURE(BM_BimApplyNaive, pae, "map:pae");
BENCHMARK_CAPTURE(BM_BimApplyNaive, all, "map:all");

static void
BM_BimApplyCompiled(benchmark::State &state, const char *mapper_spec)
{
    // The byte-sliced fast path used by AddressMapper::map: 8 table
    // loads XORed together, independent of the matrix size.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const auto mapper = mapping::makeMapper(mapper_spec, layout, 1);
    const CompiledTransform &ct = mapper->compiled();
    XorShiftRng rng(7);
    Addr a = rng.next() & bits::mask(30);
    for (auto _ : state) {
        a = ct.apply(a) + 64;
        a &= bits::mask(30);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_BimApplyCompiled, base, "map:base");
BENCHMARK_CAPTURE(BM_BimApplyCompiled, pae, "map:pae");
BENCHMARK_CAPTURE(BM_BimApplyCompiled, all, "map:all");

static void
BM_BimGenerateInvertible(benchmark::State &state)
{
    const AddressLayout layout = AddressLayout::hynixGddr5();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        XorShiftRng rng(seed++);
        const BitMatrix m = bim::randomBroad(
            30, layout.randomizeTargets(), layout.pageMask(), rng);
        benchmark::DoNotOptimize(m.row(8));
    }
}
BENCHMARK(BM_BimGenerateInvertible);

static void
BM_BimInverse(benchmark::State &state)
{
    XorShiftRng rng(3);
    BitMatrix m(30);
    do {
        for (unsigned r = 0; r < 30; ++r)
            m.setRow(r, rng.next() & bits::mask(30));
    } while (!m.invertible());
    for (auto _ : state) {
        auto inv = m.inverse();
        benchmark::DoNotOptimize(inv->row(0));
    }
}
BENCHMARK(BM_BimInverse);

// --- Entropy ---------------------------------------------------------------

static void
BM_BvrAccumulate(benchmark::State &state)
{
    // Scalar oracle path: one shift/mask/add per bit per address.
    XorShiftRng rng(13);
    std::vector<Addr> addrs(1024);
    for (Addr &a : addrs)
        a = rng.next() & bits::mask(30);
    for (auto _ : state) {
        BvrAccumulator acc(30);
        for (Addr a : addrs)
            acc.add(a);
        benchmark::DoNotOptimize(acc.bvrs());
    }
    state.SetItemsProcessed(state.iterations() * addrs.size());
}
BENCHMARK(BM_BvrAccumulate);

static void
BM_ProfileWorkload(benchmark::State &state)
{
    // threads: 1 = serial, 0 = one worker per hardware thread.
    const auto wl = workloads::make("GS", 0.25);
    for (auto _ : state) {
        workloads::ProfileOptions po;
        po.threads = static_cast<unsigned>(state.range(0));
        benchmark::DoNotOptimize(
            workloads::profileWorkload(*wl, po).perBit[8]);
    }
}
BENCHMARK(BM_ProfileWorkload)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// --- DRAM -------------------------------------------------------------------

static void
BM_FrFcfsThroughput(benchmark::State &state)
{
    const bool random_rows = state.range(0);
    XorShiftRng rng(17);
    for (auto _ : state) {
        MemoryController mc(16, DramTiming::hynixGddr5());
        std::vector<DramCompletion> done;
        unsigned issued = 0, completed = 0;
        Cycle now = 0;
        while (completed < 512) {
            while (issued < 512 && mc.canAccept()) {
                DramRequest r;
                r.coord.bank = rng.below(16);
                r.coord.row =
                    random_rows ? static_cast<unsigned>(rng.below(4096))
                                : issued / 64;
                r.tag = issued++;
                mc.enqueue(r, now);
            }
            mc.tick(++now, done);
            completed += static_cast<unsigned>(done.size());
            done.clear();
        }
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FrFcfsThroughput)
    ->Arg(0)  // streaming rows (row hits)
    ->Arg(1); // random rows (activation bound)

// --- Full simulator -----------------------------------------------------------

static void
BM_SimulatorEndToEnd(benchmark::State &state)
{
    const SimConfig cfg = SimConfig::paperBaseline();
    const auto mapper = mapping::makeMapper(mapping::kPae, cfg.layout, 1);
    const auto wl = workloads::make("GS", 0.25);
    for (auto _ : state) {
        GpuSystem sim(cfg, *mapper);
        const RunResult r = sim.run(*wl);
        benchmark::DoNotOptimize(r.cycles);
        state.counters["cycles/s"] = benchmark::Counter(
            static_cast<double>(r.cycles),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_SimulatorEndToEnd)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
