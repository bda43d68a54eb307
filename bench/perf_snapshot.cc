/**
 * @file
 * Perf trajectory snapshot: measures the tentpole optimizations and
 * records them as machine-readable JSON so subsequent PRs can track
 * the numbers.
 *
 *  - BENCH_mapper.json: naive `BitMatrix::apply` (one parity
 *    reduction per output bit) vs the byte-sliced
 *    `CompiledTransform::apply` (8 table loads), addrs/sec on the
 *    30-bit paper layout across all six schemes.
 *  - BENCH_profiler.json: serial vs parallel `profileWorkload`
 *    wall-clock with a profile bit-identity check.
 *  - BENCH_grid.json: serial vs parallel `harness::runGrid` on a
 *    6-cell grid, wall-clock seconds plus a bit-identity check of
 *    the two result sets, and the simulator's rate: simulated SM
 *    cycles per host second over the serial leg.
 *
 * Single-core hosts force the parallel legs onto 2 worker threads so
 * the recorded speedups exercise the multi-worker `parallelFor` path
 * instead of degenerating into a second serial run.
 *
 * BENCH_search.json (evals/sec across the scalar/SIMD and
 * oracle/cached scoring legs, plus the joint-vs-independent set
 * comparison) is owned by `bench/search_throughput.cc`.
 */

#include <chrono>
#include <vector>

#include "bench_util.hh"
#include "common/bitops.hh"
#include "common/metrics.hh"
#include "common/parallel_for.hh"
#include "common/rng.hh"
#include "search/searched_bim.hh"
#include "workloads/workload_set.hh"

using namespace valley;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MapperTiming
{
    double naiveAddrsPerSec = 0.0;
    double compiledAddrsPerSec = 0.0;
};

MapperTiming
timeMapper(const AddressMapper &mapper, const std::vector<Addr> &addrs,
           unsigned passes)
{
    MapperTiming t;
    Addr sink = 0;

    auto start = Clock::now();
    for (unsigned p = 0; p < passes; ++p)
        for (Addr a : addrs)
            sink ^= mapper.matrix().apply(a);
    const double naive = secondsSince(start);

    start = Clock::now();
    for (unsigned p = 0; p < passes; ++p)
        for (Addr a : addrs)
            sink ^= mapper.compiled().apply(a);
    const double compiled = secondsSince(start);

    // The two sums cancel iff both paths agree; folding the sink into
    // the count keeps the loops from being optimized away.
    const double n =
        static_cast<double>(addrs.size()) * passes + (sink ? 1 : 0);
    t.naiveAddrsPerSec = naive > 0.0 ? n / naive : 0.0;
    t.compiledAddrsPerSec = compiled > 0.0 ? n / compiled : 0.0;
    return t;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Perf snapshot",
        "compiled BIM + trace-plane profiler + parallel grid");

    const unsigned hw_threads = hardwareThreads();
    // On a 1-core host a "parallel" run at the default thread count
    // is just the serial path again; 2 workers keep the measurement
    // meaningful as a multi-worker exercise.
    const unsigned parallel_threads = hw_threads == 1 ? 2 : 0;
    std::printf("hardware threads: %u (parallel runs use %s)\n\n",
                hw_threads,
                parallel_threads == 0 ? "all of them" : "2, forced");

    // VALLEY_SCALE sets the profiler and grid legs' scales; read it
    // now, so that a malformed value exits before any timed work.
    const double profile_scale = bench::envScale(1.0);
    const double grid_scale = bench::envScale(0.25);

    // ---- mapper throughput ------------------------------------------------
    const AddressLayout layout = AddressLayout::hynixGddr5();
    XorShiftRng rng(42);
    std::vector<Addr> addrs(1u << 18);
    for (Addr &a : addrs)
        a = rng.next() & bits::mask(30);
    const unsigned passes = 8;

    bench::JsonEmitter mapper_json("BENCH_mapper.json");
    mapper_json.field("layout", layout.name);
    mapper_json.field("addresses",
                      static_cast<std::uint64_t>(addrs.size()) * passes);

    TextTable t;
    t.setHeader({"scheme", "naive addr/s", "compiled addr/s",
                 "speedup"});
    double naive_sum = 0.0, compiled_sum = 0.0;
    for (const std::string &s : mapping::paperMappers()) {
        const auto mapper = mapping::makeMapper(s, layout, 1);
        const MapperTiming timing = timeMapper(*mapper, addrs, passes);
        naive_sum += timing.naiveAddrsPerSec;
        compiled_sum += timing.compiledAddrsPerSec;
        const double speedup =
            timing.naiveAddrsPerSec > 0.0
                ? timing.compiledAddrsPerSec / timing.naiveAddrsPerSec
                : 0.0;
        const std::string name = mapping::displayName(s);
        t.addRow({name, TextTable::num(timing.naiveAddrsPerSec),
                  TextTable::num(timing.compiledAddrsPerSec),
                  TextTable::num(speedup)});
        mapper_json.field(name + "_naive_addrs_per_sec",
                          timing.naiveAddrsPerSec);
        mapper_json.field(name + "_compiled_addrs_per_sec",
                          timing.compiledAddrsPerSec);
    }
    const double mean_speedup =
        naive_sum > 0.0 ? compiled_sum / naive_sum : 0.0;
    mapper_json.field("mean_naive_addrs_per_sec",
                      naive_sum / mapping::paperMappers().size());
    mapper_json.field("mean_compiled_addrs_per_sec",
                      compiled_sum / mapping::paperMappers().size());
    mapper_json.field("compiled_over_naive_speedup", mean_speedup);
    std::printf("%s", t.toString().c_str());
    std::printf("\nmean compiled/naive speedup: %.2fx\n\n",
                mean_speedup);

    // ---- entropy profiler -------------------------------------------------
    bool profiler_ok = true;
    {
        bench::JsonEmitter prof_json("BENCH_profiler.json");
        prof_json.field("hardware_threads", hw_threads);

        // Serial vs parallel workload profiling, bit-identity checked.
        const std::vector<std::string> pworkloads = {"MT", "GS",
                                                     "DWT2D"};
        workloads::ProfileOptions serial_po;
        serial_po.threads = 1;
        workloads::ProfileOptions parallel_po;
        parallel_po.threads = parallel_threads;

        Clock::time_point start;
        double serial_sec = 0.0, par_sec = 0.0;
        bool profiles_identical = true;
        for (const std::string &w : pworkloads) {
            const auto wl = workloads::make(w, profile_scale);
            // Best of 3 per leg: on short runs scheduler noise would
            // otherwise dominate the recorded ratio.
            EntropyProfile ps, pp;
            double best_s = 0.0, best_p = 0.0;
            for (int rep = 0; rep < 3; ++rep) {
                start = Clock::now();
                ps = workloads::profileWorkload(*wl, serial_po);
                const double s = secondsSince(start);
                start = Clock::now();
                pp = workloads::profileWorkload(*wl, parallel_po);
                const double p = secondsSince(start);
                if (rep == 0 || s < best_s)
                    best_s = s;
                if (rep == 0 || p < best_p)
                    best_p = p;
            }
            serial_sec += best_s;
            par_sec += best_p;
            profiles_identical = profiles_identical &&
                                 ps.perBit == pp.perBit &&
                                 ps.weight == pp.weight;
        }
        // Synth scenario generators through the same serial/parallel
        // identity check: the open-ended workload space must hold the
        // same determinism contract as the Table II suite.
        const std::vector<std::string> sworkloads = {
            "synth:stencil3d", "synth:hash_shuffle,fmb=64,tbs=32"};
        double synth_serial_sec = 0.0, synth_par_sec = 0.0;
        bool synth_identical = true;
        for (const std::string &w : sworkloads) {
            const auto wl = workloads::make(w, 0.5);
            start = Clock::now();
            const EntropyProfile ps =
                workloads::profileWorkload(*wl, serial_po);
            synth_serial_sec += secondsSince(start);
            start = Clock::now();
            const EntropyProfile pp =
                workloads::profileWorkload(*wl, parallel_po);
            synth_par_sec += secondsSince(start);
            synth_identical = synth_identical &&
                              ps.perBit == pp.perBit &&
                              ps.weight == pp.weight;
        }
        profiler_ok = profiler_ok && synth_identical;
        prof_json.field("synth_profile_workloads",
                        "stencil3d+hash_shuffle");
        prof_json.field("synth_profile_serial_seconds",
                        synth_serial_sec);
        prof_json.field("synth_profile_parallel_seconds",
                        synth_par_sec);
        prof_json.field("synth_profiles_identical", synth_identical);
        std::printf("synth profiles: serial %.2fs, parallel %.2fs, "
                    "identical=%s\n",
                    synth_serial_sec, synth_par_sec,
                    synth_identical ? "yes" : "NO");

        profiler_ok = profiler_ok && profiles_identical;
        const unsigned par_used = parallel_po.threads == 0
                                      ? hw_threads
                                      : parallel_po.threads;
        prof_json.field("profile_workloads", "MT+GS+DWT2D");
        prof_json.field("profile_scale", profile_scale);
        prof_json.field("profile_serial_seconds", serial_sec);
        prof_json.field("profile_parallel_seconds", par_sec);
        prof_json.field("profile_parallel_threads", par_used);
        prof_json.field("profile_parallel_speedup",
                        par_sec > 0.0 ? serial_sec / par_sec : 0.0);
        prof_json.field("profiles_identical", profiles_identical);
        std::printf("profileWorkload: serial %.2fs, parallel %.2fs "
                    "(%u threads, %.2fx), identical=%s\n\n",
                    serial_sec, par_sec, par_used,
                    par_sec > 0.0 ? serial_sec / par_sec : 0.0,
                    profiles_identical ? "yes" : "NO");
    }

    // ---- grid wall-clock -------------------------------------------------
    harness::GridOptions opts;
    opts.workloads = {"SC", "GS"};
    opts.mappers = {mapping::kBase, mapping::kPm, mapping::kFae};
    opts.scale = grid_scale;
    opts.useCache = false;

    harness::GridOptions serial = opts;
    serial.threads = 1;
    auto start = Clock::now();
    const harness::Grid gs = harness::runGrid(std::move(serial));
    const double serial_sec = secondsSince(start);

    harness::GridOptions parallel = opts;
    parallel.threads = parallel_threads; // 0 = one per hw thread
    start = Clock::now();
    const harness::Grid gp = harness::runGrid(std::move(parallel));
    const double parallel_sec = secondsSince(start);

    bool identical = true;
    std::uint64_t sim_cycles = 0;
    for (const auto &w : opts.workloads)
        for (const std::string &s : opts.mappers) {
            identical = identical && gs.at(w, s) == gp.at(w, s);
            sim_cycles += gs.at(w, s).cycles;
        }
    const double cycles_per_sec =
        serial_sec > 0.0 ? static_cast<double>(sim_cycles) / serial_sec
                         : 0.0;

    const unsigned grid_threads =
        parallel_threads == 0 ? hw_threads : parallel_threads;
    bench::JsonEmitter grid_json("BENCH_grid.json");
    grid_json.field("cells",
                    static_cast<std::uint64_t>(opts.workloads.size() *
                                               opts.mappers.size()));
    grid_json.field("scale", opts.scale);
    grid_json.field("hardware_threads", hw_threads);
    grid_json.field("parallel_threads", grid_threads);
    grid_json.field("serial_seconds", serial_sec);
    grid_json.field("parallel_seconds", parallel_sec);
    grid_json.field("parallel_speedup",
                    parallel_sec > 0.0 ? serial_sec / parallel_sec
                                       : 0.0);
    grid_json.field("results_identical", identical);
    grid_json.field("sim_cycles", sim_cycles);
    grid_json.field("sim_cycles_per_second", cycles_per_sec);
    // Internal attribution for the perf trajectory: the process-wide
    // metrics snapshot (cache hit/miss, per-phase search evals, grid
    // cell times) accumulated across every section above.
    grid_json.rawField("metrics", metrics::snapshotJson(1));

    std::printf("grid: %zu cells, serial %.2fs, parallel %.2fs "
                "(%u threads on %u-core host), identical=%s\n",
                opts.workloads.size() * opts.mappers.size(), serial_sec,
                parallel_sec, grid_threads, hw_threads,
                identical ? "yes" : "NO");
    std::printf("simulator: %llu SM cycles in the serial leg, %.3g "
                "cycles/s\n",
                static_cast<unsigned long long>(sim_cycles),
                cycles_per_sec);
    return identical && profiler_ok ? 0 : 1;
}
