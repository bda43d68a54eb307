/**
 * @file
 * The repository benchmark driver: runs one workload's fixed list of
 * operations (simulated grid cells or joint BIM searches) back to
 * back on one thread, checks every result, and prints the metrics
 * declared in BENCHMARK.json. `benchmark/run.sh` builds and runs it;
 * benchmark/README.md describes the workloads and metrics.
 *
 *   valley_bench --workload W [--seed S] [--seconds N] [--trace 0|1]
 *                [--smoke] [--results DIR] [--commit SHA]
 *
 * With `--trace 0` the end-to-end metrics are measured with tracing
 * off, in host time calibrated by `SpeedProbe`. With `--trace 1` a
 * first untraced pass records reference digests; later passes compose
 * each cell from the public calls `harness::runOne` makes, wrap every
 * call in a span and time it, which gives the per-layer metrics.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bitops.hh"
#include "common/fnv.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace_span.hh"
#include "gpu/gpu_system.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "workloads/workload_set.hh"

#ifndef VALLEY_BENCH_BUILD_TYPE
#define VALLEY_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace valley;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool smoke = false;
    std::string results = "build-bench/results";
    std::string commit = "unknown";
};

/**
 * Problem scale of the measured runs. Chosen so one pass over any
 * workload's op list takes a few host seconds, which lets a run
 * report a median over several passes.
 */
constexpr double kScale = 0.25;
constexpr double kSmokeScale = 0.05;
/** Joint searches per `search_joint` pass (seeds S..S+7). */
constexpr unsigned kSearchSeeds = 8;

/** One operation of a workload's list: a grid cell or a joint search. */
struct Op
{
    bool search = false;
    std::string workload;       ///< cell: Table II name or synth spec
    std::string mapper;         ///< cell: canonical `map:` spec
    std::uint64_t seed = 1;     ///< cell bim_seed / search anneal seed
    std::uint64_t requests = 0; ///< expected requests, from set-up

    std::string
    label() const
    {
        return search ? "searchSet valley seed=" + std::to_string(seed)
                      : workload + " " + mapper;
    }
};

std::vector<Op>
cellGrid(const std::vector<std::string> &workloads,
         const std::vector<std::string> &mappers, std::uint64_t seed)
{
    std::vector<Op> ops;
    for (const auto &w : workloads)
        for (const auto &m : mappers)
            ops.push_back(Op{false, w, m, seed, 0});
    return ops;
}

/**
 * The fixed op list of a workload. The seed feeds the BIM seed of
 * every cell, the anneal seeds of the searches and the synth `seed=`
 * parameters, so one seed always yields the same inputs. A smoke list
 * keeps the first workload of a cell grid and the first search seed.
 */
std::vector<Op>
buildOps(const std::string &name, std::uint64_t seed, bool smoke)
{
    const std::vector<std::string> all = {"map:base", "map:fae",
                                          "map:sbim"};
    const auto grid = [&](std::vector<std::string> workloads,
                          const std::vector<std::string> &mappers) {
        if (smoke)
            workloads.resize(1);
        return cellGrid(workloads, mappers, seed);
    };
    if (name == "valley_cells")
        return grid({"MT", "SC", "LPS", "DWT2D"}, all);
    if (name == "nonvalley_cells")
        return grid({"MUM", "SPMV", "BFS", "LM"}, all);
    if (name == "write_cells")
        return grid({"synth:stream,wr=0.75,n=4194304",
                     "synth:hash_shuffle,wr=0.5,tbs=128,seed=" +
                         std::to_string(seed)},
                    {"map:base", "map:fae"});
    if (name == "search_joint") {
        std::vector<Op> ops;
        for (unsigned k = 0; k < (smoke ? 1u : kSearchSeeds); ++k)
            ops.push_back(Op{true, "", "", seed + k, 0});
        return ops;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (valley_cells, nonvalley_cells, "
                                "write_cells, search_joint)");
}

/** Inputs of a run, built by `prepare` before the first timed op. */
struct Prepared
{
    std::vector<Op> ops;
    std::unique_ptr<workloads::WorkloadSet> set; ///< search ops only
};

/**
 * Set-up: resolve every spec, build every workload and count its
 * requests (one trace generation each) so that each op's result can
 * be checked against the count.
 */
Prepared
prepare(const Options &o, double scale)
{
    Prepared p;
    p.ops = buildOps(o.workload, o.seed, o.smoke);
    std::map<std::string, std::uint64_t> counted;
    const auto count = [&](const std::string &w) {
        auto it = counted.find(w);
        if (it == counted.end())
            it = counted
                     .emplace(w, workloads::make(w, scale)->countRequests())
                     .first;
        return it->second;
    };
    for (Op &op : p.ops) {
        if (op.search) {
            if (!p.set)
                p.set = std::make_unique<workloads::WorkloadSet>(
                    workloads::valleySet());
            for (const auto &m : p.set->members())
                op.requests += count(m);
        } else {
            op.mapper = mapping::canonicalMapperSpec(op.mapper);
            op.requests = count(op.workload);
        }
    }
    return p;
}

/** Search options of every search: those a `map:sbim` cell uses. */
search::SearchOptions
searchOptions(const SimConfig &config, std::uint64_t seed)
{
    search::SearchOptions so = search::defaultOptions(config.layout);
    so.seed = seed;
    so.window = config.numSms;
    so.threads = 1;
    return so;
}

std::uint64_t
digestOf(const RunResult &r)
{
    return bits::fnv1a(harness::serializeResult(r));
}

std::uint64_t
digestOf(const search::SetSearchResult &r)
{
    std::uint64_t h = bits::kFnvOffsetBasis;
    for (const search::SearchResult *s : {&r.annealed, &r.greedyBaseline}) {
        for (unsigned row = 0; row < s->bim.size(); ++row)
            h = bits::fnv1aU64(h, s->bim.row(row));
        h = bits::fnv1aU64(h, std::bit_cast<std::uint64_t>(s->cost));
        h = bits::fnv1aU64(h,
                           std::bit_cast<std::uint64_t>(s->identityCost));
    }
    return h;
}

/**
 * Machine-speed probe. The speed of a shared host drifts by tens of
 * percent over minutes (other tenants load its caches and memory
 * bandwidth), and no repetition inside a run removes that. This fixed
 * piece of benchmark-owned work, which no library change can speed up,
 * is timed before every op and every set-up: small allocations filled
 * and read back, as in trace generation, then random read-modify-
 * writes over a 1 MiB table, about the size of the simulator's hot
 * cache-model state. (Of the mixes tried, this one tracked the
 * program's own slowdowns best; a 4 MiB table overreacts to contention
 * in the shared last-level cache.) End-to-end times are reported
 * scaled by `kReferenceSeconds / seconds()`, i.e. at the probe's
 * reference speed.
 */
class SpeedProbe
{
  public:
    /** Median probe time on the host the bounds were set on. */
    static constexpr double kReferenceSeconds = 0.0011;

    void
    sample()
    {
        // Untimed warm-up: bring the table back into the caches the
        // previous op used, so the op's footprint does not bias the
        // probe.
        for (std::size_t i = 0; i < table.size(); i += 8)
            sink += table[i];
        const Clock::time_point t0 = Clock::now();
        for (unsigned k = 0; k < 3000; ++k) {
            std::vector<std::uint64_t> v(48 + next() % 32);
            for (std::uint64_t &e : v)
                e = next();
            sink += v[v.size() / 2];
        }
        const std::size_t mask = table.size() - 1;
        for (unsigned k = 0; k < 300000; ++k) {
            const std::uint64_t r = next();
            sink += table[(r >> 20) & mask];
            table[(sink + k) & mask] += r;
        }
        samples.push_back(secondsSince(t0));
    }

    /** Median probe time of this run. */
    double seconds() const { return median(samples); }

    /** Scale a host time to the probe's reference speed. */
    double
    calibrated(double host_seconds) const
    {
        return host_seconds * kReferenceSeconds / seconds();
    }

    /** Keeps the probe's work observable. */
    std::uint64_t checksum() const { return sink; }

  private:
    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 11;
    }

    std::vector<std::uint64_t> table = std::vector<std::uint64_t>(1 << 17);
    std::vector<double> samples;
    std::uint64_t state = 1, sink = 0;
};

/** Outcome of one op. `digest` is 0 when the op failed. */
struct OpResult
{
    bool ok = false;
    std::uint64_t digest = 0;
    double seconds = 0.0;
    RunResult run;         ///< cells
    double costRatio = 0;  ///< searches: annealed / identity cost
    std::uint64_t accepted = 0, rejectedSingular = 0, evaluations = 0;
};

/** Host time per layer, summed over the traced passes. */
struct LayerTimes
{
    double run = 0, make = 0, makeMapper = 0, setMapper = 0;
    double searchSet = 0, self = 0;
};

void
check(bool cond, const std::string &what)
{
    if (!cond)
        throw std::runtime_error(what);
}

void
checkSearch(const search::SetSearchResult &r)
{
    check(r.annealed.bim.invertible(), "searched BIM is not full-rank");
    check(r.annealed.cost <= r.annealed.identityCost,
          "annealed cost exceeds the identity cost");
}

class Bench
{
  public:
    Bench(Prepared p, double scale, SpeedProbe &probe)
        : ops(std::move(p.ops)), set(std::move(p.set)), scale(scale),
          probe(probe)
    {
        mappers.resize(ops.size());
    }

    std::uint64_t attempted = 0, failed = 0;
    LayerTimes layers;
    /** Each cell's mapper from the latest traced pass. */
    std::vector<std::unique_ptr<AddressMapper>> mappers;

    /** One untraced pass through `harness::runOne` / `searchSet`. */
    double
    untracedPass(std::vector<OpResult> &out)
    {
        const Clock::time_point t0 = Clock::now();
        out.assign(ops.size(), {});
        for (std::size_t i = 0; i < ops.size(); ++i)
            runGuarded(i, out[i], [&](OpResult &res) {
                const Op &op = ops[i];
                if (op.search) {
                    runSearch(op, res);
                } else {
                    res.run = harness::runOne(config, op.mapper,
                                              op.workload, scale,
                                              op.seed);
                    finishCell(op, res);
                }
            });
        return secondsSince(t0);
    }

    /**
     * One traced pass: each cell is composed from the calls runOne
     * makes, each call wrapped in an `op#<i>/<layer>` span.
     */
    double
    tracedPass(std::vector<OpResult> &out)
    {
        const Clock::time_point t0 = Clock::now();
        out.assign(ops.size(), {});
        for (std::size_t i = 0; i < ops.size(); ++i)
            runGuarded(i, out[i],
                       [&](OpResult &res) { composedOp(i, res); });
        return secondsSince(t0);
    }

    const std::vector<Op> &operations() const { return ops; }

  private:
    template <typename F>
    void
    runGuarded(std::size_t i, OpResult &res, F &&body)
    {
        ++attempted;
        probe.sample();
        const Clock::time_point t0 = Clock::now();
        try {
            body(res);
            res.ok = true;
        } catch (const std::exception &e) {
            ++failed;
            res = OpResult{};
            std::fprintf(stderr, "op#%zu %s failed: %s\n", i,
                         ops[i].label().c_str(), e.what());
        }
        res.seconds = secondsSince(t0);
    }

    void
    finishCell(const Op &op, OpResult &res) const
    {
        check(res.run.requests == op.requests,
              "simulated requests " + std::to_string(res.run.requests) +
                  " != countRequests " + std::to_string(op.requests));
        res.digest = digestOf(res.run);
    }

    void
    runSearch(const Op &op, OpResult &res) const
    {
        const search::SetSearchResult r = search::searchSet(
            *set, config.layout, searchOptions(config, op.seed), scale);
        checkSearch(r);
        res.costRatio = r.annealed.cost / r.annealed.identityCost;
        res.accepted = r.annealed.stats.accepted +
                       r.greedyBaseline.stats.accepted;
        res.rejectedSingular = r.annealed.stats.rejectedSingular +
                               r.greedyBaseline.stats.rejectedSingular;
        res.evaluations = r.annealed.stats.evaluations +
                          r.greedyBaseline.stats.evaluations;
        res.digest = digestOf(r);
    }

    /** Time `fn` inside an `op#<i>/<layer>` span; add to `acc`. */
    template <typename F>
    void
    layer(std::size_t i, const char *name, double &acc, F &&fn)
    {
        trace::Span span("op#" + std::to_string(i) + "/" + name, "bench");
        const Clock::time_point t0 = Clock::now();
        fn();
        const double s = secondsSince(t0);
        acc += s;
        children += s;
    }

    void
    composedOp(std::size_t i, OpResult &res)
    {
        const Op &op = ops[i];
        children = 0.0;
        const Clock::time_point t0 = Clock::now();
        {
            trace::Span span("op#" + std::to_string(i), "bench");
            if (op.search) {
                layer(i, "search_set", layers.searchSet,
                      [&] { runSearch(op, res); });
            } else {
                std::unique_ptr<AddressMapper> mapper;
                if (mapping::resolveMapperSpec(op.mapper).family().name ==
                    "sbim") {
                    layer(i, "set_mapper", layers.setMapper, [&] {
                        mapper = search::setMapper(
                            config.layout,
                            workloads::WorkloadSet({op.workload}),
                            searchOptions(config, op.seed), scale);
                    });
                    check(mapper->matrix().invertible(),
                          "searched BIM is not full-rank");
                } else {
                    layer(i, "make_mapper", layers.makeMapper, [&] {
                        mapper = mapping::makeMapper(
                            op.mapper, config.layout, op.seed);
                    });
                }
                std::unique_ptr<Workload> wl;
                layer(i, "make_workload", layers.make, [&] {
                    wl = workloads::make(op.workload, scale);
                });
                layer(i, "gpu_run", layers.run, [&] {
                    GpuSystem sim(config, *mapper);
                    res.run = sim.run(*wl);
                });
                finishCell(op, res);
                mappers[i] = std::move(mapper);
            }
        }
        layers.self += secondsSince(t0) - children;
    }

    const SimConfig config = SimConfig::paperBaseline();
    std::vector<Op> ops;
    std::unique_ptr<workloads::WorkloadSet> set;
    double scale;
    SpeedProbe &probe;
    double children = 0.0; ///< layer time inside the current op
};

/**
 * Replays the host work `GpuSystem::run` repeats inside every cell —
 * `Kernel::trace` for every TB and `CompiledTransform::apply` over
 * every line of a non-identity mapper — to size it from outside.
 */
struct Replay
{
    double traceGen = 0, premap = 0;
    std::uint64_t lines = 0;
    std::uint64_t checksum = 0; ///< XOR of the mapped lines, recorded

    void
    cell(const Op &op, const AddressMapper &mapper, double scale)
    {
        const auto wl = workloads::make(op.workload, scale);
        const CompiledTransform &bim = mapper.compiled();
        for (const Kernel &k : wl->kernels()) {
            for (TbId tb = 0; tb < k.numTbs(); ++tb) {
                Clock::time_point t0 = Clock::now();
                TbTrace t = k.trace(tb);
                traceGen += secondsSince(t0);
                lines += t.requestCount();
                if (bim.isIdentity())
                    continue;
                t0 = Clock::now();
                for (const WarpTrace &warp : t.warps)
                    for (const MemInstr &instr : warp.instrs)
                        for (Addr line : instr.lines)
                            checksum ^= bim.apply(line);
                premap += secondsSince(t0);
            }
        }
    }
};

/** Ordered name -> (value, unit) list, printed and serialized. */
struct MetricList
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void
    add(std::string name, double value, std::string unit)
    {
        entries.push_back({std::move(name), value, std::move(unit)});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < entries.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", entries[i].value);
            out += (i ? ", \"" : "\"") + entries[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   entries[i].unit + "\"}";
        }
        return out + "}";
    }

    void
    print() const
    {
        for (const auto &e : entries)
            std::printf("  %-28s %14.6g %s\n", e.name.c_str(), e.value,
                        e.unit.c_str());
    }
};

/** Simulated outcomes of the reference pass (zero where not run). */
MetricList
simMetrics(const std::vector<Op> &ops, const std::vector<OpResult> &res)
{
    std::map<std::string, const RunResult *> base;
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (!ops[i].search && ops[i].mapper == "map:base" && res[i].ok)
            base[ops[i].workload] = &res[i].run;
    std::map<std::string, std::vector<double>> speedup, ppw;
    std::vector<double> cost_ratios;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!res[i].ok)
            continue;
        if (ops[i].search) {
            cost_ratios.push_back(res[i].costRatio);
            continue;
        }
        const auto it = base.find(ops[i].workload);
        if (ops[i].mapper == "map:base" || it == base.end())
            continue;
        const RunResult &b = *it->second, &r = res[i].run;
        const std::string fam = ops[i].mapper.substr(4);
        speedup[fam].push_back(ratio(static_cast<double>(b.cycles),
                                     static_cast<double>(r.cycles)));
        ppw[fam].push_back(
            ratio(r.performancePerWatt(), b.performancePerWatt()));
    }
    MetricList m;
    for (const char *fam : {"fae", "sbim"})
        m.add(std::string("sim_speedup_") + fam,
              harmonicMean(speedup[fam]), "ratio");
    for (const char *fam : {"fae", "sbim"})
        m.add(std::string("sim_ppw_") + fam, harmonicMean(ppw[fam]),
              "ratio");
    m.add("search_cost_ratio", median(cost_ratios), "ratio");
    return m;
}

/** Simulated per-layer counts of one pass's cells. */
void
addSimLayers(MetricList &m, const std::vector<OpResult> &res,
             const SimConfig &config)
{
    double l1a = 0, l1m = 0, llca = 0, llcm = 0, reads = 0, writes = 0;
    double acts = 0, row_total = 0, row_miss = 0, lat = 0, busy = 0;
    double bus_cycles = 0, secs = 0, dram_j = 0, sys_j = 0, cycles = 0;
    std::vector<double> llc_par, noc_lat, ch_par, bank_par;
    const double channels = config.layout.numChannels();
    for (const OpResult &r : res) {
        if (!r.ok || r.run.cycles == 0)
            continue;
        const RunResult &x = r.run;
        cycles += static_cast<double>(x.cycles);
        l1a += static_cast<double>(x.l1Accesses);
        l1m += static_cast<double>(x.l1Misses);
        llca += static_cast<double>(x.llcAccesses);
        llcm += static_cast<double>(x.llcMisses);
        reads += static_cast<double>(x.dram.reads);
        writes += static_cast<double>(x.dram.writes);
        acts += static_cast<double>(x.dram.activations);
        row_total += static_cast<double>(x.dram.reads + x.dram.writes);
        row_miss += static_cast<double>(
            std::min(x.dram.rowMisses, x.dram.reads + x.dram.writes));
        lat += static_cast<double>(x.dram.latencySum);
        busy += static_cast<double>(x.dram.busBusyCycles);
        bus_cycles += static_cast<double>(x.cycles) * config.dramClockNum /
                      config.dramClockDen * channels;
        secs += x.seconds;
        dram_j += x.dramPower.totalW() * x.seconds;
        sys_j += x.systemPowerW * x.seconds;
        llc_par.push_back(x.llcParallelism);
        noc_lat.push_back(x.nocLatencySmCycles);
        ch_par.push_back(x.channelParallelism);
        bank_par.push_back(x.bankParallelism);
    }
    m.add("gpu.cycles", cycles, "count");
    m.add("cache.l1_accesses", l1a, "count");
    m.add("cache.l1_miss_rate", ratio(l1m, l1a), "ratio");
    m.add("cache.llc_accesses", llca, "count");
    m.add("cache.llc_miss_rate", ratio(llcm, llca), "ratio");
    m.add("cache.llc_parallelism", arithmeticMean(llc_par), "slices");
    m.add("noc.latency_sm_cycles", arithmeticMean(noc_lat), "cycles");
    m.add("dram.reads", reads, "count");
    m.add("dram.writes", writes, "count");
    m.add("dram.activations", acts, "count");
    m.add("dram.row_hit_rate", ratio(row_total - row_miss, row_total),
          "ratio");
    m.add("dram.read_latency_cycles", ratio(lat, reads), "cycles");
    m.add("dram.bus_util", ratio(busy, bus_cycles), "ratio");
    m.add("dram.channel_parallelism", arithmeticMean(ch_par), "channels");
    m.add("dram.bank_parallelism", arithmeticMean(bank_par), "banks");
    m.add("power.dram_w", ratio(dram_j, secs), "W");
    m.add("power.system_w", ratio(sys_j, secs), "W");
}

/**
 * Peak resident set of this process image in MiB. VmHWM rather than
 * `getrusage`, whose maximum survives `exec` and would count the
 * shell that started the benchmark.
 */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB
    return 0.0;
}

/** Total seconds of the outermost profiler spans in a trace file. */
double
profileSeconds(const std::string &trace_path)
{
    std::ifstream in(trace_path);
    double us = 0.0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("{\"name\": \"profile ") == std::string::npos ||
            line.find("\"cat\": \"profiler\"") == std::string::npos)
            continue;
        const std::size_t d = line.find("\"dur\": ");
        if (d != std::string::npos)
            us += std::atof(line.c_str() + d + 7);
    }
    return us * 1e-6;
}

std::uint64_t
counterValue(const char *name)
{
    return metrics::counter(name).value();
}

/** Registry search counters, read before and after the traced passes. */
struct SearchCounters
{
    std::uint64_t evals, setupUs, annealUs, polishUs, toggles, xors,
        rebuilds;

    static SearchCounters
    read()
    {
        return {counterValue("search.evaluations"),
                counterValue("search.setup_us"),
                counterValue("search.anneal_us"),
                counterValue("search.polish_us"),
                counterValue("search.plane_toggles"),
                counterValue("search.plane_xors"),
                counterValue("search.plane_rebuilds")};
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
compilerId()
{
#if defined(__clang__)
    return "clang";
#elif defined(__GNUC__)
    return "gcc";
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: valley_bench --workload W [--seed S] "
                 "[--seconds N] [--trace 0|1] [--smoke] [--results DIR] "
                 "[--commit SHA]\n",
                 msg);
    return 2;
}

int
run(const Options &o)
{
    const double scale = o.smoke ? kSmokeScale : kScale;

    // Set-up runs before the first pass and again after every pass, so
    // that `setup_s`, their median, samples the whole run. Every
    // repetition must produce the same inputs.
    SpeedProbe probe;
    std::vector<double> setup_times;
    const auto setUp = [&] {
        probe.sample();
        const Clock::time_point t0 = Clock::now();
        Prepared p = prepare(o, scale);
        setup_times.push_back(secondsSince(t0));
        return p;
    };
    Bench bench(setUp(), scale, probe);
    const std::vector<Op> &ops = bench.operations();
    bool correct = true;

    std::filesystem::create_directories(o.results);
    const std::string stem = o.results + "/" + o.workload + ".s" +
                             std::to_string(o.seed) +
                             (o.trace ? ".traced" : "");
    const std::string trace_path = stem + ".chrome-trace.json";

    // Reference pass. Untraced runs keep measuring passes until the
    // next one would overrun --seconds; every pass must reproduce the
    // reference digests exactly.
    std::vector<OpResult> ref, cur;
    const Clock::time_point t_start = Clock::now();
    const double ref_seconds = bench.untracedPass(ref);
    std::vector<double> pass_seconds = {ref_seconds};
    std::vector<std::vector<double>> op_seconds(ops.size());
    const auto record = [&](const std::vector<OpResult> &pass) {
        const Prepared again = setUp();
        bool same = true;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            op_seconds[i].push_back(pass[i].seconds);
            same &= pass[i].digest == ref[i].digest &&
                    again.ops[i].requests == ops[i].requests;
        }
        return same;
    };
    correct &= record(ref);
    const auto morePasses = [&] {
        return secondsSince(t_start) + pass_seconds.back() <= o.seconds;
    };

    const SearchCounters before = SearchCounters::read();
    unsigned traced_passes = 0;
    double profile_s = 0.0;
    Replay replay;
    if (o.trace) {
        trace::enable(trace_path);
        do {
            pass_seconds.push_back(bench.tracedPass(cur));
            ++traced_passes;
            correct &= record(cur);
            // Flushing every pass keeps the per-thread event rings from
            // overwriting; the file ends up holding the last pass.
            if (!trace::flush())
                throw std::runtime_error("cannot write " + trace_path);
            profile_s += profileSeconds(trace_path);
        } while (morePasses());
        trace::disable();
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (bench.mappers[i])
                replay.cell(ops[i], *bench.mappers[i], scale);
    } else {
        while (morePasses()) {
            pass_seconds.push_back(bench.untracedPass(cur));
            correct &= record(cur);
        }
    }
    const SearchCounters after = SearchCounters::read();
    correct &= bench.failed == 0;

    // Throughput over the whole op list, each op timed by its median
    // over the passes, so one disturbed op does not move the result.
    std::uint64_t pass_requests = 0, requests = 0, instructions = 0;
    std::uint64_t cycles = 0;
    double op_median_sum = 0.0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        pass_requests += ops[i].requests;
        requests += ref[i].run.requests;
        instructions += ref[i].run.instructions;
        cycles += ref[i].run.cycles;
        op_median_sum += median(op_seconds[i]);
    }

    const MetricList sim = simMetrics(ops, ref);
    MetricList out;
    const double kreq_raw = ratio(static_cast<double>(pass_requests),
                                  op_median_sum * 1000.0);
    if (!o.trace) {
        out.add("kreq_per_s",
                ratio(static_cast<double>(pass_requests),
                      probe.calibrated(op_median_sum) * 1000.0),
                "kreq/s");
        out.add("setup_s", probe.calibrated(median(setup_times)), "s");
        out.add("peak_rss_mb", peakRssMiB(), "MiB");
    } else {
        // Per-pass means over the traced passes.
        const double n = traced_passes;
        const LayerTimes &t = bench.layers;
        const auto d = [&](std::uint64_t SearchCounters::*f) {
            return static_cast<double>(after.*f - before.*f) / n;
        };
        const double run_s = t.run / n;
        const double s_setup = d(&SearchCounters::setupUs) * 1e-6;
        const double s_anneal = d(&SearchCounters::annealUs) * 1e-6;
        const double s_polish = d(&SearchCounters::polishUs) * 1e-6;
        const double s_chains = s_setup + s_anneal + s_polish;
        std::uint64_t accepted = 0, rejected = 0, evals = 0;
        for (const OpResult &r : ref) {
            accepted += r.accepted;
            rejected += r.rejectedSingular;
            evals += r.evaluations;
        }
        double traced_mean = 0;
        for (std::size_t k = 1; k < pass_seconds.size(); ++k)
            traced_mean += pass_seconds[k] / n;

        out.add("gpu.run_s", run_s, "s");
        out.add("gpu.loop_s", run_s - replay.traceGen - replay.premap,
                "s");
        out.add("gpu.ns_per_cycle",
                ratio(run_s * 1e9, static_cast<double>(cycles)), "ns");
        out.add("workloads.make_s", t.make / n, "s");
        out.add("workloads.trace_gen_s", replay.traceGen, "s");
        out.add("bim.premap_s", replay.premap, "s");
        out.add("mapping.make_mapper_s", t.makeMapper / n, "s");
        out.add("search.set_mapper_s", t.setMapper / n, "s");
        out.add("search.search_set_s", t.searchSet / n, "s");
        out.add("search.setup_s", s_setup, "s");
        out.add("search.anneal_s", s_anneal, "s");
        out.add("search.polish_s", s_polish, "s");
        out.add("search.other_s",
                std::max(0.0, (t.setMapper + t.searchSet) / n - s_chains),
                "s");
        out.add("search.evaluations", d(&SearchCounters::evals), "count");
        out.add("search.evals_per_s",
                ratio(d(&SearchCounters::evals), s_chains), "1/s");
        out.add("search.accept_ratio",
                ratio(static_cast<double>(accepted),
                      static_cast<double>(evals)),
                "ratio");
        out.add("search.rejected_singular", static_cast<double>(rejected),
                "count");
        out.add("search.plane_toggles", d(&SearchCounters::toggles),
                "count");
        out.add("search.plane_xors", d(&SearchCounters::xors), "count");
        out.add("search.plane_rebuilds", d(&SearchCounters::rebuilds),
                "count");
        out.add("workloads.profile_s", profile_s / n, "s");
        addSimLayers(out, ref, SimConfig::paperBaseline());
        out.add("harness.self_s", t.self / n, "s");
        out.add("trace.overhead_frac",
                ratio(traced_mean, ref_seconds) - 1.0, "ratio");
        for (const auto &e : sim.entries)
            out.add(e.name, e.value, e.unit);
    }

    // Human-readable report, then the result file, then the JSON line.
    std::printf("workload %s seed %llu scale %g: %zu ops x %zu passes, "
                "%llu failed\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), scale,
                ops.size(), pass_seconds.size(),
                static_cast<unsigned long long>(bench.failed));
    for (std::size_t i = 0; i < ops.size(); ++i)
        std::printf("  op#%-3zu %-52s %8.3f s digest %s\n", i,
                    ops[i].label().c_str(), ref[i].seconds,
                    hex(ref[i].digest).c_str());
    out.print();
    if (!o.trace)
        sim.print();

    std::ofstream f(stem + ".json");
    f << "{\n  \"workload\": " << jsonString(o.workload)
      << ",\n  \"seed\": " << o.seed << ",\n  \"scale\": " << scale
      << ",\n  \"trace\": " << (o.trace ? 1 : 0)
      << ",\n  \"provenance\": {\"commit\": " << jsonString(o.commit)
      << ", \"compiler\": " << jsonString(compilerId())
      << ", \"compiler_version\": " << jsonString(__VERSION__)
      << ", \"build_type\": " << jsonString(VALLEY_BENCH_BUILD_TYPE)
      << ", \"simd_level\": " << jsonString(bits::simdOps().name)
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << "},\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << bench.attempted
      << ",\n  \"failed\": " << bench.failed
      << ",\n  \"pass_seconds\": [";
    for (std::size_t k = 0; k < pass_seconds.size(); ++k)
        f << (k ? ", " : "") << pass_seconds[k];
    f << "]"
      << ",\n  \"requests\": " << requests
      << ",\n  \"instructions\": " << instructions
      << ",\n  \"cycles\": " << cycles
      << ",\n  \"trace_lines\": " << replay.lines
      << ",\n  \"premap_checksum\": " << jsonString(hex(replay.checksum))
      << ",\n  \"host\": {\"probe_s\": " << probe.seconds()
      << ", \"probe_reference_s\": " << SpeedProbe::kReferenceSeconds
      << ", \"kreq_per_s\": " << kreq_raw
      << ", \"setup_s\": " << median(setup_times)
      << ", \"probe_checksum\": " << jsonString(hex(probe.checksum()))
      << "}"
      << ",\n  \"metrics\": " << out.json()
      << ",\n  \"sim\": " << sim.json() << ",\n  \"digests\": [";
    for (std::size_t i = 0; i < ops.size(); ++i)
        f << (i ? ", " : "") << jsonString(ops[i].label() + " " +
                                           hex(ref[i].digest));
    f << "]\n}\n";
    f.close();
    if (!f)
        std::fprintf(stderr, "warning: could not write %s.json\n",
                     stem.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(bench.attempted),
                static_cast<unsigned long long>(bench.failed),
                out.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Tracing is switched on per pass by the benchmark itself; an
    // environment-wide trace would time the untraced passes traced.
    // _Exit: the library armed an at-exit flush for that trace.
    if (std::getenv("VALLEY_TRACE")) {
        usage("valley_bench: unset VALLEY_TRACE; use --trace 1");
        std::_Exit(2);
    }
    // Every op must do its full work: no on-disk cache may serve it.
    setenv("VALLEY_CACHE", "0", 1);

    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = value() != "0";
            else if (a == "--smoke")
                o.smoke = true;
            else if (a == "--results")
                o.results = value();
            else if (a == "--commit")
                o.commit = value();
            else
                return usage(("unknown argument " + a).c_str());
        } catch (const std::exception &e) {
            return usage(e.what());
        }
    }
    if (o.workload.empty())
        return usage("--workload is required");
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "valley_bench: %s\n", e.what());
        return 1;
    }
}
