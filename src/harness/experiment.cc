#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/metrics.hh"
#include "common/parallel_for.hh"
#include "common/stats.hh"
#include "common/trace_span.hh"
#include "harness/atomic_io.hh"
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "synth/registry.hh"
#include "workloads/workload_set.hh"

namespace valley {
namespace harness {

namespace {

/**
 * Search options every searched-scheme grid cell uses. A search the
 * token cuts short is followed by a simulation that throws
 * `Cancelled` at its first poll, so no result, cached or not, comes
 * from a truncated matrix.
 */
search::SearchOptions
cellSearchOptions(const SimConfig &config, std::uint64_t bim_seed,
                  const CancelToken *cancel)
{
    // Restarts stay serial here — the grid already runs its cells in
    // parallel (`parallelFor`) — and the search is deterministic in
    // (workload set, scale, layout, window, seed), so cells remain
    // bit-reproducible.
    search::SearchOptions so = search::defaultOptions(config.layout);
    so.seed = bim_seed;
    so.window = config.numSms;
    so.threads = 1;
    so.cancel = cancel;
    return so;
}

/**
 * Result-cache key of one cell. Searched matrices depend on the
 * search implementation, not just the seed, so their cells carry the
 * search version in the scheme slot; GBIM cells additionally carry
 * the joint set's canonical hash (the same workload simulates
 * differently under different sets). The layout identity is a
 * first-class key field so the same config name over two layout
 * presets can never collide.
 */
std::string
cellCacheKey(const SimConfig &config, const std::string &mapper_spec,
             const std::string &workload, std::uint64_t bim_seed,
             double scale, const workloads::WorkloadSet *joint_set)
{
    // Mapper specs key on their canonical form, like synth workload
    // specs: reordered parameters or redundant defaults hit the same
    // cells.
    const mapping::ResolvedMapperSpec resolved =
        mapping::resolveMapperSpec(mapper_spec);
    std::string scheme_id = resolved.canonical();
    const std::string &family = resolved.family().name;
    if (family == "sbim") {
        scheme_id += std::string("@") + search::kSearchVersion;
    } else if (family == "gbim") {
        const workloads::WorkloadSet set =
            joint_set ? *joint_set : workloads::WorkloadSet({workload});
        scheme_id += std::string("@") + search::kSearchVersion + "@" +
                     set.shortId();
    }
    // Synth specs key on their canonical form, so reordered keys or
    // redundant defaults hit the same cells (the identity guarantee
    // of synth/registry.hh).
    const std::string workload_key =
        synth::isSynthSpec(workload)
            ? synth::resolve(workload).canonical()
            : workload;
    // Free-form and spec-bearing fields are percent-escaped: a ','
    // (mapper/synth parameter lists), ';' (key field separator) or
    // '|' (record separator) inside one field can never collide two
    // different cells onto one identity.
    return cacheKey(workloads::escapeSpecField(config.name),
                    workloads::escapeSpecField(workload_key),
                    workloads::escapeSpecField(scheme_id), bim_seed,
                    scale, mapping::layoutIdentity(config.layout));
}

/**
 * Everything that makes two grids "the same grid": the identity the
 * grid report is filed under. Cell keys alone already disambiguate
 * cells; this names the whole run.
 */
std::string
gridIdentity(const GridOptions &opts,
             const workloads::WorkloadSet *joint)
{
    std::ostringstream out;
    out.precision(17);
    // Free-form fields (config name, workloads, the joint-set key —
    // which is itself escaped but re-escaped here for uniformity)
    // are percent-escaped so a ';' or ',' inside one of them cannot
    // make two different grids serialize to the same identity and
    // share a report file.
    out << workloads::escapeSpecField(opts.config.name) << ';'
        << opts.bimSeed << ';' << opts.scale << ';';
    for (const auto &w : opts.workloads)
        out << workloads::escapeSpecField(w) << ',';
    out << ';';
    for (const auto &m : opts.mappers)
        out << workloads::escapeSpecField(m) << ',';
    out << ';' << mapping::layoutIdentity(opts.config.layout) << ';'
        << workloads::escapeSpecField(joint ? joint->key()
                                            : std::string());
    return out.str();
}

/** Simulate one workload under an already-built mapper. */
RunResult
simulateCell(const SimConfig &config, const AddressMapper &mapper,
             const std::string &workload, double scale,
             const CancelToken *cancel)
{
    const auto wl = workloads::make(workload, scale);
    GpuSystem sim(config, mapper);
    return sim.run(*wl, cancel);
}

/**
 * The one cached path of a cell: a result-cache hit, restamped with
 * the active config's name (`RunResult::config` is not persisted), or
 * `compute()` stored under the cell's key. A hit never builds a
 * mapper, so a searched-BIM cell that hits runs no search. A
 * `compute` that throws (`Cancelled` included) stores nothing.
 */
RunResult
cachedCell(const SimConfig &config, const std::string &mapper_spec,
           const std::string &workload, double scale,
           std::uint64_t bim_seed, const workloads::WorkloadSet *joint_set,
           const std::function<RunResult()> &compute)
{
    const std::string key = cellCacheKey(config, mapper_spec, workload,
                                         bim_seed, scale, joint_set);
    if (auto hit = resultCache().lookup(key)) {
        hit->config = config.name;
        return *hit;
    }
    RunResult r = compute();
    resultCache().store(key, r);
    return r;
}

} // namespace

RunResult
runOne(const SimConfig &config, const std::string &mapper_spec,
       const std::string &workload, double scale,
       std::uint64_t bim_seed, const CancelToken *cancel)
{
    const mapping::ResolvedMapperSpec resolved =
        mapping::resolveMapperSpec(mapper_spec);
    const mapping::MapperFamily &family = resolved.family();

    std::unique_ptr<AddressMapper> mapper;
    if (family.name == "sbim" || family.name == "gbim") {
        // Profile-driven searched mapping over this one workload's
        // trace planes: the size-1 set. Named after the *requested
        // family*: a size-1 set would otherwise label a GBIM cell's
        // RunResult "SBIM".
        mapper = search::setMapper(
            config.layout, workloads::WorkloadSet({workload}),
            cellSearchOptions(config, bim_seed, cancel), scale,
            family.name == "gbim" ? "GBIM" : "");
    } else if (family.needsProfiles) {
        throw std::invalid_argument(
            "runOne: " + resolved.canonical() +
            " requires workload profiles and has no search routing");
    } else {
        mapper = mapping::makeMapper(mapper_spec, config.layout,
                                     bim_seed);
    }
    return simulateCell(config, *mapper, workload, scale, cancel);
}

RunResult
runOneCached(const SimConfig &config, const std::string &mapper_spec,
             const std::string &workload, double scale,
             std::uint64_t bim_seed, const CancelToken *cancel)
{
    return cachedCell(config, mapper_spec, workload, scale, bim_seed,
                      nullptr, [&] {
                          return runOne(config, mapper_spec, workload,
                                        scale, bim_seed, cancel);
                      });
}

Grid::Grid(GridOptions opts_, std::vector<std::vector<RunResult>> res,
           GridReport report)
    : opts(std::move(opts_)), results(std::move(res)),
      report_(std::move(report))
{
    // runGrid normalizes before construction; this keeps direct
    // constructions (tests, embedders) consistent too.
    normalizeGridAxes(opts);
}

std::size_t
Grid::wIndex(const std::string &workload) const
{
    for (std::size_t i = 0; i < opts.workloads.size(); ++i)
        if (opts.workloads[i] == workload)
            return i;
    throw std::out_of_range("grid: unknown workload " + workload);
}

std::size_t
Grid::sIndex(const std::string &mapper_spec) const
{
    const std::string canon = mapping::canonicalMapperSpec(mapper_spec);
    for (std::size_t i = 0; i < opts.mappers.size(); ++i)
        if (opts.mappers[i] == canon)
            return i;
    throw std::out_of_range("grid: mapper " + canon + " not in grid");
}

const RunResult &
Grid::at(const std::string &workload,
         const std::string &mapper_spec) const
{
    return results[wIndex(workload)][sIndex(mapper_spec)];
}

double
Grid::speedup(const std::string &workload,
              const std::string &mapper_spec) const
{
    const RunResult &base = at(workload, mapping::kBase);
    const RunResult &r = at(workload, mapper_spec);
    return r.seconds > 0.0 ? base.seconds / r.seconds : 0.0;
}

double
Grid::dramPowerNorm(const std::string &workload,
                    const std::string &mapper_spec) const
{
    const double base = at(workload, mapping::kBase).dramPower.totalW();
    const double v = at(workload, mapper_spec).dramPower.totalW();
    return base > 0.0 ? v / base : 0.0;
}

double
Grid::systemPowerNorm(const std::string &workload,
                      const std::string &mapper_spec) const
{
    const double base = at(workload, mapping::kBase).systemPowerW;
    const double v = at(workload, mapper_spec).systemPowerW;
    return base > 0.0 ? v / base : 0.0;
}

double
Grid::perfPerWattNorm(const std::string &workload,
                      const std::string &mapper_spec) const
{
    const double base =
        at(workload, mapping::kBase).performancePerWatt();
    const double v = at(workload, mapper_spec).performancePerWatt();
    return base > 0.0 ? v / base : 0.0;
}

double
Grid::hmeanSpeedup(const std::string &mapper_spec) const
{
    std::vector<double> v;
    v.reserve(opts.workloads.size());
    for (const auto &w : opts.workloads)
        v.push_back(speedup(w, mapper_spec));
    return harmonicMean(v);
}

double
Grid::mean(const std::string &mapper_spec,
           const std::function<double(const RunResult &)> &metric) const
{
    std::vector<double> v;
    v.reserve(opts.workloads.size());
    for (const auto &w : opts.workloads)
        v.push_back(metric(at(w, mapper_spec)));
    return arithmeticMean(v);
}

double
Grid::meanDramPowerNorm(const std::string &mapper_spec) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads)
        v.push_back(dramPowerNorm(w, mapper_spec));
    return arithmeticMean(v);
}

double
Grid::meanExecTimeNorm(const std::string &mapper_spec) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads) {
        const double sp = speedup(w, mapper_spec);
        v.push_back(sp > 0.0 ? 1.0 / sp : 0.0);
    }
    return arithmeticMean(v);
}

double
Grid::meanSystemPowerNorm(const std::string &mapper_spec) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads)
        v.push_back(systemPowerNorm(w, mapper_spec));
    return arithmeticMean(v);
}

double
Grid::hmeanPerfPerWattNorm(const std::string &mapper_spec) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads)
        v.push_back(perfPerWattNorm(w, mapper_spec));
    return harmonicMean(v);
}

void
normalizeGridAxes(GridOptions &opts)
{
    for (std::size_t i = 0; i < opts.mappers.size(); ++i) {
        opts.mappers[i] = mapping::canonicalMapperSpec(opts.mappers[i]);
        // Two spellings of one mapper would share a cell identity:
        // simulated twice, cached twice, reported twice.
        if (std::find(opts.mappers.begin(), opts.mappers.begin() + i,
                      opts.mappers[i]) != opts.mappers.begin() + i)
            throw std::invalid_argument("grid: mapper " +
                                        opts.mappers[i] +
                                        " appears twice on the axis");
    }
}

namespace {

/** One resolved entry of the grid's mapper axis. */
struct MapperAxisEntry
{
    std::string spec;  ///< canonical spec (cache identity)
    std::string label; ///< family display name (reports, progress)
    bool gbim = false; ///< shares the grid's one joint searched BIM
};

std::vector<MapperAxisEntry>
resolveMapperAxis(const GridOptions &opts)
{
    std::vector<MapperAxisEntry> axis;
    axis.reserve(opts.mappers.size());
    for (const auto &m : opts.mappers) {
        const mapping::ResolvedMapperSpec r =
            mapping::resolveMapperSpec(m);
        axis.push_back(
            {m, r.family().displayName(r), r.family().name == "gbim"});
    }
    return axis;
}

} // namespace

Grid
runGrid(GridOptions opts)
{
    normalizeGridAxes(opts);
    const std::vector<MapperAxisEntry> axis = resolveMapperAxis(opts);

    // Every cell writes only its own preallocated slot, so the result
    // placement is deterministic under any scheduling order.
    std::vector<std::vector<RunResult>> results(
        opts.workloads.size(),
        std::vector<RunResult>(axis.size()));

    // The grid's cancellation scope: a child of the caller's token
    // (so external SIGINT/service cancellation propagates) carrying
    // this grid's own wall-clock deadline, when one is configured.
    // Checked before each cell starts and polled by each cell's
    // search and simulation.
    CancelToken token =
        opts.cancel ? opts.cancel->child() : CancelToken();
    std::uint64_t deadline_ms = opts.deadlineMs;
    if (deadline_ms == 0) {
        if (const auto env = CancelToken::envDeadlineMs())
            deadline_ms = static_cast<std::uint64_t>(env->count());
    }
    if (deadline_ms != 0)
        token.setDeadline(Deadline::after(
            std::chrono::milliseconds(deadline_ms)));

    // One canonical joint set for every GBIM cell of this grid: the
    // grid's own workload axis — "the best single BIM for the
    // workloads being compared". The searched mapper is built lazily,
    // at most once, and shared in memory across cells (AddressMapper
    // is immutable after construction), so a parallel grid never
    // races N identical annealing searches, and a grid whose GBIM
    // cells all hit the result cache runs none.
    std::unique_ptr<workloads::WorkloadSet> joint;
    if (std::any_of(axis.begin(), axis.end(),
                    [](const MapperAxisEntry &e) { return e.gbim; }))
        joint = std::make_unique<workloads::WorkloadSet>(opts.workloads);
    std::unique_ptr<AddressMapper> gbim_mapper;
    std::once_flag gbim_once;
    const auto sharedGbim = [&]() -> const AddressMapper & {
        std::call_once(gbim_once, [&] {
            gbim_mapper = search::setMapper(
                opts.config.layout, *joint,
                cellSearchOptions(opts.config, opts.bimSeed, &token),
                opts.scale, "GBIM");
        });
        return *gbim_mapper;
    };

    const std::size_t cells = opts.workloads.size() * axis.size();
    std::atomic<std::size_t> cells_done{0};

    // Registry mirrors of the progress counters: one source of truth
    // per event site, exported via --metrics / grid_report.
    metrics::Counter &m_done = metrics::counter("grid.cells_done");
    metrics::Counter &m_poisoned =
        metrics::counter("grid.cells_poisoned");
    metrics::Histogram &m_cell_us = metrics::histogram("grid.cell_us");

    // Per-cell outcome slots for the report: like `results`, each
    // cell writes only its own entry, so no lock is needed.
    std::vector<CellStatus> status(cells, CellStatus::NotRun);
    std::vector<std::string> fail_reason(cells);

    // Cell idx = wi * axis.size() + si, in grid order. A cell the
    // token stopped, before it started or while it ran, stays NotRun
    // (reported deadline-missed) and is never cached: a cell is either
    // fully simulated or not run.
    const auto runCell = [&](std::size_t idx) {
        const std::size_t wi = idx / axis.size();
        const std::size_t si = idx % axis.size();
        const std::string &w = opts.workloads[wi];
        const MapperAxisEntry &m = axis[si];
        trace::Span cell_span(
            trace::enabled() ? "cell " + w + "/" + m.label
                             : std::string(),
            "grid");
        if (opts.progress)
            std::fprintf(stderr, "[grid] %-6s %-5s %s...\n", w.c_str(),
                         m.label.c_str(),
                         opts.config.name.c_str());
        metrics::ScopedTimer cell_timer(m_cell_us);
        // GBIM cells simulate under the one shared matrix.
        const auto compute = [&]() -> RunResult {
            if (m.gbim)
                return simulateCell(opts.config, sharedGbim(), w,
                                    opts.scale, &token);
            return runOne(opts.config, m.spec, w, opts.scale,
                          opts.bimSeed, &token);
        };
        try {
            results[wi][si] =
                opts.useCache
                    ? cachedCell(opts.config, m.spec, w, opts.scale,
                                 opts.bimSeed, joint.get(), compute)
                    : compute();
            status[idx] = CellStatus::Ok;
        } catch (const Cancelled &) {
            return;
        } catch (const std::exception &e) {
            if (!opts.poison)
                throw; // parallelFor rethrows it once every cell ran
            status[idx] = CellStatus::Poisoned;
            m_poisoned.inc();
            fail_reason[idx] = e.what();
            if (opts.progress)
                std::fprintf(stderr, "[grid] %-6s %-5s poisoned: %s\n",
                             w.c_str(), m.label.c_str(), e.what());
        }
        m_done.inc();
        const std::size_t d = cells_done.fetch_add(1) + 1;
        if (opts.progress)
            std::fprintf(stderr, "[grid] %zu/%zu cells done\n", d,
                         cells);
    };

    // The token stops cells that have not started when it fires.
    parallelFor(cells, opts.threads, runCell, &token);

    // Classify cells the token stopped.
    GridReport report;
    report.gridId = gridIdHex(gridIdentity(opts, joint.get()));
    report.quarantinedLines = quarantinedLineCount();
    report.deadlineHit = token.cancelled();
    report.cells.reserve(cells);
    for (std::size_t wi = 0; wi < opts.workloads.size(); ++wi)
        for (std::size_t si = 0; si < axis.size(); ++si) {
            const std::size_t idx = wi * axis.size() + si;
            CellReport c;
            c.workload = opts.workloads[wi];
            c.scheme = axis[si].label;
            c.status = status[idx] == CellStatus::NotRun
                           ? CellStatus::DeadlineMissed
                           : status[idx];
            c.reason = fail_reason[idx];
            report.cells.push_back(std::move(c));
        }
    report.finalize();
    if (report.deadlineMissed != 0)
        metrics::counter("grid.cells_deadline_missed")
            .add(report.deadlineMissed);
    if (report.deadlineHit)
        metrics::counter("grid.deadline_hits").inc();
    if (opts.report && !report.write())
        std::fprintf(stderr, "[grid] warning: failed to write %s\n",
                     GridReport::pathFor(report.gridId).c_str());

    if (opts.progress)
        std::fprintf(stderr,
                     "[grid] done: %zu/%zu cells (%zu poisoned, "
                     "%zu deadline-missed, "
                     "%llu cache lines quarantined)\n",
                     cells_done.load(), cells, report.poisoned,
                     report.deadlineMissed,
                     static_cast<unsigned long long>(
                         quarantinedLineCount()));
    return Grid(std::move(opts), std::move(results),
                std::move(report));
}

std::vector<LayoutGrid>
runGrids(GridOptions opts)
{
    normalizeGridAxes(opts);
    const std::vector<std::string> layouts = opts.layouts;
    opts.layouts.clear();

    std::vector<LayoutGrid> out;
    if (layouts.empty()) {
        const std::string id =
            mapping::layoutIdentity(opts.config.layout);
        out.push_back({id, runGrid(std::move(opts))});
        return out;
    }
    for (const auto &spec : layouts) {
        GridOptions o = opts;
        // makeLayout throws with the registered-key list on an
        // unknown spec — before any cell has run.
        o.config.layout = mapping::makeLayout(spec);
        const std::string id = mapping::layoutIdentity(o.config.layout);
        if (opts.progress)
            std::fprintf(stderr, "[grid] layout %s (%s)\n", id.c_str(),
                         o.config.layout.name.c_str());
        out.push_back({id, runGrid(std::move(o))});
    }
    return out;
}

} // namespace harness
} // namespace valley
