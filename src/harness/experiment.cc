#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/fault_inject.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "harness/atomic_io.hh"
#include "harness/grid_journal.hh"
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "synth/registry.hh"
#include "workloads/workload_set.hh"

namespace valley {
namespace harness {

namespace {

/** Search options every searched-scheme grid cell uses. */
search::SearchOptions
cellSearchOptions(const SimConfig &config, std::uint64_t bim_seed)
{
    // Restarts stay serial here — grid cells already fan out over the
    // harness thread pool — and the search is deterministic in
    // (workload set, scale, layout, window, seed), so cells remain
    // bit-reproducible.
    search::SearchOptions so = search::defaultOptions(config.layout);
    so.seed = bim_seed;
    so.window = config.numSms;
    so.threads = 1;
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
    // '|' (journal line separator) inside one field can never
    // collide two different cells onto one identity.
    return cacheKey(workloads::escapeSpecField(config.name),
                    workloads::escapeSpecField(workload_key),
                    workloads::escapeSpecField(scheme_id), bim_seed,
                    scale, mapping::layoutIdentity(config.layout));
}

/** `GridOptions::checkpoint`, overridable by VALLEY_CHECKPOINT. */
bool
checkpointEnabled(const GridOptions &opts)
{
    if (opts.checkpoint)
        return true;
    const char *env = std::getenv("VALLEY_CHECKPOINT");
    return env && *env && std::string(env) != "0";
}

/**
 * Everything that makes two grids "the same grid" for resume
 * purposes. Cell keys alone already disambiguate cells, but hashing
 * the identity into the journal *path* keeps each grid's journal
 * self-contained (and lets an unrelated grid start fresh instead of
 * loading thousands of foreign records).
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
    // share a journal file.
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
             const std::string &workload, double scale)
{
    const auto wl = workloads::make(workload, scale);
    GpuSystem sim(config, mapper);
    return sim.run(*wl);
}

} // namespace

RunResult
runOne(const SimConfig &config, const std::string &mapper_spec,
       const std::string &workload, double scale,
       std::uint64_t bim_seed, const workloads::WorkloadSet *joint_set)
{
    const mapping::ResolvedMapperSpec resolved =
        mapping::resolveMapperSpec(mapper_spec);
    const mapping::MapperFamily &family = resolved.family();

    std::unique_ptr<AddressMapper> mapper;
    if (family.name == "sbim") {
        // Profile-driven searched mapping over this one workload's
        // trace planes: the size-1 set, named "SBIM" by default.
        mapper = search::setMapper(
            config.layout, workloads::WorkloadSet({workload}),
            cellSearchOptions(config, bim_seed), scale);
    } else if (family.name == "gbim") {
        // Global searched mapping: one BIM annealed jointly against
        // the whole set — the deployment story the per-workload SBIM
        // column is compared against. (Grid cells share the matrix
        // in memory via runGrid; this standalone path rebuilds it,
        // through the SBIM cache when enabled.) Named after the
        // *requested family*: a size-1 set would otherwise label the
        // cell's RunResult "SBIM".
        const workloads::WorkloadSet fallback({workload});
        mapper = search::setMapper(
            config.layout, joint_set ? *joint_set : fallback,
            cellSearchOptions(config, bim_seed), scale, "GBIM");
    } else if (family.needsProfiles) {
        throw std::invalid_argument(
            "runOne: " + resolved.canonical() +
            " requires workload profiles and has no search routing");
    } else {
        mapper = mapping::makeMapper(mapper_spec, config.layout,
                                     bim_seed);
    }
    return simulateCell(config, *mapper, workload, scale);
}

RunResult
runOneCached(const SimConfig &config, const std::string &mapper_spec,
             const std::string &workload, double scale,
             std::uint64_t bim_seed,
             const workloads::WorkloadSet *joint_set)
{
    const std::string key = cellCacheKey(config, mapper_spec, workload,
                                         bim_seed, scale, joint_set);
    if (auto hit = resultCache().lookup(key)) {
        hit->config = config.name;
        return *hit;
    }
    RunResult r = runOne(config, mapper_spec, workload, scale, bim_seed,
                         joint_set);
    resultCache().store(key, r);
    return r;
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
Grid::sIndex(Scheme s) const
{
    return sIndex(mapping::schemeSpec(s));
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
Grid::at(const std::string &workload, Scheme s) const
{
    return results[wIndex(workload)][sIndex(s)];
}

const RunResult &
Grid::at(const std::string &workload,
         const std::string &mapper_spec) const
{
    return results[wIndex(workload)][sIndex(mapper_spec)];
}

double
Grid::speedup(const std::string &workload, Scheme s) const
{
    const RunResult &base = at(workload, Scheme::BASE);
    const RunResult &r = at(workload, s);
    return r.seconds > 0.0 ? base.seconds / r.seconds : 0.0;
}

double
Grid::speedup(const std::string &workload,
              const std::string &mapper_spec) const
{
    const RunResult &base = at(workload, Scheme::BASE);
    const RunResult &r = at(workload, mapper_spec);
    return r.seconds > 0.0 ? base.seconds / r.seconds : 0.0;
}

double
Grid::dramPowerNorm(const std::string &workload, Scheme s) const
{
    const double base = at(workload, Scheme::BASE).dramPower.totalW();
    const double v = at(workload, s).dramPower.totalW();
    return base > 0.0 ? v / base : 0.0;
}

double
Grid::systemPowerNorm(const std::string &workload, Scheme s) const
{
    const double base = at(workload, Scheme::BASE).systemPowerW;
    const double v = at(workload, s).systemPowerW;
    return base > 0.0 ? v / base : 0.0;
}

double
Grid::perfPerWattNorm(const std::string &workload, Scheme s) const
{
    const double base =
        at(workload, Scheme::BASE).performancePerWatt();
    const double v = at(workload, s).performancePerWatt();
    return base > 0.0 ? v / base : 0.0;
}

double
Grid::hmeanSpeedup(Scheme s) const
{
    std::vector<double> v;
    v.reserve(opts.workloads.size());
    for (const auto &w : opts.workloads)
        v.push_back(speedup(w, s));
    return harmonicMean(v);
}

double
Grid::mean(Scheme s,
           const std::function<double(const RunResult &)> &metric) const
{
    std::vector<double> v;
    v.reserve(opts.workloads.size());
    for (const auto &w : opts.workloads)
        v.push_back(metric(at(w, s)));
    return arithmeticMean(v);
}

double
Grid::meanDramPowerNorm(Scheme s) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads)
        v.push_back(dramPowerNorm(w, s));
    return arithmeticMean(v);
}

double
Grid::meanExecTimeNorm(Scheme s) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads) {
        const double sp = speedup(w, s);
        v.push_back(sp > 0.0 ? 1.0 / sp : 0.0);
    }
    return arithmeticMean(v);
}

double
Grid::meanSystemPowerNorm(Scheme s) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads)
        v.push_back(systemPowerNorm(w, s));
    return arithmeticMean(v);
}

double
Grid::hmeanPerfPerWattNorm(Scheme s) const
{
    std::vector<double> v;
    for (const auto &w : opts.workloads)
        v.push_back(perfPerWattNorm(w, s));
    return harmonicMean(v);
}

void
normalizeGridAxes(GridOptions &opts)
{
    if (opts.mappers.empty())
        for (Scheme s : opts.schemes)
            opts.mappers.push_back(mapping::schemeSpec(s));
    for (auto &m : opts.mappers)
        m = mapping::canonicalMapperSpec(m);
}

namespace {

/** One resolved entry of the grid's mapper axis. */
struct MapperAxisEntry
{
    std::string spec;  ///< canonical spec (cache/journal identity)
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

    // One canonical joint set for every GBIM cell of this grid: the
    // explicit override, or the grid's own workload axis — "the best
    // single BIM for the workloads being compared". The searched
    // mapper is built lazily, at most once, and shared in memory
    // across cells (AddressMapper is immutable after construction),
    // so a cold parallel grid never races N identical annealing
    // searches — with or without the on-disk caches.
    std::unique_ptr<workloads::WorkloadSet> joint;
    if (std::any_of(axis.begin(), axis.end(),
                    [](const MapperAxisEntry &e) { return e.gbim; }))
        joint = std::make_unique<workloads::WorkloadSet>(
            opts.jointSet.empty() ? opts.workloads : opts.jointSet);
    std::unique_ptr<AddressMapper> gbim_mapper;
    std::once_flag gbim_once;
    const auto sharedGbim = [&]() -> const AddressMapper & {
        std::call_once(gbim_once, [&] {
            gbim_mapper = search::setMapper(
                opts.config.layout, *joint,
                cellSearchOptions(opts.config, opts.bimSeed),
                opts.scale, "GBIM");
        });
        return *gbim_mapper;
    };

    // Checkpoint journal: load once up front (the maps are then
    // read-only, so parallel cells need no lock), append one record
    // per finished cell. Resume = skip every journaled cell with its
    // recorded result — bit-identical because the journal round-trips
    // doubles exactly. Poisoned cells are skipped with their recorded
    // reason instead of being re-simulated.
    const bool checkpoint = checkpointEnabled(opts);
    const std::string identity = gridIdentity(opts, joint.get());
    std::unique_ptr<GridJournal> journal;
    JournalContents done_cells;
    if (checkpoint) {
        journal = std::make_unique<GridJournal>(
            GridJournal::pathFor(identity));
        done_cells = journal->loadAll();
    }

    // The grid's cancellation scope: a child of the caller's token
    // (so external SIGINT/service cancellation propagates) carrying
    // this grid's own wall-clock deadline, when one is configured.
    // Checked at cell boundaries only — a started cell always runs
    // to completion, keeping journaled results deterministic.
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

    const unsigned max_attempts = std::max(1u, opts.maxAttempts);
    const std::size_t cells = opts.workloads.size() * axis.size();
    std::atomic<std::size_t> cells_done{0};
    std::atomic<std::size_t> cells_resumed{0};

    // Registry mirrors of the progress counters above: one source of
    // truth per event site (each atomic bump below has exactly one
    // matching registry bump), exported via --metrics / grid_report.
    metrics::Counter &m_done = metrics::counter("grid.cells_done");
    metrics::Counter &m_resumed =
        metrics::counter("grid.cells_resumed");
    metrics::Counter &m_retried = metrics::counter("grid.cells_retried");
    metrics::Counter &m_retries = metrics::counter("grid.cell_retries");
    metrics::Counter &m_poisoned =
        metrics::counter("grid.cells_poisoned");
    metrics::Histogram &m_cell_us = metrics::histogram("grid.cell_us");

    // Per-cell outcome slots for the report: like `results`, each
    // cell writes only its own entry, so no lock is needed.
    std::vector<CellStatus> status(cells, CellStatus::NotRun);
    std::vector<unsigned> attempts_used(cells, 0);
    std::vector<std::string> fail_reason(cells);

    const auto runCell = [&](std::size_t wi, std::size_t si) {
        const std::string &w = opts.workloads[wi];
        const MapperAxisEntry &m = axis[si];
        const std::size_t idx = wi * axis.size() + si;
        trace::Span cell_span(
            trace::enabled() ? "cell " + w + "/" + m.label
                             : std::string(),
            "grid");
        const std::string key =
            (checkpoint || opts.useCache)
                ? cellCacheKey(opts.config, m.spec, w, opts.bimSeed,
                               opts.scale, joint.get())
                : std::string();
        if (checkpoint) {
            const auto it = done_cells.cells.find(key);
            if (it != done_cells.cells.end()) {
                RunResult r = it->second;
                r.config = opts.config.name;
                results[wi][si] = std::move(r);
                status[idx] = CellStatus::Resumed;
                cells_resumed.fetch_add(1,
                                        std::memory_order_relaxed);
                m_resumed.inc();
                m_done.inc();
                const std::size_t d = cells_done.fetch_add(1) + 1;
                if (opts.progress)
                    std::fprintf(stderr,
                                 "[grid] %-6s %-5s resumed from "
                                 "journal (%zu/%zu)\n",
                                 w.c_str(), m.label.c_str(), d,
                                 cells);
                return;
            }
            const auto pit = done_cells.poisoned.find(key);
            if (pit != done_cells.poisoned.end()) {
                // Quarantined by an earlier run: one pathological
                // cell costs one skip per sweep, not a fresh crash.
                status[idx] = CellStatus::Poisoned;
                fail_reason[idx] = pit->second;
                m_poisoned.inc();
                m_done.inc();
                cells_done.fetch_add(1);
                if (opts.progress)
                    std::fprintf(stderr,
                                 "[grid] %-6s %-5s skipped: poisoned "
                                 "by earlier run (%s)\n",
                                 w.c_str(), m.label.c_str(),
                                 pit->second.c_str());
                return;
            }
        }
        if (token.cancelled()) {
            // Deadline/cancellation fired before this cell started:
            // leave it NotRun (classified DeadlineMissed below) so
            // the journal never records a rushed or partial result.
            return;
        }
        if (opts.progress)
            std::fprintf(stderr, "[grid] %-6s %-5s %s...\n", w.c_str(),
                         m.label.c_str(),
                         opts.config.name.c_str());
        metrics::ScopedTimer cell_timer(m_cell_us);
        for (unsigned attempt = 1;; ++attempt) {
            attempts_used[idx] = attempt;
            try {
                // Fault-injection site: counts per simulation
                // *attempt* and skips resumed cells, so a resumed run
                // with the same VALLEY_FAULT_INJECT spec dies N *new*
                // attempts further in, not at the same spot forever.
                fault::maybeInject("grid_cell");
                if (m.gbim && joint) {
                    // GBIM cells simulate under the one shared
                    // matrix; the result cache still short-circuits
                    // repeat grids (and, on a full hit, the search
                    // never runs at all).
                    bool hit_cache = false;
                    if (opts.useCache) {
                        if (auto hit = resultCache().lookup(key)) {
                            hit->config = opts.config.name;
                            results[wi][si] = *hit;
                            hit_cache = true;
                        }
                    }
                    if (!hit_cache) {
                        results[wi][si] = simulateCell(
                            opts.config, sharedGbim(), w, opts.scale);
                        if (opts.useCache)
                            resultCache().store(key,
                                                results[wi][si]);
                    }
                } else {
                    results[wi][si] =
                        opts.useCache
                            ? runOneCached(opts.config, m.spec, w,
                                           opts.scale, opts.bimSeed,
                                           joint.get())
                            : runOne(opts.config, m.spec, w, opts.scale,
                                     opts.bimSeed, joint.get());
                }
                if (checkpoint)
                    journal->record(key, results[wi][si]);
                if (attempt > 1) {
                    status[idx] = CellStatus::Retried;
                    m_retried.inc();
                } else {
                    status[idx] = CellStatus::Ok;
                }
                break;
            } catch (const std::exception &e) {
                if (attempt < max_attempts && !token.cancelled()) {
                    m_retries.inc();
                    // Deterministic exponential backoff: delays only,
                    // never feeds into any computed result.
                    if (opts.retryBackoffMs != 0)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(
                                static_cast<std::uint64_t>(
                                    opts.retryBackoffMs)
                                << (attempt - 1)));
                    if (opts.progress)
                        std::fprintf(stderr,
                                     "[grid] %-6s %-5s attempt %u "
                                     "failed (%s), retrying\n",
                                     w.c_str(), m.label.c_str(),
                                     attempt, e.what());
                    continue;
                }
                if (!opts.poison)
                    throw; // historical contract: first failure aborts
                // Crash-consistency invariant 5: quarantine the cell
                // in the journal BEFORE surfacing the failure, so a
                // kill right here cannot lose the decision and make
                // the next run crash on the same cell again.
                if (checkpoint)
                    journal->recordPoisoned(key, e.what());
                status[idx] = CellStatus::Poisoned;
                m_poisoned.inc();
                fail_reason[idx] = e.what();
                if (opts.progress)
                    std::fprintf(stderr,
                                 "[grid] %-6s %-5s poisoned after %u "
                                 "attempt(s): %s\n",
                                 w.c_str(), m.label.c_str(),
                                 attempt, e.what());
                break;
            }
        }
        m_done.inc();
        const std::size_t d = cells_done.fetch_add(1) + 1;
        if (opts.progress)
            std::fprintf(stderr, "[grid] %zu/%zu cells done\n", d,
                         cells);
    };

    const unsigned threads = opts.threads == 0
                                 ? ThreadPool::defaultThreads()
                                 : opts.threads;
    std::uint64_t steals = 0;
    if (threads <= 1 || cells <= 1) {
        for (std::size_t wi = 0; wi < opts.workloads.size(); ++wi)
            for (std::size_t si = 0; si < axis.size(); ++si)
                runCell(wi, si);
    } else {
        ThreadPool pool(
            static_cast<unsigned>(std::min<std::size_t>(threads,
                                                        cells)));
        for (std::size_t wi = 0; wi < opts.workloads.size(); ++wi)
            for (std::size_t si = 0; si < axis.size(); ++si)
                pool.submit([&runCell, wi, si] { runCell(wi, si); });
        // The token lets the pool skip (claim-and-retire) cells that
        // have not started when the deadline fires; runCell's own
        // cancelled() check classifies them below.
        pool.run(&token);
        steals = pool.stealCount();
    }

    // Classify cells the deadline prevented from starting.
    GridReport report;
    report.gridId = gridIdHex(identity);
    report.steals = steals;
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
            c.attempts = attempts_used[idx];
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
                     "[grid] done: %zu/%zu cells (%zu resumed, "
                     "%zu retried, %zu poisoned, %zu deadline-missed, "
                     "%llu stolen, %llu cache lines quarantined)\n",
                     cells_done.load(), cells, cells_resumed.load(),
                     report.retried, report.poisoned,
                     report.deadlineMissed,
                     static_cast<unsigned long long>(steals),
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
