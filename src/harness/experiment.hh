/**
 * @file
 * Experiment harness: runs workloads x mappers grids, normalizes
 * metrics against `map:base`, and aggregates means the way the
 * paper's figures do (harmonic mean for speedups, arithmetic
 * elsewhere).
 */

#ifndef VALLEY_HARNESS_EXPERIMENT_HH
#define VALLEY_HARNESS_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "common/cancellation.hh"
#include "gpu/gpu_system.hh"
#include "gpu/run_result.hh"
#include "gpu/sim_config.hh"
#include "harness/grid_report.hh"
#include "mapping/mapper_registry.hh"
#include "workloads/workload.hh"
#include "workloads/workload_set.hh"

namespace valley {
namespace harness {

/** Grid options. */
struct GridOptions
{
    SimConfig config = SimConfig::paperBaseline();
    std::vector<std::string> workloads;  ///< Table II abbreviations

    /**
     * The grid's mapper axis as registry spec strings
     * (`map:FAMILY[,k=v]...` — mapping/mapper_registry.hh).
     * Canonicalized in place by `runGrid`, so
     * `Grid::options().mappers` always holds canonical specs.
     */
    std::vector<std::string> mappers = mapping::paperMappers();

    /**
     * Layout axis for `runGrids`: `layout:KEY` specs
     * (mapping/layout_registry.hh). Empty = just `config.layout`.
     * Plain `runGrid` ignores this and runs `config.layout` only.
     */
    std::vector<std::string> layouts;

    std::uint64_t bimSeed = 1;           ///< "BIM-1" of Fig. 19
    double scale = 1.0;                  ///< workload problem scale

    /**
     * Log progress to stderr: one line per launched cell, a running
     * cells-done / total counter, and a final summary including the
     * cache-quarantine counter.
     */
    bool progress = false;

    /**
     * Memoize cells in the on-disk result cache (result_cache.hh)
     * and serve matching cells from earlier runs. Each cell is stored
     * as one checksummed record the moment it finishes, so rerunning
     * a killed `useCache` grid resumes it: finished cells come back
     * as bit-identical hits and only the rest are simulated.
     */
    bool useCache = false;

    /**
     * Worker threads for the grid: 1 = serial, 0 = one per hardware
     * thread. Every (workload, scheme) cell is an independent
     * simulation with its own GpuSystem and deterministically seeded
     * RNGs, so the parallel grid is bit-identical to the serial one.
     */
    unsigned threads = 0;

    /**
     * Capture failures instead of aborting: a cell that throws is
     * recorded in the grid report as poisoned with the exception
     * text, and the grid *continues* — completing with
     * success-with-degradation (`GridReport::degraded()`) rather than
     * throwing. Off by default: the figure drivers must fail on a
     * failed cell. Without it the grid still runs every other cell
     * (a `useCache` grid stores the ones that succeed), then rethrows
     * the first failure, at any thread count.
     */
    bool poison = false;

    /**
     * Write the ranked `cache/grid_report_<id>.json` artifact after
     * the run (the in-memory `Grid::report()` is populated either
     * way).
     */
    bool report = false;

    /**
     * Wall-clock budget for the whole grid in milliseconds (0 = the
     * `VALLEY_DEADLINE_MS` environment value, or unlimited when that
     * is unset too). When the budget expires the grid stops starting
     * cells and running cells stop at their next token poll (a
     * search move, or every `GpuSystem::kCancelPollCycles` simulated
     * cycles); both are reported deadline-missed and never cached,
     * and the grid returns degraded instead of running over. Which
     * cells made the cut is wall-clock-dependent, so deterministic
     * tests use explicit `cancel` tokens instead of deadlines.
     */
    std::uint64_t deadlineMs = 0;

    /**
     * Optional external cancellation token (non-owning; must outlive
     * the call). The grid derives a child token from it, so SIGINT
     * handlers or embedding services can stop a sweep, running cells
     * included; the deadline above arms the child and therefore
     * composes with (never extends) the parent's own deadline.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Simulate one (config, mapper spec, workload) combination. The
 * spec is resolved through the mapper registry; the searched
 * families route through `search::` (`map:sbim` over the singleton
 * `{workload}`, `map:gbim` over `joint_set`).
 *
 * @param joint_set for `map:gbim`, the workload set the joint BIM is
 *        searched against (every cell of a grid shares one set, and
 *        therefore one matrix); null = the degenerate singleton
 *        `{workload}`. Ignored by every other family.
 * @param cancel polled by the searched families' search and by the
 *        simulation (`GpuSystem::run`), which throws `Cancelled` once
 *        it fires; null = run to completion.
 */
RunResult runOne(const SimConfig &config, const std::string &mapper_spec,
                 const std::string &workload, double scale = 1.0,
                 std::uint64_t bim_seed = 1,
                 const workloads::WorkloadSet *joint_set = nullptr,
                 const CancelToken *cancel = nullptr);

/**
 * Like runOne, but consults/updates the on-disk result cache. A
 * cancelled run throws before anything is stored.
 */
RunResult runOneCached(const SimConfig &config,
                       const std::string &mapper_spec,
                       const std::string &workload, double scale = 1.0,
                       std::uint64_t bim_seed = 1,
                       const workloads::WorkloadSet *joint_set =
                           nullptr,
                       const CancelToken *cancel = nullptr);

/**
 * Results of a workloads x mappers grid with paper-style
 * normalization helpers. Every helper takes a mapper spec in any
 * spelling; `map:base` must be on the axis for the normalized ones.
 */
class Grid
{
  public:
    Grid(GridOptions opts, std::vector<std::vector<RunResult>> results,
         GridReport report = {});

    const GridOptions &options() const { return opts; }

    /**
     * Per-cell outcome ranking of the run that produced this grid
     * (see grid_report.hh). `report().degraded()` means some cells
     * hold default-constructed results (poisoned or deadline-missed)
     * and the normalized metrics below must not be trusted.
     */
    const GridReport &report() const { return report_; }

    const RunResult &at(const std::string &workload,
                        const std::string &mapper_spec) const;

    /** Exec-time speedup over BASE for one cell. */
    double speedup(const std::string &workload,
                   const std::string &mapper_spec) const;

    /** DRAM power normalized to BASE. */
    double dramPowerNorm(const std::string &workload,
                         const std::string &mapper_spec) const;

    /** System power normalized to BASE. */
    double systemPowerNorm(const std::string &workload,
                           const std::string &mapper_spec) const;

    /** Performance per Watt normalized to BASE. */
    double perfPerWattNorm(const std::string &workload,
                           const std::string &mapper_spec) const;

    /** Harmonic mean of per-workload speedups (paper HMEAN bars). */
    double hmeanSpeedup(const std::string &mapper_spec) const;

    /** Arithmetic mean of a per-cell metric across workloads. */
    double mean(const std::string &mapper_spec,
                const std::function<double(const RunResult &)> &metric)
        const;

    /** Arithmetic mean of normalized DRAM power across workloads. */
    double meanDramPowerNorm(const std::string &mapper_spec) const;

    /** Arithmetic mean of normalized exec time across workloads. */
    double meanExecTimeNorm(const std::string &mapper_spec) const;

    /** Arithmetic mean of normalized system power. */
    double meanSystemPowerNorm(const std::string &mapper_spec) const;

    /** Harmonic mean of normalized perf/Watt. */
    double hmeanPerfPerWattNorm(const std::string &mapper_spec) const;

  private:
    std::size_t wIndex(const std::string &workload) const;
    std::size_t sIndex(const std::string &mapper_spec) const;

    GridOptions opts;
    std::vector<std::vector<RunResult>> results; // [workload][mapper]
    GridReport report_;
};

/**
 * Canonicalize the mapper axis in place. Throws
 * `std::invalid_argument` on an unknown family or parameter, and on
 * a mapper that appears twice (in any two spellings). `runGrid`
 * calls this first; CLIs call it to validate user specs up front.
 */
void normalizeGridAxes(GridOptions &opts);

/** Run the full grid. */
Grid runGrid(GridOptions opts);

/** One per-layout grid of a `runGrids` sweep. */
struct LayoutGrid
{
    std::string layout; ///< canonical layout identity of this grid
    Grid grid;
};

/**
 * Run the grid once per entry of `opts.layouts` (the whole mapper x
 * workload grid becomes a 3D sweep with the layout axis outermost).
 * Empty `layouts` = one grid on `opts.config.layout`. Each layout's
 * cache and report identities are distinct: the layout identity is a
 * first-class field of the cell cache keys and the grid identity.
 */
std::vector<LayoutGrid> runGrids(GridOptions opts);

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_EXPERIMENT_HH
