/**
 * @file
 * Experiment harness: runs workloads x schemes grids, normalizes
 * metrics against BASE, and aggregates means the way the paper's
 * figures do (harmonic mean for speedups, arithmetic elsewhere).
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
#include "mapping/address_mapper.hh"
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
     * Legacy scheme axis. A convenience facade over `mappers`: when
     * `mappers` is empty, each enum value is translated to its
     * registry spec (`mapping::schemeSpec`) at grid start. Ignored
     * when `mappers` is set explicitly.
     */
    std::vector<Scheme> schemes = allSchemes();

    /**
     * The grid's mapper axis as registry spec strings
     * (`map:FAMILY[,k=v]...` — mapping/mapper_registry.hh). Empty =
     * derived from `schemes`. Canonicalized in place by `runGrid`,
     * so `Grid::options().mappers` always holds canonical specs.
     */
    std::vector<std::string> mappers;

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
     * cells-done / total counter with resume-skip counts, and a final
     * summary including work-steal and cache-quarantine counters.
     */
    bool progress = false;
    bool useCache = false;               ///< memoize via result_cache

    /**
     * Checkpoint every finished cell to a per-grid journal
     * (`GridJournal`) and, on the next run of the same grid, resume
     * by skipping every journaled cell — bit-identically, whether the
     * previous run was interrupted mid-grid or completed.
     * `VALLEY_CHECKPOINT=1` in the environment turns this on without
     * touching call sites (any value but "0" counts). Independent of
     * `useCache`: the journal records *this grid's* cells even when
     * the global result cache is disabled.
     */
    bool checkpoint = false;

    /**
     * Members of the joint set GBIM cells search against; empty =
     * `workloads` (one global BIM for the whole grid's workload
     * axis, the usual figs 10/12/20-style comparison). Ignored by
     * every other scheme.
     */
    std::vector<std::string> jointSet;

    /**
     * Worker threads for the grid: 1 = serial, 0 = one per hardware
     * thread. Every (workload, scheme) cell is an independent
     * simulation with its own GpuSystem and deterministically seeded
     * RNGs, so the parallel grid is bit-identical to the serial one.
     */
    unsigned threads = 0;

    /**
     * Simulation attempts per cell before the cell is given up on
     * (>= 1; 0 is treated as 1). The default keeps the historical
     * contract — one attempt, first failure propagates — which the
     * fault-injection drills (`bench/resume_smoke`) rely on. With
     * more attempts, a failed attempt is retried after a
     * deterministic exponential backoff and only the final failure
     * is surfaced (or quarantined — see `poison`).
     */
    unsigned maxAttempts = 1;

    /**
     * Base of the deterministic exponential retry backoff: attempt k
     * (1-based) sleeps `retryBackoffMs << (k-1)` milliseconds before
     * retrying. 0 (default) retries immediately — the right choice
     * for deterministic in-process faults; nonzero gives transient
     * environmental faults (ENOSPC, OOM-kill fallout) room to clear.
     * Backoff only delays; it never changes any computed result.
     */
    unsigned retryBackoffMs = 0;

    /**
     * Quarantine instead of abort: a cell that fails *every* attempt
     * is journaled as poisoned (when `checkpoint` is on; crash
     * invariant 5: the mark is written before the failure is
     * surfaced), recorded in the grid report with its failure
     * reason, and the grid *continues* — completing with
     * success-with-degradation (`GridReport::degraded()`) rather
     * than throwing. Resumed runs skip poisoned cells. Off by
     * default: the historical behavior (first cell failure aborts
     * the whole grid) is what the interrupt/resume drills expect.
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
     * is unset too). When the budget expires the grid stops
     * *starting* cells — in-flight cells finish and are journaled
     * normally, remaining cells are reported deadline-missed — and
     * returns a degraded grid instead of running over. Checkpointed
     * journals stay bit-exact because a cell is either fully
     * simulated or not run at all; which cells made the cut is
     * wall-clock-dependent, so deterministic tests use explicit
     * `cancel` tokens instead of deadlines.
     */
    std::uint64_t deadlineMs = 0;

    /**
     * Optional external cancellation token (non-owning; must outlive
     * the call). The grid derives a child token from it, so SIGINT
     * handlers or embedding services can stop a sweep at the next
     * cell boundary; the deadline above arms the child and therefore
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
 */
RunResult runOne(const SimConfig &config, const std::string &mapper_spec,
                 const std::string &workload, double scale = 1.0,
                 std::uint64_t bim_seed = 1,
                 const workloads::WorkloadSet *joint_set = nullptr);

/** Like runOne, but consults/updates the on-disk result cache. */
RunResult runOneCached(const SimConfig &config,
                       const std::string &mapper_spec,
                       const std::string &workload, double scale = 1.0,
                       std::uint64_t bim_seed = 1,
                       const workloads::WorkloadSet *joint_set =
                           nullptr);

/**
 * Results of a workloads x schemes grid with paper-style
 * normalization helpers. BASE must be part of the scheme list for
 * the normalized metrics.
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

    const RunResult &at(const std::string &workload, Scheme s) const;

    /** Cell lookup by mapper spec (any spelling; canonicalized). */
    const RunResult &at(const std::string &workload,
                        const std::string &mapper_spec) const;

    /** Exec-time speedup over BASE for one cell. */
    double speedup(const std::string &workload, Scheme s) const;

    /** Speedup over BASE by mapper spec (`map:base` must be on the
     *  axis, as BASE must be for the enum overloads). */
    double speedup(const std::string &workload,
                   const std::string &mapper_spec) const;

    /** DRAM power normalized to BASE. */
    double dramPowerNorm(const std::string &workload, Scheme s) const;

    /** System power normalized to BASE. */
    double systemPowerNorm(const std::string &workload,
                           Scheme s) const;

    /** Performance per Watt normalized to BASE. */
    double perfPerWattNorm(const std::string &workload,
                           Scheme s) const;

    /** Harmonic mean of per-workload speedups (paper HMEAN bars). */
    double hmeanSpeedup(Scheme s) const;

    /** Arithmetic mean of a per-cell metric across workloads. */
    double mean(Scheme s,
                const std::function<double(const RunResult &)> &metric)
        const;

    /** Arithmetic mean of normalized DRAM power across workloads. */
    double meanDramPowerNorm(Scheme s) const;

    /** Arithmetic mean of normalized exec time across workloads. */
    double meanExecTimeNorm(Scheme s) const;

    /** Arithmetic mean of normalized system power. */
    double meanSystemPowerNorm(Scheme s) const;

    /** Harmonic mean of normalized perf/Watt. */
    double hmeanPerfPerWattNorm(Scheme s) const;

  private:
    std::size_t wIndex(const std::string &workload) const;
    std::size_t sIndex(Scheme s) const;
    std::size_t sIndex(const std::string &mapper_spec) const;

    GridOptions opts;
    std::vector<std::vector<RunResult>> results; // [workload][mapper]
    GridReport report_;
};

/**
 * Resolve the mapper axis in place: derive `mappers` from `schemes`
 * when empty, then canonicalize every spec (throws
 * `std::invalid_argument` on an unknown family/parameter). `runGrid`
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
 * journal/cache identities are distinct: the layout identity is a
 * first-class field of the cell cache keys and the grid identity.
 */
std::vector<LayoutGrid> runGrids(GridOptions opts);

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_EXPERIMENT_HH
