/**
 * @file
 * Per-grid degradation report: the machine-readable answer to "did
 * that unattended sweep actually finish clean, and if not, what
 * exactly did it cost?".
 *
 * `runGrid` classifies every (workload, scheme) cell as it retires —
 * ok / poisoned / deadline-missed — and folds the classification,
 * plus the run's quarantine and work-steal counters, into a
 * `GridReport`. The report always exists in memory (the `Grid`
 * carries it, so tests and `tools/valley_grid` can branch on
 * `degraded()`); with `GridOptions::report` it is also written as
 * `cache/grid_report_<grid id>.json` (atomic replace), the artifact
 * CI uploads so a degraded run names its casualties without anyone
 * re-running the sweep.
 *
 * Cells are *ranked*: most degraded first (poisoned, then
 * deadline-missed, then clean), ties in grid order — so a human
 * reading the first lines of the JSON sees the problems, not the 95
 * healthy cells.
 */

#ifndef VALLEY_HARNESS_GRID_REPORT_HH
#define VALLEY_HARNESS_GRID_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace valley {
namespace harness {

/**
 * 16-hex-digit FNV-1a hash of a grid identity string: the name the
 * grid's report is filed under (`grid_report_<id>.json`).
 */
std::string gridIdHex(const std::string &grid_identity);

/** Terminal state of one grid cell. */
enum class CellStatus
{
    NotRun,         ///< no result (transient; becomes DeadlineMissed)
    Ok,             ///< simulated, or served by the result cache
    Poisoned,       ///< threw; captured with `GridOptions::poison`
    DeadlineMissed, ///< deadline/cancellation stopped it
};

/** Stable lower-case name (JSON field values, progress lines). */
const char *cellStatusName(CellStatus s);

/** One cell's line in the report. */
struct CellReport
{
    std::string workload;
    std::string scheme;
    CellStatus status = CellStatus::NotRun;
    std::string reason;     ///< failure reason (poisoned cells only)
};

/** Ranked per-cell outcome summary of one `runGrid` call. */
struct GridReport
{
    std::string gridId;             ///< `gridIdHex` of the grid identity
    std::vector<CellReport> cells;  ///< ranked most-degraded-first

    std::size_t ok = 0;
    std::size_t poisoned = 0;
    std::size_t deadlineMissed = 0;

    std::uint64_t steals = 0;           ///< pool work-steal count
    std::uint64_t quarantinedLines = 0; ///< cache lines quarantined
    bool deadlineHit = false; ///< the grid's deadline/cancel fired

    /**
     * Success-with-degradation: the grid returned, but some cells
     * hold no simulated result (poisoned or deadline-missed).
     * Consumers must not feed such a grid into paper-figure math;
     * `tools/valley_grid` maps it to its degraded exit code.
     */
    bool
    degraded() const
    {
        return poisoned != 0 || deadlineMissed != 0;
    }

    /** `cacheDir()/grid_report_<grid id hex>.json`. */
    static std::string pathFor(const std::string &grid_id_hex);

    /** Sort cells most-degraded-first and recompute the counters. */
    void finalize();

    /** Render as a JSON document (stable key order, 2-space indent). */
    std::string toJson() const;

    /** Atomically write `toJson()` to `pathFor(gridId)`. */
    bool write() const;
};

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_GRID_REPORT_HH
