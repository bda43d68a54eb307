#include "harness/grid_report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/fnv.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "harness/atomic_io.hh"
#include "harness/result_cache.hh"

namespace valley {
namespace harness {

namespace {

/** Degradation rank: higher sorts earlier in the report. */
int
severity(CellStatus s)
{
    switch (s) {
    case CellStatus::Poisoned:
        return 3;
    case CellStatus::DeadlineMissed:
        return 2;
    case CellStatus::NotRun:
        return 1;
    case CellStatus::Ok:
        return 0;
    }
    return 0;
}

} // namespace

std::string
gridIdHex(const std::string &grid_identity)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      bits::fnv1a(grid_identity)));
    return buf;
}

const char *
cellStatusName(CellStatus s)
{
    switch (s) {
    case CellStatus::NotRun:
        return "not_run";
    case CellStatus::Ok:
        return "ok";
    case CellStatus::Poisoned:
        return "poisoned";
    case CellStatus::DeadlineMissed:
        return "deadline_missed";
    }
    return "unknown";
}

std::string
GridReport::pathFor(const std::string &grid_id_hex)
{
    return cacheDir() + "/grid_report_" + grid_id_hex + ".json";
}

void
GridReport::finalize()
{
    // Stable sort: ties keep grid (workload-major) order, so the
    // ranking is deterministic regardless of scheduling.
    std::stable_sort(cells.begin(), cells.end(),
                     [](const CellReport &a, const CellReport &b) {
                         return severity(a.status) > severity(b.status);
                     });
    ok = poisoned = deadlineMissed = 0;
    for (const CellReport &c : cells) {
        switch (c.status) {
        case CellStatus::Ok:
            ++ok;
            break;
        case CellStatus::Poisoned:
            ++poisoned;
            break;
        case CellStatus::NotRun:
        case CellStatus::DeadlineMissed:
            ++deadlineMissed;
            break;
        }
    }
}

std::string
GridReport::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"grid_id\": \"" << jsonEscape(gridId) << "\",\n";
    out << "  \"degraded\": " << (degraded() ? "true" : "false")
        << ",\n";
    out << "  \"deadline_hit\": " << (deadlineHit ? "true" : "false")
        << ",\n";
    out << "  \"cells_total\": " << cells.size() << ",\n";
    out << "  \"ok\": " << ok << ",\n";
    out << "  \"poisoned\": " << poisoned << ",\n";
    out << "  \"deadline_missed\": " << deadlineMissed << ",\n";
    out << "  \"steals\": " << steals << ",\n";
    out << "  \"quarantined_lines\": " << quarantinedLines << ",\n";
    out << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellReport &c = cells[i];
        out << "    {\"workload\": \"" << jsonEscape(c.workload)
            << "\", \"scheme\": \"" << jsonEscape(c.scheme)
            << "\", \"status\": \"" << cellStatusName(c.status)
            << "\"";
        if (!c.reason.empty())
            out << ", \"reason\": \"" << jsonEscape(c.reason) << "\"";
        out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    // Registry snapshot at report time: correlates the per-cell
    // outcomes above with process-wide cache/pool/search counters.
    out << "  \"metrics\": " << metrics::snapshotJson(1) << "\n";
    out << "}\n";
    return out.str();
}

bool
GridReport::write() const
{
    return atomicWriteFile(pathFor(gridId), toJson());
}

} // namespace harness
} // namespace valley
