#include "harness/result_cache.hh"

#include <charconv>
#include <sstream>
#include <string_view>

namespace valley {
namespace harness {

std::string
serializeResult(const RunResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.workload << ' ' << r.scheme << ' ' << r.cycles << ' '
        << r.seconds << ' ' << r.instructions << ' ' << r.requests
        << ' ' << r.l1Accesses << ' ' << r.l1Misses << ' '
        << r.llcAccesses << ' ' << r.llcMisses << ' ' << r.llcMissRate
        << ' ' << r.nocLatencySmCycles << ' ' << r.llcParallelism
        << ' ' << r.channelParallelism << ' ' << r.bankParallelism
        << ' ' << r.dram.reads << ' ' << r.dram.writes << ' '
        << r.dram.rowMisses << ' ' << r.dram.activations << ' '
        << r.dram.precharges << ' ' << r.dram.busBusyCycles << ' '
        << r.dram.latencySum << ' ' << r.rowBufferHitRate << ' '
        << r.dramPower.backgroundW << ' ' << r.dramPower.activateW
        << ' ' << r.dramPower.readW << ' ' << r.dramPower.writeW
        << ' ' << r.gpuPower.staticW << ' ' << r.gpuPower.dynamicW
        << ' ' << r.systemPowerW;
    return out.str();
}

std::optional<RunResult>
deserializeResult(const std::string &line)
{
    std::istringstream in(line);
    RunResult r;
    in >> r.workload >> r.scheme >> r.cycles >> r.seconds >>
        r.instructions >> r.requests >> r.l1Accesses >> r.l1Misses >>
        r.llcAccesses >> r.llcMisses >> r.llcMissRate >>
        r.nocLatencySmCycles >> r.llcParallelism >>
        r.channelParallelism >> r.bankParallelism >> r.dram.reads >>
        r.dram.writes >> r.dram.rowMisses >> r.dram.activations >>
        r.dram.precharges >> r.dram.busBusyCycles >>
        r.dram.latencySum >> r.rowBufferHitRate >>
        r.dramPower.backgroundW >> r.dramPower.activateW >>
        r.dramPower.readW >> r.dramPower.writeW >>
        r.gpuPower.staticW >> r.gpuPower.dynamicW >> r.systemPowerW;
    if (!in)
        return std::nullopt;
    // Trailing garbage means the field count is wrong for this
    // schema — corrupt, not just old.
    std::string extra;
    if (in >> extra)
        return std::nullopt;
    return r;
}

std::string
cacheKey(const std::string &config_name, const std::string &workload,
         const std::string &scheme, std::uint64_t seed, double scale,
         const std::string &layout)
{
    // Shortest round-trip form: every scale that printed in six
    // significant digits or fewer (0.05, 0.25, 1, ...) keeps the key
    // the default stream precision gave it.
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, scale).ptr;
    std::ostringstream out;
    out << kResultCacheVersion << ';' << config_name << ';' << workload
        << ';' << scheme << ';' << seed << ';'
        << std::string_view(buf, end - buf) << ';' << layout;
    return out.str();
}

RecordCache<ResultCodec> &
resultCache()
{
    static RecordCache<ResultCodec> cache;
    return cache;
}

} // namespace harness
} // namespace valley
