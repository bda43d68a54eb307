#include "harness/result_cache.hh"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "harness/atomic_io.hh"

namespace valley {
namespace harness {

namespace {

/** Registry handles, interned on first use. */
struct Instruments
{
    metrics::Counter &hits = metrics::counter("cache.result.hits");
    metrics::Counter &misses = metrics::counter("cache.result.misses");
    metrics::Counter &stores = metrics::counter("cache.result.stores");
    metrics::Histogram &lookupUs =
        metrics::histogram("cache.result.lookup_us");
};

Instruments &
instruments()
{
    static Instruments m;
    return m;
}

/** True unless VALLEY_CACHE=0 is set in the environment. */
bool
cacheEnabled()
{
    const char *env = std::getenv("VALLEY_CACHE");
    return env == nullptr || std::string(env) != "0";
}

} // namespace

std::string
cacheDir()
{
    const char *env = std::getenv("VALLEY_CACHE_DIR");
    return env && *env ? env : "cache";
}

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

std::string
ResultCache::path()
{
    return cacheDir() + "/valley_results_cache.csv";
}

std::optional<RunResult>
ResultCache::lookup(const std::string &key)
{
    if (!cacheEnabled())
        return std::nullopt;
    Instruments &m = instruments();
    metrics::ScopedTimer timer(m.lookupUs);
    trace::Span span("result_cache.lookup", "cache");
    std::lock_guard<std::mutex> lock(mutex_);
    loadLocked();
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        m.misses.inc();
        return std::nullopt;
    }
    m.hits.inc();
    return it->second;
}

void
ResultCache::store(const std::string &key, const RunResult &r)
{
    if (!cacheEnabled())
        return;
    if (key.find_first_of("\n\r|") != std::string::npos)
        throw std::invalid_argument(
            "result cache: key contains a newline or '|' — escape "
            "fields with workloads::escapeSpecField");
    const std::string payload = serializeResult(r);
    std::optional<RunResult> decoded = deserializeResult(payload);
    if (!decoded)
        return;
    instruments().stores.inc();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        loadLocked();
        entries_[key] = std::move(*decoded);
    }
    // One O_APPEND write per record: concurrent processes can
    // interleave records but never tear one. Best-effort — a failed
    // append only loses memoization.
    atomicAppend(path(), checksummedRecord(key, payload));
}

void
ResultCache::resetForTesting()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    loaded_ = false;
}

void
ResultCache::loadLocked()
{
    if (loaded_)
        return;
    loaded_ = true;
    // A torn, bit-rotted or undecodable line degrades to a miss
    // instead of aborting the run or feeding it garbage.
    loadChecksummedRecords(
        path(), kResultCacheVersion,
        [this](const std::string &key, const std::string &payload) {
            auto r = deserializeResult(payload);
            if (!r)
                return false;
            entries_[key] = std::move(*r);
            return true;
        });
}

ResultCache &
resultCache()
{
    static ResultCache cache;
    return cache;
}

} // namespace harness
} // namespace valley
