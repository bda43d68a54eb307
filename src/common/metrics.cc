#include "common/metrics.hh"

#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/json.hh"
#include "harness/atomic_io.hh"

namespace valley {
namespace metrics {

void
Histogram::record(std::uint64_t micros) noexcept
{
    const std::size_t idx =
        std::min<std::size_t>(std::bit_width(micros), kBuckets - 1);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(micros, std::memory_order_relaxed);
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
}

void
Histogram::reset() noexcept
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

namespace {

/**
 * The registry proper. Instruments live behind unique_ptr so the
 * references handed out stay stable as the maps rehash; entries are
 * never erased. std::map keeps iteration name-sorted, which is what
 * makes snapshots deterministic without a sort pass.
 */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = r.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::string
snapshotJson(unsigned indent)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const std::string base(indent * 2, ' ');
    const std::string in1 = base + "  ";
    const std::string in2 = base + "    ";
    std::ostringstream out;
    out << "{\n";

    out << in1 << "\"counters\": {";
    bool first = true;
    for (const auto &[name, c] : r.counters) {
        out << (first ? "\n" : ",\n") << in2 << '"'
            << jsonEscape(name) << "\": " << c->value();
        first = false;
    }
    out << (first ? "},\n" : "\n" + in1 + "},\n");

    out << in1 << "\"gauges\": {";
    first = true;
    for (const auto &[name, g] : r.gauges) {
        out << (first ? "\n" : ",\n") << in2 << '"'
            << jsonEscape(name) << "\": " << g->value() << ",\n"
            << in2 << '"' << jsonEscape(name + ".peak")
            << "\": " << g->peak();
        first = false;
    }
    out << (first ? "},\n" : "\n" + in1 + "},\n");

    out << in1 << "\"histograms\": {";
    first = true;
    for (const auto &[name, h] : r.histograms) {
        out << (first ? "\n" : ",\n") << in2 << '"'
            << jsonEscape(name) << "\": {\"count\": " << h->count()
            << ", \"sum_us\": " << h->sum() << ", \"buckets\": [";
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
            out << (i ? ", " : "") << h->bucket(i);
        out << "]}";
        first = false;
    }
    out << (first ? "}\n" : "\n" + in1 + "}\n");

    out << base << "}";
    return out.str();
}

bool
writeSnapshotFile(const std::string &path)
{
    return harness::atomicWriteFile(path, snapshotJson() + "\n");
}

void
resetForTesting()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto &[name, c] : r.counters)
        c->reset();
    for (auto &[name, g] : r.gauges)
        g->reset();
    for (auto &[name, h] : r.histograms)
        h->reset();
}

} // namespace metrics
} // namespace valley
