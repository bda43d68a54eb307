#include "common/trace_span.hh"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/json.hh"
#include "harness/atomic_io.hh"

namespace valley {
namespace trace {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

struct Event
{
    std::string name;
    const char *cat;
    std::uint64_t beginNs;
    std::uint64_t durNs;
};

/**
 * One ring per thread. The owner thread appends under the buffer
 * mutex, but the mutex is uncontended except during flush — no
 * other thread ever touches the ring outside flush/reset.
 */
struct ThreadBuffer
{
    static constexpr std::size_t kCapacity = 1u << 16;

    std::mutex mutex;
    std::vector<Event> ring;
    std::size_t head = 0; ///< next write position once full
    std::uint64_t dropped = 0;
    std::uint32_t tid;
};

struct Global
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::string path;
    Clock::time_point epoch = Clock::now();
    bool atexitRegistered = false;
    bool flushed = false; ///< some flush() already wrote the file
};

Global &
global()
{
    static Global g;
    return g;
}

ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        Global &g = global();
        std::lock_guard<std::mutex> lock(g.mutex);
        b->tid = static_cast<std::uint32_t>(g.buffers.size());
        g.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - global().epoch)
            .count());
}

void
append(Event &&e)
{
    ThreadBuffer &b = threadBuffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.ring.size() < ThreadBuffer::kCapacity) {
        b.ring.push_back(std::move(e));
    } else {
        b.ring[b.head] = std::move(e);
        b.head = (b.head + 1) % ThreadBuffer::kCapacity;
        ++b.dropped;
    }
}

void
atexitFlush()
{
    // Don't clobber an explicitly flushed file with the (drained,
    // empty) buffers; only write if there is something new to say or
    // nothing was ever written.
    Global &g = global();
    bool flushed;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        flushed = g.flushed;
    }
    if (flushed && pendingEventCountForTesting() == 0)
        return;
    flush();
}

} // namespace

void
enable(const std::string &path)
{
    Global &g = global();
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        g.path = path;
        if (!g.atexitRegistered) {
            std::atexit(atexitFlush);
            g.atexitRegistered = true;
        }
    }
    detail::g_enabled.store(true, std::memory_order_relaxed);
}

void
disable()
{
    detail::g_enabled.store(false, std::memory_order_relaxed);
}

void
initFromEnv()
{
    if (const char *p = std::getenv("VALLEY_TRACE"); p && *p)
        enable(p);
}

namespace {
/// VALLEY_TRACE takes effect without any tool cooperation: spans
/// only fire inside main(), after this initializer ran.
const bool g_env_initialized = [] {
    initFromEnv();
    return true;
}();
} // namespace

bool
flush()
{
    Global &g = global();
    std::string path;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        if (g.path.empty())
            return false;
        path = g.path;
        buffers = g.buffers;
    }
    std::ostringstream out;
    out << "{\"traceEvents\": [";
    const long long pid = static_cast<long long>(::getpid());
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto &bp : buffers) {
        std::lock_guard<std::mutex> lock(bp->mutex);
        // Ring order: oldest first (head..end, then begin..head).
        const std::size_t n = bp->ring.size();
        for (std::size_t k = 0; k < n; ++k) {
            const Event &e = bp->ring[(bp->head + k) % n];
            out << (first ? "\n" : ",\n");
            first = false;
            out << "{\"name\": \"" << jsonEscape(e.name)
                << "\", \"cat\": \"" << e.cat
                << "\", \"ph\": \"X\", \"ts\": " << e.beginNs / 1000
                << "." << (e.beginNs % 1000) / 100
                << ", \"dur\": " << e.durNs / 1000 << "."
                << (e.durNs % 1000) / 100 << ", \"pid\": " << pid
                << ", \"tid\": " << bp->tid << "}";
        }
        dropped += bp->dropped;
        bp->ring.clear();
        bp->head = 0;
        bp->dropped = 0;
    }
    out << (first ? "]" : "\n]");
    out << ", \"droppedEvents\": " << dropped << "}\n";
    const bool ok = harness::atomicWriteFile(path, out.str());
    if (ok) {
        std::lock_guard<std::mutex> lock(g.mutex);
        g.flushed = true;
    }
    return ok;
}

std::size_t
pendingEventCountForTesting()
{
    Global &g = global();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        buffers = g.buffers;
    }
    std::size_t n = 0;
    for (const auto &bp : buffers) {
        std::lock_guard<std::mutex> lock(bp->mutex);
        n += bp->ring.size();
    }
    return n;
}

void
resetForTesting()
{
    disable();
    Global &g = global();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        buffers = g.buffers;
        g.path.clear();
        g.epoch = Clock::now();
        g.flushed = false;
    }
    for (const auto &bp : buffers) {
        std::lock_guard<std::mutex> lock(bp->mutex);
        bp->ring.clear();
        bp->head = 0;
        bp->dropped = 0;
    }
}

namespace detail {

std::uint64_t
spanBegin()
{
    return nowNs();
}

void
spanEnd(std::string &&name, const char *cat, std::uint64_t beginNs)
{
    const std::uint64_t end = nowNs();
    append(Event{std::move(name), cat, beginNs,
                 end > beginNs ? end - beginNs : 0});
}

} // namespace detail

} // namespace trace
} // namespace valley
