/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms shared by every subsystem
 * (grid harness, caches, search, profiler).
 *
 * ## Concurrency
 *
 * Any thread may bump an instrument. Every field is one atomic, and a
 * bump is one relaxed `fetch_add`: no locks and no per-thread shards.
 * Bumps are rare — once per grid cell, cache lookup or store, search
 * run or profile — so threads almost never contend for a line.
 *
 * Relaxed ordering is sufficient: metrics never feed back into
 * computation (the bit-identity contract of the grid), and snapshots
 * are taken at quiescent points (end of a grid / tool run), so the
 * totals are exact there.
 *
 * ## Registration and lifetime
 *
 * `counter(name)` / `gauge(name)` / `histogram(name)` intern the
 * instrument in a registry keyed by name and return a reference that
 * stays valid for the life of the process (instruments are never
 * destroyed, only zeroed by `resetForTesting`). Lookup takes a
 * mutex, so hot paths cache the reference:
 *
 *     static metrics::Counter &hits = metrics::counter("cache.hits");
 *     hits.inc();
 *
 * ## Snapshot determinism
 *
 * `snapshotJson` renders every registered instrument sorted by name
 * with a fixed field order, so two snapshots of the same state are
 * byte-identical and snapshots across runs diff cleanly — the same
 * "stable text" discipline as the cache wire format.
 */

#ifndef VALLEY_COMMON_METRICS_HH
#define VALLEY_COMMON_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace valley {
namespace metrics {

/** Monotonic event counter; `add` is one lock-free relaxed add. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1) noexcept
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    void
    inc() noexcept
    {
        add(1);
    }

    std::uint64_t
    value() const noexcept
    {
        return v.load(std::memory_order_relaxed);
    }

    /** Zero the count (testing only — see resetForTesting). */
    void
    reset() noexcept
    {
        v.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v{0};
};

/**
 * Last-writer-wins signed instantaneous value (thread counts &c), with
 * a high-water mark: a gauge that is back at zero by snapshot time
 * (resident bytes of objects since destroyed) still shows its peak.
 */
class Gauge
{
  public:
    void
    set(std::int64_t v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
        raisePeak(v);
    }

    void
    add(std::int64_t d) noexcept
    {
        raisePeak(value_.fetch_add(d, std::memory_order_relaxed) + d);
    }

    std::int64_t
    value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Highest value held since construction or the last reset. */
    std::int64_t
    peak() const noexcept
    {
        return peak_.load(std::memory_order_relaxed);
    }

    void
    reset() noexcept
    {
        value_.store(0, std::memory_order_relaxed);
        peak_.store(0, std::memory_order_relaxed);
    }

  private:
    void
    raisePeak(std::int64_t v) noexcept
    {
        std::int64_t p = peak_.load(std::memory_order_relaxed);
        while (v > p && !peak_.compare_exchange_weak(
                            p, v, std::memory_order_relaxed))
        {
        }
    }

    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> peak_{0};
};

/**
 * Fixed-bucket latency histogram over unsigned microsecond samples.
 * Bucket i holds samples whose bit width is i (i.e. [2^(i-1), 2^i)
 * for i >= 1; bucket 0 holds zeros), clamped into the last bucket —
 * power-of-two bounds need no configuration and keep `record` to a
 * `bit_width` plus one relaxed `fetch_add` per field.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 28;

    void record(std::uint64_t micros) noexcept;

    std::uint64_t
    count() const noexcept
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const noexcept
    {
        return sum_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bucket(std::size_t i) const noexcept
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void reset() noexcept;

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/**
 * RAII latency probe: records the scope's wall-clock duration (in
 * microseconds) into `h` on destruction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &h)
        : hist(h), start(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        hist.record(us < 0 ? 0 : static_cast<std::uint64_t>(us));
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram &hist;
    std::chrono::steady_clock::time_point start;
};

/**
 * Intern an instrument by name. References remain valid for the
 * process lifetime. Takes a registry mutex — cache the reference in
 * a function-local static on hot paths.
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);

/**
 * Render every registered instrument as one JSON object, names
 * sorted, fixed field order — deterministic and diffable:
 *
 *     {
 *       "counters": {"grid.cells_done": 4, ...},
 *       "gauges": {"search.plane_bytes": 0,
 *                  "search.plane_bytes.peak": 1059840, ...},
 *       "histograms": {
 *         "cache.result.lookup_us":
 *           {"count": 4, "sum_us": 12, "buckets": [ ... ]}
 *       }
 *     }
 *
 * `indent` is the nesting depth (2 spaces per level) the object is
 * embedded at: inner lines and the closing brace are indented
 * relative to it, the opening brace is not (it sits in value
 * position). The returned string has no trailing newline.
 */
std::string snapshotJson(unsigned indent = 0);

/**
 * Crash-consistent snapshot dump (atomicWriteFile under the hood).
 * Returns false on IO failure.
 */
bool writeSnapshotFile(const std::string &path);

/**
 * Zero every registered instrument, keeping registrations (and all
 * outstanding references) valid. Tests share one process-wide
 * registry, so they measure deltas or reset between cases.
 */
void resetForTesting();

} // namespace metrics
} // namespace valley

#endif // VALLEY_COMMON_METRICS_HH
