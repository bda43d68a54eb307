/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms shared by every subsystem
 * (grid harness, caches, search, thread pool).
 *
 * ## Sharding model
 *
 * The write path must be safe from any worker thread of the
 * work-stealing pool without serializing them. Counters and
 * histograms are therefore *thread-sharded*: each instrument owns a
 * small array of cache-line-aligned atomic shards, and each thread
 * hashes to a shard via a process-wide round-robin slot assigned on
 * first use. A bump is one relaxed `fetch_add` on the calling
 * thread's shard — no locks, no shared cache line between threads in
 * the common case. Shards are merged only when a snapshot is taken.
 *
 * Relaxed ordering is sufficient: metrics never feed back into
 * computation (the bit-identity contract of the grid), and snapshots
 * are taken at quiescent points (end of a grid / tool run), so the
 * merged totals are exact there.
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

namespace detail {

/**
 * Process-wide round-robin shard slot for the calling thread,
 * assigned on first use. Instruments index `slot % kShards`; threads
 * outnumbering the shard count share shards (still correct — the
 * shards are atomic — just with occasional contention).
 */
unsigned threadSlot();

} // namespace detail

/**
 * Monotonic event counter. `add` is lock-free and wait-free on the
 * calling thread's shard; `value` merges all shards.
 */
class Counter
{
  public:
    static constexpr std::size_t kShards = 16;

    void
    add(std::uint64_t n = 1) noexcept
    {
        shards[detail::threadSlot() % kShards].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    void
    inc() noexcept
    {
        add(1);
    }

    std::uint64_t
    value() const noexcept
    {
        std::uint64_t total = 0;
        for (const Shard &s : shards)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    /** Zero every shard (testing only — see resetForTesting). */
    void
    reset() noexcept
    {
        for (Shard &s : shards)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };
    std::array<Shard, kShards> shards{};
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
    static constexpr std::size_t kShards = 8;

    void record(std::uint64_t micros) noexcept;

    std::uint64_t count() const noexcept;
    std::uint64_t sum() const noexcept;
    std::uint64_t bucket(std::size_t i) const noexcept;

    void reset() noexcept;

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    };
    std::array<Shard, kShards> shards{};
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
