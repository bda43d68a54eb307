/**
 * @file
 * RAII scoped tracing in Chrome trace-event format.
 *
 * A `Span` records one complete ("ph":"X") event — name, category,
 * begin timestamp, duration, thread id — into a per-thread ring
 * buffer; `flush` serializes every buffer into the standard
 * `{"traceEvents": [...]}` JSON that Perfetto and chrome://tracing
 * load directly, written crash-consistently via the atomic_io layer.
 *
 * ## Zero-cost-when-disabled contract
 *
 * The only code on the disabled path is the inlined `enabled()`
 * check: one relaxed atomic load and a branch, in both the Span
 * constructor and destructor. No clock reads, no allocation, no
 * buffer touch. Tracing never feeds back into computation, so
 * results are bit-identical with tracing on or off (asserted in
 * tests/trace_span_test.cc).
 *
 * ## Buffering
 *
 * Events land in fixed-capacity per-thread ring buffers (owner
 * thread writes without contention; a mutex per buffer synchronizes
 * only with flush). A full ring overwrites its oldest events and
 * counts the drops — tracing degrades by forgetting history, never
 * by blocking the traced code.
 *
 * ## Enabling
 *
 * `VALLEY_TRACE=<path>` enables tracing for any binary (flushed at
 * exit), or tools pass `--trace <path>` which calls `enable()`
 * explicitly. Spans constructed while tracing is disabled stay
 * inert for their whole lifetime, so toggling mid-scope cannot
 * produce unbalanced events.
 */

#ifndef VALLEY_COMMON_TRACE_SPAN_HH
#define VALLEY_COMMON_TRACE_SPAN_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace valley {
namespace trace {

namespace detail {
/// Read via the inlined enabled() fast path; written by
/// enable()/disable() only.
extern std::atomic<bool> g_enabled;
} // namespace detail

/** Inlined fast path: one relaxed load + branch when disabled. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Start recording; events flush to `path` (registered once with
 * atexit, and explicitly via flush()). Re-enabling with a new path
 * redirects subsequent flushes.
 */
void enable(const std::string &path);

/** Stop recording. Buffered events survive until flush/reset. */
void disable();

/** Honor VALLEY_TRACE if set (called from static init; idempotent
 *  per process unless resetForTesting intervened). */
void initFromEnv();

/**
 * Serialize all buffered events to the enabled path as Chrome
 * trace-event JSON (atomic replace). Buffers are drained. Returns
 * false when tracing was never enabled or the write failed.
 */
bool flush();

/** Events currently buffered across all threads (testing). */
std::size_t pendingEventCountForTesting();

/** Drop buffers, disable, forget the path (testing). */
void resetForTesting();

namespace detail {
/// Out-of-line slow path: stamp the begin time. Returns the
/// begin timestamp (ns since trace epoch).
std::uint64_t spanBegin();
/// Out-of-line slow path: append one complete event.
void spanEnd(std::string &&name, const char *cat,
             std::uint64_t beginNs);
} // namespace detail

/**
 * RAII complete-event span. The name is only materialized when
 * tracing is enabled at construction; pass dynamic names as
 *
 *     trace::Span s(trace::enabled() ? makeName() : std::string(),
 *                   "grid");
 *
 * so the disabled path never allocates.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *cat = "valley")
    {
        if (enabled()) {
            name_ = name;
            cat_ = cat;
            begin_ = detail::spanBegin();
            armed_ = true;
        }
    }

    Span(std::string name, const char *cat = "valley")
    {
        if (enabled()) {
            name_ = std::move(name);
            cat_ = cat;
            begin_ = detail::spanBegin();
            armed_ = true;
        }
    }

    ~Span() { end(); }

    /**
     * Close the span before scope exit (phase spans inside one
     * function). Idempotent; the destructor becomes a no-op.
     */
    void
    end()
    {
        if (armed_) {
            armed_ = false;
            detail::spanEnd(std::move(name_), cat_, begin_);
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::string name_;
    const char *cat_ = nullptr;
    std::uint64_t begin_ = 0;
    bool armed_ = false;
};

} // namespace trace
} // namespace valley

#endif // VALLEY_COMMON_TRACE_SPAN_HH
