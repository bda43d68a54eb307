/**
 * @file
 * Cooperative cancellation and wall-clock deadlines for grids and
 * searches.
 *
 * Long-running work cannot be preempted safely — a simulation owns
 * its machine state, a grid cell its result slot and worker thread —
 * so cancellation here is *cooperative*: the worker polls a
 * `CancelToken` at its natural checkpoint boundaries (one
 * `parallelFor` task, one search move, every 4096 simulated SM
 * cycles) and winds down. Two things make a token fire:
 *
 *  - an explicit `cancel()` — e.g. the SIGINT/SIGTERM handler of
 *    `tools/valley_grid`, which is why `cancel()` is a single atomic
 *    store (async-signal-safe, no locks, no allocation);
 *  - an attached `Deadline` expiring — monotonic
 *    (`std::chrono::steady_clock`), so a wall-clock adjustment can
 *    never fire or starve a budget.
 *
 * Tokens compose parent→child: `child()` returns a token that is
 * cancelled whenever any ancestor is (each layer can add its own
 * tighter deadline without being able to *extend* the parent's).
 * Checking costs one relaxed atomic load per ancestor plus, when a
 * deadline is armed, one clock read — cheap enough for per-move
 * polling in the search.
 *
 * Degradation contract. A consumer that has a valid partial answer
 * returns it and flags it: `BimSearch` its best incumbent
 * (`SearchStats::deadlineHit`), `runGrid` its finished cells. A
 * simulation has no partial answer — half a run's cycle count means
 * nothing — so `GpuSystem::run` throws `Cancelled` instead, and
 * `runGrid` catches it and reports the cell deadline-missed (never
 * cached). Wall-clock deadlines are inherently nondeterministic;
 * bit-identical tests use explicit `cancel()` instead.
 */

#ifndef VALLEY_COMMON_CANCELLATION_HH
#define VALLEY_COMMON_CANCELLATION_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

namespace valley {

/**
 * A monotonic-clock deadline. Default-constructed = never expires.
 */
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    Deadline() = default; ///< never expires

    /** Deadline `d` from now (monotonic). */
    static Deadline
    after(std::chrono::milliseconds d)
    {
        Deadline out;
        out.has_ = true;
        out.at_ = Clock::now() + d;
        return out;
    }

    bool armed() const { return has_; }

    Clock::time_point at() const { return at_; }

  private:
    bool has_ = false;
    Clock::time_point at_{};
};

/**
 * Composable cancellation token. Copyable (copies share one
 * cancellation state); `child()` derives a token that also observes
 * every ancestor.
 */
class CancelToken
{
  public:
    /** Fresh root token: not cancelled, no deadline. */
    CancelToken() : state_(std::make_shared<State>()) {}

    /** Child token: cancelled whenever this token (or its ancestors)
     * is; may arm its own, tighter deadline via `setDeadline`. */
    CancelToken
    child() const
    {
        CancelToken c;
        c.state_->parent = state_;
        return c;
    }

    /**
     * Cancel this token (and every descendant). One atomic store:
     * async-signal-safe, callable from a SIGINT/SIGTERM handler.
     */
    void
    cancel() const noexcept
    {
        state_->flag.store(true, std::memory_order_relaxed);
    }

    /** Arm (or replace) this token's deadline. */
    void
    setDeadline(const Deadline &d)
    {
        state_->deadline_ns.store(
            d.armed() ? d.at().time_since_epoch().count()
                      : std::int64_t{0},
            std::memory_order_relaxed);
    }

    /** True once cancelled explicitly or past any armed deadline in
     * the parent chain. */
    bool
    cancelled() const noexcept
    {
        for (const State *s = state_.get(); s != nullptr;
             s = s->parent.get()) {
            if (s->flag.load(std::memory_order_relaxed))
                return true;
            const std::int64_t dl =
                s->deadline_ns.load(std::memory_order_relaxed);
            if (dl != 0 &&
                Deadline::Clock::now().time_since_epoch().count() >=
                    dl)
                return true;
        }
        return false;
    }

    /**
     * Ambient wall-clock budget: `VALLEY_DEADLINE_MS` from the
     * environment (a positive integer of milliseconds), or nullopt
     * when unset/malformed. `harness::runGrid` arms it automatically;
     * other consumers opt in explicitly.
     */
    static std::optional<std::chrono::milliseconds> envDeadlineMs();

  private:
    struct State
    {
        std::atomic<bool> flag{false};
        /// steady_clock time-since-epoch ns; 0 = no deadline.
        std::atomic<std::int64_t> deadline_ns{0};
        std::shared_ptr<const State> parent;
    };

    std::shared_ptr<State> state_;
};

/**
 * Thrown by work that has no partial answer (`GpuSystem::run`) when
 * its token fires mid-run.
 */
class Cancelled : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

} // namespace valley

#endif // VALLEY_COMMON_CANCELLATION_HH
