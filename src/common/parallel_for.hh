/**
 * @file
 * `parallelFor`: the one fork/join of the experiment grid, the
 * trace-plane extraction and the BIM search's restarts.
 *
 * Every caller runs n independent tasks, and task i writes only its
 * own caller-owned slot, so the results are the same under any
 * schedule: the parallel grid, profile and search are bit-identical
 * to their one-thread runs (tests/experiment_test.cc,
 * tests/profiler_test.cc, tests/bim_search_test.cc).
 *
 * Workers claim indices from one shared counter. Task costs are
 * skewed — a GBIM cell that warms the joint search can run orders of
 * magnitude longer than a cached BASE cell — and with one counter a
 * worker that finishes early simply takes the next unstarted task,
 * so the load balances without per-worker queues or stealing. A
 * worker never waits for another, so a task that blocks on a later
 * task cannot deadlock the round while a second worker exists.
 */

#ifndef VALLEY_COMMON_PARALLEL_FOR_HH
#define VALLEY_COMMON_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.hh"

namespace valley {

/** Hardware concurrency, at least 1. */
inline unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * Run `fn(i)` for every i in [0, n) on up to min(threads, n) workers
 * (`threads` = 0: one per hardware thread), the calling thread among
 * them, and return once every worker has finished.
 *
 *  - With one worker the tasks run on the caller, in index order.
 *  - Once `cancel` fires, no further task starts: running tasks
 *    finish and the rest are never run, so a caller passing a token
 *    must tolerate unrun slots. `cancel` (non-owning, may be null)
 *    must outlive the call.
 *  - A task that throws stops no other: the remaining tasks still
 *    run, and the first exception caught is rethrown after every
 *    worker has finished.
 *  - Helper workers are `std::jthread`s, so if spawning one fails the
 *    helpers already started are joined before that error leaves.
 *
 * `fn` is called concurrently from several threads.
 */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned threads, const Fn &fn,
            const CancelToken *cancel = nullptr)
{
    if (threads == 0)
        threads = hardwareThreads();
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error; // guarded by error_mutex
    const auto work = [&] {
        while (cancel == nullptr || !cancel->cancelled()) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> helpers;
        const std::size_t workers = std::min<std::size_t>(threads, n);
        for (std::size_t w = 1; w < workers; ++w)
            helpers.emplace_back(work);
        work();
    } // the helpers join here
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace valley

#endif // VALLEY_COMMON_PARALLEL_FOR_HH
