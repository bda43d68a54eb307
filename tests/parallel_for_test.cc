/**
 * @file
 * Tests for `parallelFor` (`src/common/parallel_for.hh`), the fork/join
 * behind the parallel grid, trace-plane extraction and BIM search
 * restarts: each index runs once, one worker runs inline in index
 * order, a throwing task stops no other, a fired token starts no
 * task, and an idle worker always takes the next unstarted task.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancellation.hh"
#include "common/parallel_for.hh"

using namespace valley;

TEST(ParallelFor, EveryIndexRunsOnceIntoItsOwnSlot)
{
    // 0 = one worker per hardware thread; 40 > n workers are capped
    // at n.
    for (const unsigned threads : {0u, 1u, 4u, 40u}) {
        std::vector<std::uint64_t> out(33, 0);
        std::vector<int> hits(out.size(), 0);
        parallelFor(out.size(), threads, [&](std::size_t i) {
            ++hits[i];
            out[i] = i * i;
        });
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(hits[i], 1)
                << "threads " << threads << ", task " << i;
            EXPECT_EQ(out[i], i * i);
        }
    }
    bool ran = false;
    parallelFor(0, 4, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ParallelFor, OneWorkerRunsOnTheCallerInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(16, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ThrowingTaskStopsNoOtherAndIsRethrown)
{
    for (const unsigned threads : {1u, 2u}) {
        std::atomic<int> completed{0};
        try {
            parallelFor(8, threads, [&](std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("task 3 failed");
                completed.fetch_add(1);
            });
            ADD_FAILURE() << "the task's exception must be rethrown";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 3 failed");
        }
        EXPECT_EQ(completed.load(), 7) << "threads " << threads;
    }
}

TEST(ParallelFor, FiredTokenStartsNoTask)
{
    for (const unsigned threads : {1u, 2u}) {
        CancelToken token;
        token.cancel();
        std::atomic<int> ran{0};
        parallelFor(
            16, threads, [&](std::size_t) { ran.fetch_add(1); }, &token);
        EXPECT_EQ(ran.load(), 0) << "threads " << threads;
    }

    // A token fired by a running task: nothing after it starts.
    CancelToken token;
    std::vector<std::size_t> ran;
    parallelFor(
        16, 1,
        [&](std::size_t i) {
            ran.push_back(i);
            if (i == 2)
                token.cancel();
        },
        &token);
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelFor, TaskBlockedOnALaterTaskFinishesWithTwoWorkers)
{
    // Task 0 waits for task 2. Whichever worker is stuck in task 0,
    // the other claims tasks 1 and 2 from the shared counter, so the
    // round cannot deadlock.
    std::promise<void> ready;
    const std::shared_future<void> fut = ready.get_future().share();
    parallelFor(3, 2, [&](std::size_t i) {
        if (i == 0)
            EXPECT_EQ(fut.wait_for(std::chrono::seconds(30)),
                      std::future_status::ready)
                << "task 2 never ran";
        else if (i == 2)
            ready.set_value();
    });
}
