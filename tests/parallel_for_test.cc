/**
 * @file
 * parallelFor unit tests (ctest label `sweep`): every index runs once,
 * slot results are independent of the thread count, a throwing body
 * neither stops the other indices nor escapes before the join, and
 * `jobs = 0` means the hardware thread count capped at the index count.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "common/sim_fault.h"

using namespace pim;

namespace {

TEST(ParallelForTest, RunsEveryIndexOnce)
{
    constexpr std::size_t kCount = 200;
    std::vector<std::atomic<int>> runs(kCount);
    parallelFor(kCount, 4, [&runs](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, ZeroCountRunsNoBody)
{
    std::atomic<int> runs{0};
    parallelFor(0, 4, [&runs](std::size_t) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 0);
}

/**
 * The determinism contract the sweep engine builds on: bodies writing
 * into pre-assigned slots produce identical results for any thread
 * count, even though execution order differs.
 */
TEST(ParallelForTest, SlotResultsAreOrderingIndependent)
{
    constexpr std::size_t kCount = 128;
    std::vector<std::vector<std::uint64_t>> outcomes;
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::uint64_t> slots(kCount, 0);
        parallelFor(kCount, jobs, [&slots](std::size_t i) {
            // A little computation whose result depends only on the
            // slot index.
            std::uint64_t h = i;
            for (int k = 0; k < 1000; ++k)
                h = h * 6364136223846793005ULL + 1442695040888963407ULL;
            slots[i] = h;
        });
        outcomes.push_back(std::move(slots));
    }
    EXPECT_EQ(outcomes[0], outcomes[1]);
    EXPECT_EQ(outcomes[0], outcomes[2]);
}

TEST(ParallelForTest, RethrowsFirstExceptionAfterEveryIndexRan)
{
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<int> completed{0};
        try {
            parallelFor(10, jobs, [&completed](std::size_t i) {
                if (i == 3 || i == 7) {
                    throw PIM_SIM_FAULT(SimFaultKind::Protocol,
                                        "injected fault at ", i);
                }
                completed.fetch_add(1);
            });
            FAIL() << "expected SimFault at jobs=" << jobs;
        } catch (const SimFault& fault) {
            // One thread runs the indices in order, so its first
            // exception is index 3's.
            if (jobs == 1) {
                EXPECT_NE(fault.message().find("at 3"), std::string::npos)
                    << fault.message();
            }
        }
        // The failing bodies did not stop the others.
        EXPECT_EQ(completed.load(), 8) << "jobs=" << jobs;
    }
}

TEST(ParallelForTest, ZeroJobsMeansHardwareThreadsCappedAtCount)
{
    const unsigned hardware =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(parallelForThreads(1000, 0), std::min(1000u, hardware));
    EXPECT_EQ(parallelForThreads(2, 0), std::min(2u, hardware));
    EXPECT_EQ(parallelForThreads(0, 0), 1u);
    EXPECT_EQ(parallelForThreads(5, 3), 3u);
    EXPECT_EQ(parallelForThreads(2, 8), 2u);

    // With one index per thread and every body waiting for all of them,
    // each index is claimed by a different thread: the distinct thread
    // ids count the threads parallelFor really ran.
    const std::size_t count = hardware;
    std::mutex mutex;
    std::condition_variable all_arrived;
    std::set<std::thread::id> ids; // guarded by mutex
    parallelFor(count, 0, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        all_arrived.notify_all();
        all_arrived.wait_for(lock, std::chrono::seconds(30),
                             [&] { return ids.size() == count; });
    });
    EXPECT_EQ(ids.size(), count);
}

} // namespace
