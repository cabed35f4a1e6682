/**
 * @file
 * The one host-thread fan-out: run body(i) once for every i in
 * [0, count) on a few threads. The sweep engine runs its grid points
 * through it (DESIGN.md "Threading model").
 *
 * Threads claim indices from one atomic counter, so each index runs
 * exactly once, in no defined order. Callers that need deterministic
 * output write each result into a slot indexed by i and aggregate after
 * parallelFor returns. A body that throws does not stop the others:
 * every index still runs, and the first exception is rethrown once all
 * threads have joined.
 */

#ifndef PIMCACHE_COMMON_PARALLEL_FOR_H_
#define PIMCACHE_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace pim {

/**
 * Threads parallelFor(@p count, @p jobs, ...) runs on: @p jobs, or the
 * hardware thread count when @p jobs is 0, capped at @p count and at
 * least 1.
 */
inline unsigned
parallelForThreads(std::size_t count, unsigned jobs)
{
    const std::size_t wanted =
        jobs != 0 ? jobs : std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::clamp<std::size_t>(wanted, 1, std::max<std::size_t>(count, 1)));
}

/**
 * Call @p body(i) for every i in [0, @p count) on
 * parallelForThreads(count, jobs) threads, the calling thread among
 * them. Returns when every index has run; rethrows the first exception
 * a body threw.
 */
template <typename Body>
void
parallelFor(std::size_t count, unsigned jobs, const Body& body)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error; // guarded by error_mutex
    const auto drain = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    const unsigned threads = parallelForThreads(count, jobs);
    helpers.reserve(threads - 1);
    try {
        while (helpers.size() + 1 < threads)
            helpers.emplace_back(drain);
    } catch (const std::system_error&) {
        // The host refused another thread: the ones already running,
        // and this one, still drain every index.
    }
    drain();
    for (std::thread& helper : helpers)
        helper.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace pim

#endif // PIMCACHE_COMMON_PARALLEL_FOR_H_
