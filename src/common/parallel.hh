/**
 * @file
 * parallelFor: the one parallel loop.
 *
 * Every parallel job in the simulator is a flat set of independent
 * work items that each take milliseconds to seconds: the experiment
 * driver's deduplicated cells, oscache-dft's fuzz seeds and
 * workloads.  At that grain one shared atomic index is all the
 * scheduling they need.
 */

#ifndef OSCACHE_COMMON_PARALLEL_HH
#define OSCACHE_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace oscache
{

/**
 * Call body(index, worker) once for each index in [0, count), on at
 * most min(jobs, count) workers (jobs 0 counts as 1).  The calling
 * thread is worker 0; the others are threads started here.  Workers
 * take indices from one shared counter, so indices start in
 * increasing order, and with one worker they run in order.
 *
 * @p body must be safe to call concurrently and returns whether to
 * go on.  Once a body returns false or throws, no worker takes
 * another index; bodies already running finish.  parallelFor returns
 * after every worker has joined, rethrowing the first exception a
 * body threw.
 */
template <typename Body>
void
parallelFor(unsigned jobs, std::size_t count, Body &&body)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex errorMutex;
    std::exception_ptr error; // Guarded by errorMutex.

    const auto work = [&](unsigned worker) {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= count)
                return;
            try {
                if (!body(index, worker))
                    stop.store(true, std::memory_order_relaxed);
            } catch (...) {
                stop.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    const std::size_t workers =
        std::min<std::size_t>(std::max(jobs, 1u), count);
    {
        // jthreads join when this scope ends, also when starting one
        // throws.
        std::vector<std::jthread> helpers;
        for (unsigned w = 1; w < workers; ++w)
            helpers.emplace_back(work, w);
        work(0);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace oscache

#endif // OSCACHE_COMMON_PARALLEL_HH
