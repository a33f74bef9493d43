#include "support/thread_pool.hh"

#include <algorithm>
#include <memory>

namespace clare::support {

/** Shared progress of one parallelFor: index cursor + completion. */
struct ThreadPool::ForState
{
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t count = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    std::mutex mutex;
    std::condition_variable finished;
};

ThreadPool::ThreadPool(unsigned threads) : workers_(threads)
{
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(std::move(job));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !jobs_.empty();
            });
            if (jobs_.empty())
                return;     // stopping and drained
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
    }
}

/** Pull indices from the shared cursor until they run out. */
void
ThreadPool::runIndices(ForState &state)
{
    for (;;) {
        std::size_t i = state.next.fetch_add(1,
                                             std::memory_order_relaxed);
        if (i >= state.count)
            return;
        (*state.fn)(i);
        std::size_t finished =
            state.done.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (finished == state.count) {
            // The waiter re-checks `done` under the mutex; taking the
            // lock here orders this notify after its wait.
            std::lock_guard<std::mutex> lock(state.mutex);
            state.finished.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers_ == 0 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    auto state = std::make_shared<ForState>();
    state->count = count;
    state->fn = &fn;

    // `fn` stays alive: the caller blocks below until every index is
    // done, and helpers that start after completion exit immediately.
    std::size_t helpers = std::min<std::size_t>(workers_, count - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        enqueue([state] { runIndices(*state); });

    runIndices(*state);

    std::unique_lock<std::mutex> lock(state->mutex);
    state->finished.wait(lock, [&] {
        return state->done.load(std::memory_order_acquire) == count;
    });
}

} // namespace clare::support
