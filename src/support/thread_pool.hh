/**
 * @file
 * A reusable worker pool for sharded FS1 scans.
 *
 * One primitive: parallelFor(count, fn) applies fn(i) for i in
 * [0, count) across the workers.  The *calling* thread participates in
 * the loop, so the construct is deadlock-free even when issued from
 * inside a worker task or when every worker is busy: the caller can
 * always drain the remaining indices itself.
 *
 * Iteration order across threads is unspecified; callers that need
 * deterministic output must write into per-index slots and merge in
 * index order (the FS1 shard scan does exactly this).
 */

#ifndef CLARE_SUPPORT_THREAD_POOL_HH
#define CLARE_SUPPORT_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace clare::support {

class ThreadPool
{
  public:
    /**
     * @param threads number of worker threads; 0 makes every
     *        operation run inline on the calling thread (useful for
     *        forcing the sequential path in tests)
     */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const { return workers_; }

    /**
     * Apply @p fn to every index in [0, count).  Blocks until all
     * indices are done; the calling thread works alongside the pool.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

  private:
    struct ForState;

    void enqueue(std::function<void()> job);
    void workerLoop();
    static void runIndices(ForState &state);

    unsigned workers_ = 0;
    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

} // namespace clare::support

#endif // CLARE_SUPPORT_THREAD_POOL_HH
