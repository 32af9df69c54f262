/**
 * @file
 * Fixed-size worker pool used by the parallel-block compressors
 * (gpzip mirrors pigz's block parallelism) and by bench harnesses.
 */

#ifndef SAGE_UTIL_THREAD_POOL_HH
#define SAGE_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sage {

/**
 * A minimal fork-join thread pool.
 *
 * Tasks are arbitrary void() callables; wait() blocks until every task
 * submitted so far has finished. The pool is intentionally simple — the
 * compressors submit large, independent block jobs, so work stealing or
 * futures would be over-engineering. A task passed to submit() must not
 * throw; parallelFor() forwards exceptions to its caller.
 */
class ThreadPool
{
  public:
    /** Start @p threads workers (0 means hardware concurrency). */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. */
    void submit(std::function<void()> task);

    /**
     * Block until all submitted tasks have completed. Called from one
     * of this pool's own workers it would wait for its own task
     * forever, so it panics instead.
     */
    void wait();

    /** Number of worker threads. */
    size_t threadCount() const { return workers_.size(); }

    /**
     * Run @p fn(i) for i in [0, n) across the pool and wait.
     *
     * Queues one task per worker (at most @p n); each task pulls indices
     * from a shared atomic cursor, so the per-item cost is one atomic
     * increment rather than one queued std::function.
     *
     * @p alongside, when given, runs on the calling thread meanwhile, and
     * that thread then pulls indices too. One task fewer is queued, but
     * at least one, so on a pool of two or more workers no more threads
     * than workers run at once.
     *
     * The first exception thrown by @p fn or @p alongside stops the
     * cursor handing out further indices and is rethrown on the caller
     * once every task has finished; the indices already taken still run.
     * Like wait(), the call returns only when every task queued on the
     * pool has finished, not just its own, so @p fn must not call back
     * into this pool: a parallelFor() or wait() from one of its workers
     * panics rather than deadlock.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                     const std::function<void()> &alongside = {});

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    size_t inflight_ = 0;
    bool stopping_ = false;
};

} // namespace sage

#endif // SAGE_UTIL_THREAD_POOL_HH
