#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/logging.hh"

namespace sage {

namespace {

/** The pool whose worker runs on this thread, if any. */
thread_local const ThreadPool *workerPool = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    size_t n = threads;
    if (n == 0)
        n = std::max<size_t>(1, std::thread::hardware_concurrency());
    workers_.reserve(n);
    for (size_t i = 0; i < n; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
        inflight_++;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    if (workerPool == this) {
        sage_panic("ThreadPool::wait() called from one of the pool's own "
                   "workers: it would wait for its own task forever");
    }
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inflight_ == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn,
                        const std::function<void()> &alongside)
{
    std::atomic<size_t> cursor{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    // Park the cursor at the end so every task stops taking indices;
    // keep only the first failure.
    auto fail = [&] {
        cursor.store(n);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error)
            error = std::current_exception();
    };
    auto run_items = [&] {
        try {
            for (size_t i = cursor.fetch_add(1); i < n;
                 i = cursor.fetch_add(1))
                fn(i);
        } catch (...) {
            fail();
        }
    };
    // Alongside work makes this thread one of the pool's threads: one
    // task fewer is queued, and this thread takes items once that work
    // is done.
    const size_t workers = alongside
        ? std::max<size_t>(1, workers_.size() - 1)
        : workers_.size();
    const size_t tasks = std::min(n, workers);
    for (size_t t = 0; t < tasks; t++)
        submit(run_items);
    if (alongside) {
        try {
            alongside();
        } catch (...) {
            fail();
        }
        run_items();
    }
    wait();
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    workerPool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock,
                            [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inflight_--;
        }
        allDone_.notify_all();
    }
}

} // namespace sage
