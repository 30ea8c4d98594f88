/**
 * @file
 * Fixed-size thread pool used by the WGA pipelines.
 *
 * The filtering and extension stages process millions of independent tiles;
 * ThreadPool::parallel_for partitions such index ranges across workers.
 *
 * Concurrency is size() + 1, not size(): a thread waiting in
 * parallel_for runs queued grains itself, so ThreadPool(1) runs two
 * grains at once (the worker and the caller). Timings labelled "one
 * thread" that go through a pool of one therefore measure two
 * concurrent threads.
 */
#ifndef DARWIN_UTIL_THREAD_POOL_H
#define DARWIN_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace darwin {

/** A minimal work-queue thread pool. */
class ThreadPool {
  public:
    /**
     * @param num_threads Worker count; 0 means hardware_concurrency().
     */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads (a parallel_for caller makes one more). */
    std::size_t size() const { return workers_.size(); }

    /**
     * Enqueue a task; runs at some point on a worker thread (or on a
     * thread helping inside parallel_for). Tasks must not throw — use
     * parallel_for when exception propagation is needed.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait_idle();

    /**
     * Run body(i) for every i in [begin, end) across the pool and wait
     * for *this call's* work only. Work is handed out in contiguous
     * grains to limit queue contention.
     *
     * While waiting, the calling thread helps execute queued tasks, so
     * parallel_for may be nested (an outer parallel_for body may invoke
     * an inner one on the same pool) without deadlock — and up to
     * size() + 1 threads run `body` at once. The first
     * exception thrown by `body` is rethrown on the calling thread after
     * the remaining grains finish.
     */
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& body,
                      std::size_t grain = 0);

  private:
    void worker_loop();

    /** Pop and run one queued task; false if the queue was empty. */
    bool run_one_task();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable idle_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
};

}  // namespace darwin

#endif  // DARWIN_UTIL_THREAD_POOL_H
