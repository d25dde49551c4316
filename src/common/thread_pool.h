/**
 * @file
 * Work-stealing thread pool for embarrassingly parallel simulation
 * batches (the sweep engine, pim_stress seed batches).
 *
 * Each worker owns a deque; submit() deals tasks round-robin and an
 * idle worker first drains its own deque, then steals from the others.
 * Tasks must be independent: the pool gives no ordering guarantee, so
 * callers that need deterministic output must write results into
 * pre-assigned slots (e.g. indexed by task number) and aggregate after
 * wait(). See DESIGN.md "Threading model".
 *
 * A task that throws is counted as finished; the first exception is
 * captured and rethrown from wait(). The destructor drains all queued
 * work before joining, so dropping a pool never loses tasks.
 */

#ifndef PIMCACHE_COMMON_THREAD_POOL_H_
#define PIMCACHE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pim {

/** Fixed-size work-stealing pool of std::thread workers. */
class ThreadPool
{
  public:
    /** @param workers Worker count; 0 means defaultWorkers(). */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueue @p task; it runs on some worker, in no defined order. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task threw,
     * the first captured exception is rethrown here (once); remaining
     * tasks still ran to completion.
     */
    void wait();

    unsigned workerCount() const { return static_cast<unsigned>(workers_.size()); }

    /** Tasks submitted over the pool's lifetime. */
    std::uint64_t tasksSubmitted() const;

    /** std::thread::hardware_concurrency(), at least 1. */
    static unsigned defaultWorkers();

  private:
    void workerLoop(std::size_t self);

    /** Pop from own deque or steal; false when nothing runnable. */
    bool takeTask(std::size_t self, std::function<void()>& task);

    mutable std::mutex mutex_;
    std::condition_variable workReady_; ///< Signalled on submit/stop.
    std::condition_variable allDone_;   ///< Signalled when active+queued==0.
    std::vector<std::deque<std::function<void()>>> queues_;
    std::vector<std::thread> workers_;
    std::size_t nextQueue_ = 0;   ///< Round-robin submit cursor.
    std::size_t queued_ = 0;      ///< Tasks sitting in deques.
    std::size_t active_ = 0;      ///< Tasks currently running.
    std::uint64_t submitted_ = 0;
    std::exception_ptr firstError_;
    bool stop_ = false;
};

} // namespace pim

#endif // PIMCACHE_COMMON_THREAD_POOL_H_
