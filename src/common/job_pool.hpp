/**
 * @file
 * JobPool: a small fixed-size thread pool for the experiment scheduler.
 *
 * The pool exists to parallelize *independent* simulations — each job
 * owns its own GpuSimulator/MemorySystem/Scene, so workers never share
 * simulator state and parallel results are bit-identical to serial ones.
 *
 * A pool of size 1 runs every job inline on the submitting thread, which
 * restores the exact serial execution order (and stack) of a plain loop;
 * `EVRSIM_JOBS=1` therefore reproduces the historical serial bench path.
 */
#ifndef EVRSIM_COMMON_JOB_POOL_HPP
#define EVRSIM_COMMON_JOB_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace evrsim {

/** Fixed-size worker pool with a FIFO job queue. */
class JobPool
{
  public:
    /**
     * @param threads number of workers (>= 1). With 1, jobs execute
     *                inline in submit() and no thread is spawned.
     */
    explicit JobPool(int threads);

    /** Drains the queue (waits for pending jobs), then joins workers. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /**
     * Enqueue one job. A job that throws does NOT take down the pool
     * (or the process): the exception is caught at the worker boundary,
     * its message recorded, and the worker moves on to the next job.
     * Escaped exceptions are job-level faults — retrieve them with
     * drainFailures() after wait().
     */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished executing. */
    void wait();

    /**
     * Run a batch of jobs to completion, safely callable from *inside*
     * a pool job (nested submission). Plain submit()+wait() would
     * deadlock there: wait() blocks until the global pending count hits
     * zero, which includes the very job doing the waiting.
     *
     * runBatch() instead parks one claim ticket per job on the shared
     * queue (so idle workers can steal batch work) and turns the
     * calling thread into a helper: it keeps claiming and running its
     * own batch's jobs, and only sleeps once every job is being run by
     * some other worker. Batch jobs are expected to be leaves with
     * respect to wait() — they may themselves call runBatch(), but
     * must never call wait() on this pool.
     *
     * Unlike submit(), an exception escaping a batch job is NOT
     * recorded as a pool failure: all jobs still run to completion,
     * then the lowest-index captured exception is rethrown on the
     * calling thread — deterministic regardless of execution order.
     * With 1 thread (or from any context), jobs run in index order on
     * the calling thread, reproducing the serial path exactly.
     */
    void runBatch(std::vector<std::function<void()>> jobs);

    /**
     * Messages of exceptions that escaped jobs since the last drain,
     * in completion order. Call after wait() for a stable view.
     */
    std::vector<std::string> drainFailures();

    /** Number of escaped-exception failures recorded so far. */
    std::size_t failureCount() const;

    /** Jobs queued or currently running (heartbeat status line). */
    std::size_t pendingCount() const;

    int threadCount() const { return threads_; }

    /** Default worker count: hardware_concurrency, at least 1. */
    static int defaultThreads();

  private:
    /** Shared state of one runBatch() call. Jobs are claimed by
     *  bumping next_ under the pool mutex; each errors_ slot is
     *  written by exactly one runner (the mutex-guarded finished_
     *  decrement publishes it to the batch owner). */
    struct BatchState;

    void workerLoop();

    /** Run @p job, capturing any escaping exception as a failure. */
    void runGuarded(std::function<void()> &job);

    /** Claim-and-run loop shared by workers and the batch owner.
     *  Runs at most one job; returns false when nothing was left to
     *  claim. */
    bool runOneBatchJob(BatchState &batch);

    int threads_;
    std::vector<std::thread> workers_;

    /** A queued job plus its submit timestamp, so the worker that
     *  dequeues it can emit a driver-level queue-wait trace span
     *  (0 when tracing was off at submit time). A non-null batch
     *  makes this a claim ticket for one job of that batch instead
     *  of a directly runnable function. */
    struct QueuedJob {
        std::function<void()> fn;
        std::shared_ptr<BatchState> batch;
        std::uint64_t enqueue_ns = 0;
    };

    mutable std::mutex mu_;
    std::condition_variable work_ready_;  ///< queue non-empty or stopping
    std::condition_variable all_done_;    ///< pending_ reached zero
    std::deque<QueuedJob> queue_;
    std::vector<std::string> failures_; ///< escaped-exception messages
    std::size_t pending_ = 0; ///< queued + currently-running jobs
    bool stop_ = false;
};

} // namespace evrsim

#endif // EVRSIM_COMMON_JOB_POOL_HPP
