/**
 * @file
 * JobPool implementation.
 */
#include "common/job_pool.hpp"

#include "common/log.hpp"
#include "common/trace.hpp"

namespace evrsim {

struct JobPool::BatchState {
    std::vector<std::function<void()>> jobs;
    std::size_t next = 0;     ///< first unclaimed index (guarded by mu_)
    std::size_t finished = 0; ///< completed jobs (guarded by mu_)
    std::vector<std::exception_ptr> errors; ///< slot i: job i's escapee
    std::condition_variable done; ///< finished == jobs.size()
};

JobPool::JobPool(int threads) : threads_(threads)
{
    EVRSIM_ASSERT(threads_ >= 1);
    if (threads_ == 1)
        return; // inline mode: no workers
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobPool::~JobPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
JobPool::runGuarded(std::function<void()> &job)
{
    // Fault isolation: one job's escaped exception must cost one
    // result, not the pool (std::thread would std::terminate on an
    // unwound worker stack, killing every in-flight simulation).
    try {
        job();
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(mu_);
        failures_.emplace_back(e.what());
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        failures_.emplace_back("non-std exception escaped a job");
    }
}

void
JobPool::submit(std::function<void()> job)
{
    EVRSIM_ASSERT(job != nullptr);
    if (threads_ == 1) {
        // Serial path: execute in submission order, same thread.
        runGuarded(job);
        return;
    }
    QueuedJob queued;
    queued.fn = std::move(job);
    if (traceEnabled(TraceCat::Driver))
        queued.enqueue_ns = traceNowNs();
    {
        std::lock_guard<std::mutex> lock(mu_);
        EVRSIM_ASSERT(!stop_);
        queue_.push_back(std::move(queued));
        ++pending_;
    }
    work_ready_.notify_one();
}

void
JobPool::wait()
{
    if (threads_ == 1)
        return;
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
}

bool
JobPool::runOneBatchJob(BatchState &batch)
{
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (batch.next >= batch.jobs.size())
            return false; // every job already claimed by some runner
        index = batch.next++;
    }
    try {
        batch.jobs[index]();
    } catch (...) {
        // Not a pool failure: the batch owner rethrows deterministically.
        batch.errors[index] = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (++batch.finished == batch.jobs.size())
            batch.done.notify_all();
    }
    return true;
}

void
JobPool::runBatch(std::vector<std::function<void()>> jobs)
{
    if (jobs.empty())
        return;
    auto batch = std::make_shared<BatchState>();
    batch->jobs = std::move(jobs);
    batch->errors.resize(batch->jobs.size());

    if (threads_ == 1) {
        // Serial path: index order on the calling thread, no queue.
        for (std::size_t i = 0; i < batch->jobs.size(); ++i) {
            try {
                batch->jobs[i]();
            } catch (...) {
                batch->errors[i] = std::current_exception();
            }
        }
    } else {
        // Park one claim ticket per job so idle workers can steal
        // batch work; pending_ covers the tickets so wait() callers
        // still see a quiescent pool only after the tickets drain.
        std::uint64_t enqueue_ns =
            traceEnabled(TraceCat::Driver) ? traceNowNs() : 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            EVRSIM_ASSERT(!stop_);
            for (std::size_t i = 0; i < batch->jobs.size(); ++i) {
                QueuedJob ticket;
                ticket.batch = batch;
                ticket.enqueue_ns = enqueue_ns;
                queue_.push_back(std::move(ticket));
            }
            pending_ += batch->jobs.size();
        }
        work_ready_.notify_all();

        // Helping wait: the owner claims and runs its own batch's jobs
        // until none are left, then sleeps only while stolen jobs are
        // still running elsewhere. Never blocks with claimable work in
        // hand, so nested calls from inside pool jobs cannot deadlock.
        while (runOneBatchJob(*batch)) {
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            batch->done.wait(lock, [&] {
                return batch->finished == batch->jobs.size();
            });
        }
    }

    // Deterministic failure surface: lowest-index escapee wins, no
    // matter which thread ran it or when it finished. It is moved out
    // of the batch first: a worker's stale claim ticket may drop the
    // last BatchState reference at any time, and that must not release
    // the exception the caller is about to read.
    for (std::exception_ptr &err : batch->errors)
        if (err) {
            std::exception_ptr first = std::move(err);
            std::rethrow_exception(first);
        }
}

void
JobPool::workerLoop()
{
    for (;;) {
        QueuedJob job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_ready_.wait(lock,
                             [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        if (job.enqueue_ns != 0 && traceEnabled(TraceCat::Driver)) {
            std::uint64_t now = traceNowNs();
            traceComplete(TraceCat::Driver, "queue-wait", job.enqueue_ns,
                          now > job.enqueue_ns ? now - job.enqueue_ns : 0);
        }
        if (job.batch) {
            // Claim ticket: run one job of the batch if any remain
            // unclaimed (the owner's helping loop may have beaten us).
            runOneBatchJob(*job.batch);
        } else {
            runGuarded(job.fn);
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--pending_ == 0)
                all_done_.notify_all();
        }
    }
}

std::vector<std::string>
JobPool::drainFailures()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.swap(failures_);
    return out;
}

std::size_t
JobPool::failureCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.size();
}

std::size_t
JobPool::pendingCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
}

int
JobPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace evrsim
