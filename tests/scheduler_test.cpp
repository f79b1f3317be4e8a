/**
 * @file
 * Tests for the parallel experiment scheduler: JobPool semantics, the
 * EVRSIM_JOBS knob, in-flight deduplication of identical triples, the
 * atomic cache-write protocol, and — the load-bearing guarantee —
 * bit-identical results between serial (EVRSIM_JOBS=1) and parallel
 * execution.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "driver/experiment.hpp"
#include "common/job_pool.hpp"
#include "scene/mesh.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

// -------------------------------------------------------------- JobPool --

TEST(JobPool, RunsEverySubmittedJob)
{
    JobPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(JobPool, SingleThreadExecutesInlineInSubmissionOrder)
{
    JobPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::vector<int> order;
    std::thread::id submitter = std::this_thread::get_id();
    for (int i = 0; i < 5; ++i)
        pool.submit([&, i] {
            EXPECT_EQ(std::this_thread::get_id(), submitter);
            order.push_back(i);
        });
    pool.wait();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(JobPool, WaitBlocksUntilJobsFinish)
{
    JobPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(done.load(), 8);
    pool.wait(); // idempotent on an idle pool
}

TEST(JobPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        JobPool pool(3);
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 20);
}

TEST(JobPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(JobPool::defaultThreads(), 1);
}

// ------------------------------------------------- nested runBatch() --

TEST(JobPool, RunBatchRunsEveryJobAndReturnsAfterCompletion)
{
    JobPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 32; ++i)
        jobs.emplace_back([&] { count.fetch_add(1); });
    pool.runBatch(std::move(jobs));
    EXPECT_EQ(count.load(), 32);
    EXPECT_EQ(pool.failureCount(), 0u);
}

TEST(JobPool, RunBatchSingleThreadRunsInIndexOrderInline)
{
    JobPool pool(1);
    std::vector<int> order;
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 5; ++i)
        jobs.emplace_back([&, i] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
    pool.runBatch(std::move(jobs));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(JobPool, NestedRunBatchFromInsideJobsDoesNotDeadlock)
{
    // The regression this API exists for: more outer jobs than workers,
    // each submitting a tile batch to the SAME pool from inside its own
    // job. A submit()+wait() scheme deadlocks here (every worker blocks
    // waiting for the global pending count, which includes itself); the
    // helping wait in runBatch() must complete all work instead.
    JobPool pool(2);
    std::atomic<int> tiles{0};
    for (int outer = 0; outer < 8; ++outer)
        pool.submit([&] {
            std::vector<std::function<void()>> batch;
            for (int t = 0; t < 16; ++t)
                batch.emplace_back([&] { tiles.fetch_add(1); });
            pool.runBatch(std::move(batch));
        });
    pool.wait();
    EXPECT_EQ(tiles.load(), 8 * 16);
    EXPECT_EQ(pool.failureCount(), 0u);
}

TEST(JobPool, RunBatchRethrowsLowestIndexExceptionDeterministically)
{
    for (int threads : {1, 4}) {
        JobPool pool(threads);
        std::atomic<int> ran{0};
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 12; ++i)
            jobs.emplace_back([&, i] {
                ran.fetch_add(1);
                if (i == 3 || i == 9)
                    throw std::runtime_error("job " + std::to_string(i));
            });
        try {
            pool.runBatch(std::move(jobs));
            FAIL() << "runBatch swallowed the batch exceptions";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
        // Every job still ran (a failure costs one result, not the
        // batch), and nothing leaked into the pool's failure channel.
        EXPECT_EQ(ran.load(), 12);
        EXPECT_EQ(pool.failureCount(), 0u);
    }
}

TEST(JobPool, RunBatchEmptyIsANoOp)
{
    JobPool pool(3);
    pool.runBatch({});
    EXPECT_EQ(pool.pendingCount(), 0u);
}

// --------------------------------------------------------- EVRSIM_JOBS --

TEST(BenchParamsEnv, JobsKnobIsParsed)
{
    unsetenv("EVRSIM_JOBS");
    EXPECT_EQ(benchParamsFromEnv().jobs, 0);
    EXPECT_GE(benchParamsFromEnv().resolvedJobs(), 1);

    setenv("EVRSIM_JOBS", "3", 1);
    BenchParams p = benchParamsFromEnv();
    EXPECT_EQ(p.jobs, 3);
    EXPECT_EQ(p.resolvedJobs(), 3);
    unsetenv("EVRSIM_JOBS");
}

TEST(BenchParamsEnv, InvalidJobsIsFatal)
{
    setenv("EVRSIM_JOBS", "0", 1);
    EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                "EVRSIM_JOBS");
    unsetenv("EVRSIM_JOBS");
}

// -------------------------------------------- scheduler over workloads --

namespace {

/** A tiny deterministic workload; `alias` selects its look. */
class TinyWorkload : public Workload
{
  public:
    TinyWorkload(std::string alias, int width, int height)
        : alias_(std::move(alias)), width_(width), height_(height)
    {
        quad_ = meshes::quad({1, 1, 1, 1});
    }

    Info
    info() const override
    {
        return {alias_, "Tiny " + alias_, "Test", false};
    }

    void setup(GpuSimulator &sim) override { sim.uploadMesh(quad_); }

    Scene
    frame(int index) override
    {
        // Per-alias geometry so different aliases give different images.
        float offset = alias_ == "tiny-a" ? 2.0f : 10.0f;
        Scene s;
        setCamera2D(s, width_, height_);
        DrawCommand &c = submitRect(s, &quad_, offset, offset, 20, 16,
                                    0.5f, RenderState{});
        c.tint = {0.4f + 0.1f * (index % 4), 0.3f, 0.2f, 1.0f};
        return s;
    }

  private:
    std::string alias_;
    int width_, height_;
    Mesh quad_;
};

/** Factory for tiny-a/tiny-b counting how many workloads it builds. */
WorkloadFactory
countingFactory(std::atomic<int> *builds)
{
    return [builds](const std::string &alias, int w,
                    int h) -> std::unique_ptr<Workload> {
        if (alias != "tiny-a" && alias != "tiny-b")
            return nullptr;
        builds->fetch_add(1);
        return std::make_unique<TinyWorkload>(alias, w, h);
    };
}

BenchParams
tinyParams(int jobs, const std::string &cache_dir = "")
{
    BenchParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 3;
    p.warmup = 1;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.jobs = jobs;
    return p;
}

/** The cross-product batch both determinism runners execute. */
std::vector<RunRequest>
tinyBatch(const GpuConfig &gpu)
{
    std::vector<RunRequest> reqs;
    for (const char *alias : {"tiny-a", "tiny-b"}) {
        reqs.push_back({alias, SimConfig::baseline(gpu)});
        reqs.push_back({alias, SimConfig::renderingElimination(gpu)});
        reqs.push_back({alias, SimConfig::evr(gpu)});
    }
    return reqs;
}

} // namespace

TEST(Scheduler, ParallelResultsAreByteIdenticalToSerial)
{
    std::atomic<int> builds_serial{0}, builds_parallel{0};

    ExperimentRunner serial(countingFactory(&builds_serial), tinyParams(1));
    ExperimentRunner parallel(countingFactory(&builds_parallel),
                              tinyParams(4));

    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());
    std::vector<RunResult> a = serial.runAll(reqs);
    std::vector<RunResult> b = parallel.runAll(reqs);

    ASSERT_EQ(a.size(), reqs.size());
    ASSERT_EQ(b.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        // Full serialized document (all stats + image_crc), minus the
        // host-timing field, must match byte for byte.
        EXPECT_EQ(a[i].toJson(false).dump(2), b[i].toJson(false).dump(2))
            << "run " << i << " (" << reqs[i].alias << ", "
            << reqs[i].config.name << ") diverged between jobs=1 and "
            << "jobs=4";
    }
    EXPECT_EQ(builds_serial.load(), static_cast<int>(reqs.size()));
    EXPECT_EQ(builds_parallel.load(), static_cast<int>(reqs.size()));
}

TEST(Scheduler, RunAllPreservesRequestOrder)
{
    std::atomic<int> builds{0};
    ExperimentRunner runner(countingFactory(&builds), tinyParams(4));
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(4).gpuConfig());
    std::vector<RunResult> results = runner.runAll(reqs);
    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(results[i].workload, reqs[i].alias);
        EXPECT_EQ(results[i].config, reqs[i].config.name);
    }
}

TEST(Scheduler, DuplicateRequestsSimulateOnce)
{
    std::atomic<int> builds{0};
    ExperimentRunner runner(countingFactory(&builds), tinyParams(4));

    SimConfig cfg = SimConfig::baseline(tinyParams(4).gpuConfig());
    std::vector<RunRequest> reqs(8, RunRequest{"tiny-a", cfg});
    std::vector<RunResult> results = runner.runAll(reqs);

    EXPECT_EQ(builds.load(), 1);
    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.requested, 8u);
    EXPECT_EQ(stats.simulated, 1u);
    EXPECT_EQ(stats.memo_hits, 7u);
    for (const RunResult &r : results)
        EXPECT_EQ(r.image_crc, results[0].image_crc);
}

TEST(Scheduler, ConcurrentRunCallsDeduplicateInFlight)
{
    std::atomic<int> builds{0};
    ExperimentRunner runner(countingFactory(&builds), tinyParams(4));
    SimConfig cfg = SimConfig::evr(tinyParams(4).gpuConfig());

    std::vector<std::thread> threads;
    std::vector<std::uint32_t> crcs(6, 0);
    for (int t = 0; t < 6; ++t)
        threads.emplace_back([&, t] {
            crcs[static_cast<std::size_t>(t)] =
                runner.run("tiny-b", cfg).image_crc;
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(builds.load(), 1);
    for (std::uint32_t crc : crcs)
        EXPECT_EQ(crc, crcs[0]);
}

TEST(Scheduler, MemoServesRepeatRunsWithoutResimulating)
{
    std::atomic<int> builds{0};
    ExperimentRunner runner(countingFactory(&builds), tinyParams(1));
    SimConfig cfg = SimConfig::baseline(tinyParams(1).gpuConfig());

    RunResult first = runner.run("tiny-a", cfg);
    RunResult again = runner.run("tiny-a", cfg);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(again.image_crc, first.image_crc);
    EXPECT_EQ(runner.sweepStats().memo_hits, 1u);
}

// ------------------------------------------------- atomic cache writes --

TEST(Scheduler, CacheWriteLeavesNoTempFilesAndParses)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "evrsim_sched_cache";
    std::filesystem::remove_all(dir);

    std::atomic<int> builds{0};
    {
        ExperimentRunner runner(countingFactory(&builds),
                                tinyParams(4, dir.string()));
        runner.runAll(tinyBatch(tinyParams(4).gpuConfig()));
    }

    int json_files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().extension(), ".json")
            << "leftover temp file " << entry.path();
        std::ifstream in(entry.path());
        std::ostringstream buf;
        buf << in.rdbuf();
        bool ok = false;
        std::string err;
        Json::parse(buf.str(), ok, err);
        EXPECT_TRUE(ok) << entry.path() << ": " << err;
        ++json_files;
    }
    EXPECT_EQ(json_files, 6);

    // A second runner over the same directory serves everything from
    // disk without building a single workload.
    std::atomic<int> builds2{0};
    ExperimentRunner warm(countingFactory(&builds2),
                          tinyParams(4, dir.string()));
    warm.runAll(tinyBatch(tinyParams(4).gpuConfig()));
    EXPECT_EQ(builds2.load(), 0);
    EXPECT_EQ(warm.sweepStats().disk_hits, 6u);

    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ wall-clock recording --

TEST(Scheduler, SimulationRecordsWallClock)
{
    std::atomic<int> builds{0};
    ExperimentRunner runner(countingFactory(&builds), tinyParams(1));
    RunResult r = runner.simulate(
        "tiny-a", SimConfig::baseline(tinyParams(1).gpuConfig()));
    EXPECT_GT(r.sim_wall_ms, 0.0);

    Json with = r.toJson();
    EXPECT_TRUE(with.has("sim_wall_ms"));
    Json without = r.toJson(false);
    EXPECT_FALSE(without.has("sim_wall_ms"));

    RunResult back = RunResult::fromJson(with);
    EXPECT_DOUBLE_EQ(back.sim_wall_ms, r.sim_wall_ms);
    // Documents without the field (deterministic form) default to 0.
    EXPECT_DOUBLE_EQ(RunResult::fromJson(without).sim_wall_ms, 0.0);
}
