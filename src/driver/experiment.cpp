/**
 * @file
 * Experiment runner implementation.
 */
#include "driver/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <atomic>

#include "common/atomic_file.hpp"
#include "common/crash_handler.hpp"
#include "common/env.hpp"
#include "common/shutdown.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"
#include "driver/envelope.hpp"
#include "common/job_pool.hpp"

namespace evrsim {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Clears the calling thread's crash context when a run ends. */
struct CrashContextGuard {
    ~CrashContextGuard() { crashContextClear(); }
};

/**
 * Live sweep progress: a timer thread that, every interval, prints a
 * one-line status to stderr (completed/total, sims/s, frames/s, ETA,
 * queue depth, failures, cache ratio). It writes no file: per-run
 * numbers live in the cache entries and sweep totals in the summary file.
 */
class SweepHeartbeat
{
  public:
    SweepHeartbeat(const ExperimentRunner &runner, const JobPool &pool,
                   const std::atomic<std::size_t> &completed,
                   std::size_t total, int interval_ms)
        : runner_(runner), pool_(pool), completed_(completed),
          total_(total), start_(std::chrono::steady_clock::now()),
          thread_([this, interval_ms] { loop(interval_ms); })
    {
    }

    ~SweepHeartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    loop(int interval_ms)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                             [this] { return stop_; }))
                return;
            lock.unlock();
            emit();
            lock.lock();
        }
    }

    /** One status line. */
    void
    emit()
    {
        SweepStats s = runner_.sweepStats();
        std::size_t done = completed_.load(std::memory_order_relaxed);
        double elapsed_s = elapsedMs(start_) / 1000.0;
        double rate = elapsed_s > 0.0 ? done / elapsed_s : 0.0;
        double sims_per_s =
            elapsed_s > 0.0 ? s.simulated / elapsed_s : 0.0;
        double frames_per_s =
            elapsed_s > 0.0 ? s.frames_simulated / elapsed_s : 0.0;
        double eta_s =
            rate > 0.0 && total_ > done ? (total_ - done) / rate : 0.0;
        std::uint64_t served = s.disk_hits + s.memo_hits;
        double cache_ratio =
            s.requested > 0
                ? static_cast<double>(served) / s.requested
                : 0.0;
        std::fprintf(
            stderr,
            "[sweep] %zu/%zu done (%.0f%%), %.2f sims/s, "
            "%.1f frames/s, ETA %.0fs, queue %zu, failed %llu, "
            "cache %.0f%%\n",
            done, total_, total_ > 0 ? 100.0 * done / total_ : 100.0,
            sims_per_s, frames_per_s, eta_s, pool_.pendingCount(),
            static_cast<unsigned long long>(s.failed), 100.0 * cache_ratio);
    }

    const ExperimentRunner &runner_;
    const JobPool &pool_;
    const std::atomic<std::size_t> &completed_;
    std::size_t total_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< last member: starts after state is ready
};

} // namespace

GpuConfig
BenchParams::gpuConfig() const
{
    GpuConfig gpu;
    gpu.screen_width = width;
    gpu.screen_height = height;
    return gpu;
}

int
BenchParams::resolvedJobs() const
{
    return jobs > 0 ? jobs : JobPool::defaultThreads();
}

Result<BenchParams>
benchParamsFromEnvChecked()
{
    BenchParams p;
    if (const char *full = std::getenv("EVRSIM_FULL");
        full && full[0] == '1') {
        p.width = 1196;
        p.height = 768;
        p.frames = 60;
    }

    // Strictly validated numeric knobs: name, range, destination.
    long long v = 0;
    bool present = false;
    if (Status s = readIntKnob("EVRSIM_WARMUP", 0, 1000000, v, present);
        !s.ok())
        return s;
    if (present)
        p.warmup = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_FRAMES", 1, 1000000, v, present);
        !s.ok())
        return s;
    if (present)
        p.frames = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_JOBS", 1, 4096, v, present);
        !s.ok())
        return s;
    if (present)
        p.jobs = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_TILE_JOBS", 1, 4096, v, present);
        !s.ok())
        return s;
    if (present)
        p.tile_jobs = static_cast<int>(v);

    int choice = 0;
    if (Status s = readChoiceKnob("EVRSIM_LOG",
                                  {"quiet", "normal", "verbose"}, choice,
                                  present);
        !s.ok())
        return s;
    if (present)
        p.log_level = static_cast<LogLevel>(choice);

    if (Status s = readIntKnob("EVRSIM_HEARTBEAT_MS", 0, 86400000, v,
                               present);
        !s.ok())
        return s;
    if (present)
        p.heartbeat_ms = static_cast<int>(v);

    Result<ValidationConfig> val = validationFromEnvChecked();
    if (!val.ok())
        return val.status();
    p.validation = val.value();

    if (const char *nc = std::getenv("EVRSIM_NO_CACHE"); nc && nc[0] == '1')
        p.use_cache = false;
    if (const char *dir = std::getenv("EVRSIM_CACHE_DIR"))
        p.cache_dir = dir;
    else
        p.cache_dir = ".bench_cache";
    return p;
}

BenchParams
benchParamsFromEnv()
{
    Result<BenchParams> p = benchParamsFromEnvChecked();
    if (!p.ok())
        fatal("%s", p.status().message().c_str());
    return p.value();
}

ExperimentRunner::ExperimentRunner(WorkloadFactory factory,
                                   const BenchParams &params)
    : factory_(std::move(factory)), params_(params)
{
    EVRSIM_ASSERT(factory_ != nullptr);
}

std::string
ExperimentRunner::jobKey(const std::string &alias,
                         const SimConfig &config) const
{
    return std::filesystem::path(cachePath(alias, config))
        .filename()
        .string();
}

std::string
ExperimentRunner::cachePath(const std::string &alias,
                            const SimConfig &config) const
{
    std::ostringstream name;
    name << alias << '-' << config.name << '-' << params_.width << 'x'
         << params_.height << "-t" << config.gpu.tile_size << "-f"
         << params_.frames << "-w" << params_.warmup
         << effectiveValidation(config).cacheTag() << "-v"
         << kResultCacheVersion << ".json";
    return (std::filesystem::path(params_.cache_dir) / name.str()).string();
}

ValidationConfig
ExperimentRunner::effectiveValidation(const SimConfig &config) const
{
    return config.validation.enabled() ? config.validation
                                       : params_.validation;
}

Result<RunResult>
ExperimentRunner::trySimulate(const std::string &alias,
                              const SimConfig &config)
{
    TraceSpan sim_span(TraceCat::Driver, "simulate");
    if (sim_span.active())
        sim_span.setDetail(alias + "/" + config.name);

    auto start = std::chrono::steady_clock::now();

    SimConfig cfg = config;
    cfg.validation = effectiveValidation(config);
    if (Status s = cfg.checkValid(); !s.ok())
        return s;

    try {
        std::unique_ptr<Workload> workload =
            factory_(alias, params_.width, params_.height);
        if (!workload)
            return Status::notFound("unknown workload alias '" + alias +
                                    "'");

        CrashContextGuard crash_guard;
        crashContextSetRun(alias.c_str(), cfg.name.c_str());

        auto renderChecked = [&](GpuSimulator &sim, int absolute) {
            crashContextSetFrame(absolute);
            Result<FrameStats> fs =
                sim.tryRenderFrame(workload->frame(absolute));
            if (!fs.ok())
                return fs.status().withContext(alias + "/" + cfg.name +
                                               " frame " +
                                               std::to_string(absolute));
            return Status();
        };

        GpuSimulator sim(cfg);
        if (params_.tile_jobs > 1)
            sim.setTileExecution(active_pool_, params_.tile_jobs);
        workload->setup(sim);

        // Warm-up: establish FVP and signature state, then measure.
        for (int f = 0; f < params_.warmup; ++f)
            if (Status s = renderChecked(sim, f); !s.ok())
                return s;
        sim.resetTotals();

        for (int f = 0; f < params_.frames; ++f)
            if (Status s = renderChecked(sim, params_.warmup + f);
                !s.ok())
                return s;

        RunResult r;
        r.workload = alias;
        r.config = cfg.name;
        r.frames = params_.frames;
        r.width = params_.width;
        r.height = params_.height;
        r.totals = sim.totals();
        r.energy = sim.energyOf(sim.totals());
        r.image_crc = sim.framebuffer().contentCrc();
        r.sim_wall_ms = elapsedMs(start);
        return r;
    } catch (const std::exception &e) {
        return Status::internal("workload '" + alias +
                                "' threw: " + e.what());
    } catch (...) {
        return Status::internal("workload '" + alias +
                                "' threw a non-std exception");
    }
}

RunResult
ExperimentRunner::simulate(const std::string &alias, const SimConfig &config)
{
    Result<RunResult> r = trySimulate(alias, config);
    if (!r.ok())
        fatal("%s", r.status().toString().c_str());
    return r.value();
}

Result<RunResult>
ExperimentRunner::loadCacheEntry(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::notFound("no cache entry at " + path);

    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof())
        return Status::dataLoss("read error on " + path);

    // Envelope {schema, payload_crc32, payload} (driver/envelope.hpp).
    // The schema field guards against a foreign or stale document that
    // happens to land at a current filename; the CRC detects any
    // corruption of the payload bytes (truncation is caught earlier by
    // the parse).
    Result<Json> payload = parseEnvelope(buf.str(), kResultCacheVersion);
    if (!payload.ok())
        return payload.status();
    return RunResult::tryFromJson(payload.value());
}

void
ExperimentRunner::storeCacheEntry(const std::string &path,
                                  const RunResult &r)
{
    std::error_code ec;
    std::filesystem::create_directories(params_.cache_dir, ec);

    // Write-then-fsync-then-rename (common/atomic_file.hpp) so a
    // concurrent bench binary, a kill mid write, or a power loss can
    // never leave a truncated or unsynced entry at the published name.
    // Within one process the memo guarantees a single writer per key.
    std::string text =
        wrapEnvelope(r.toJson(), kResultCacheVersion).dump(1);
    if (Status s = atomicWriteFile(path, text); !s.ok())
        warn("could not publish cache entry %s: %s", path.c_str(),
             s.message().c_str());
}

Result<RunResult>
ExperimentRunner::computeUncached(const std::string &alias,
                                  const SimConfig &config,
                                  const std::string &path, bool &from_disk)
{
    from_disk = false;
    if (params_.use_cache) {
        Result<RunResult> cached = loadCacheEntry(path);
        if (cached.ok()) {
            if (traceEnabled(TraceCat::Cache))
                traceInstant(TraceCat::Cache, "cache-hit",
                             alias + "/" + config.name);
            from_disk = true;
            return cached;
        }
        if (traceEnabled(TraceCat::Cache))
            traceInstant(TraceCat::Cache, "cache-miss",
                         alias + "/" + config.name);
        // A plain miss (NotFound) is the normal cold path; anything
        // else means the entry exists but cannot be trusted. Fall
        // through to re-simulation: the fresh result is published over
        // the damaged bytes by the same atomic rename as any entry.
        if (cached.status().code() != ErrorCode::NotFound) {
            if (traceEnabled(TraceCat::Cache))
                traceInstant(TraceCat::Cache, "cache-corrupt",
                             alias + "/" + config.name);
            warn("discarding corrupt cache entry %s: %s", path.c_str(),
                 cached.status().toString().c_str());
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt_entries;
        }
    }

    // One attempt: the simulator is deterministic, so a failed run
    // would fail the same way again. A finished run is published at
    // once, which is what lets a re-run of an interrupted sweep skip it.
    Result<RunResult> r = trySimulate(alias, config);
    if (r.ok() && params_.use_cache)
        storeCacheEntry(path, r.value());
    return r;
}

Result<RunResult>
ExperimentRunner::tryRun(const std::string &alias, const SimConfig &config)
{
    std::string key = cachePath(alias, config);

    std::shared_ptr<MemoEntry> entry;
    {
        std::unique_lock<std::mutex> lock(mu_);
        ++stats_.requested;
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            // Either already computed or in flight on another worker;
            // both count as a memo hit for this requester. Failures
            // memoize too: a failed triple is not re-run by every later
            // requester.
            entry = it->second;
            memo_done_.wait(lock, [&] { return entry->done; });
            ++stats_.memo_hits;
            if (traceEnabled(TraceCat::Cache))
                traceInstant(TraceCat::Cache, "memo-hit",
                             alias + "/" + config.name);
            return entry->outcome;
        }
        entry = std::make_shared<MemoEntry>();
        memo_.emplace(key, entry);
    }

    // We own the computation for this key; everyone else waits on entry.
    bool from_disk = false;
    auto start = std::chrono::steady_clock::now();
    Result<RunResult> outcome = RunResult{};
    {
        TraceSpan job_span(TraceCat::Driver, "job");
        if (job_span.active())
            job_span.setDetail(alias + "/" + config.name);
        outcome = computeUncached(alias, config, key, from_disk);
    }
    double wall_ms = elapsedMs(start);

    {
        std::lock_guard<std::mutex> lock(mu_);
        entry->outcome = outcome;
        entry->done = true;
        if (!outcome.ok()) {
            ++stats_.failed;
        } else if (from_disk) {
            ++stats_.disk_hits;
        } else {
            ++stats_.simulated;
            stats_.frames_simulated +=
                static_cast<std::uint64_t>(params_.frames);
            stats_.sim_wall_ms += wall_ms;
            stats_.degraded_tiles += outcome.value().totals.degraded_tiles;
            stats_.validate_violations +=
                outcome.value().totals.validate_violations;
        }
    }
    memo_done_.notify_all();
    return outcome;
}

RunResult
ExperimentRunner::run(const std::string &alias, const SimConfig &config)
{
    Result<RunResult> outcome = tryRun(alias, config);
    if (!outcome.ok())
        fatal("run %s/%s failed: %s", alias.c_str(), config.name.c_str(),
              outcome.status().toString().c_str());
    return outcome.value();
}

BatchOutcome
ExperimentRunner::runAllChecked(const std::vector<RunRequest> &requests)
{
    auto start = std::chrono::steady_clock::now();
    BatchOutcome batch;
    batch.results.resize(requests.size());
    {
        std::mutex failures_mu;
        std::atomic<std::size_t> completed{0};
        int jobs = params_.resolvedJobs();
        if (jobs > static_cast<int>(requests.size()) && !requests.empty())
            jobs = static_cast<int>(requests.size());
        JobPool pool(std::max(jobs, 1));
        // Published before any job is submitted, cleared after wait():
        // tile jobs inside simulations nest onto this pool via
        // JobPool::runBatch instead of spawning a pool per simulator.
        active_pool_ = &pool;
        std::unique_ptr<SweepHeartbeat> heartbeat;
        if (params_.heartbeat_ms > 0 && !requests.empty())
            heartbeat = std::make_unique<SweepHeartbeat>(
                *this, pool, completed, requests.size(),
                params_.heartbeat_ms);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            pool.submit([this, &requests, &batch, &failures_mu,
                         &completed, i] {
                // Cooperative shutdown: a job not yet started when the
                // signal arrived is shed, not simulated — running jobs
                // finish (and are cached), the sweep summary and the
                // trace are written by the normal end-of-sweep path, and
                // the binary exits 128+signal.
                if (shutdownRequested()) {
                    {
                        std::lock_guard<std::mutex> lock(failures_mu);
                        batch.failures.push_back(
                            {i, requests[i].alias,
                             requests[i].config.name,
                             Status::cancelled(
                                 "sweep interrupted by signal; job "
                                 "not started"),
                             0, false});
                    }
                    {
                        std::lock_guard<std::mutex> lock(mu_);
                        ++stats_.cancelled;
                    }
                    completed.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                Result<RunResult> outcome =
                    tryRun(requests[i].alias, requests[i].config);
                if (outcome.ok()) {
                    batch.results[i] = outcome.value();
                } else {
                    std::lock_guard<std::mutex> lock(failures_mu);
                    batch.failures.push_back(
                        {i, requests[i].alias, requests[i].config.name,
                         outcome.status(), 1, false});
                }
                completed.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait();
        active_pool_ = nullptr;
        // tryRun() catches everything a job can raise, so escaped
        // exceptions here are scheduler bugs, not workload faults.
        EVRSIM_ASSERT(pool.failureCount() == 0);
    }
    std::sort(batch.failures.begin(), batch.failures.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.index < b.index;
              });
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.batch_wall_ms += elapsedMs(start);
    }
    return batch;
}

std::vector<RunResult>
ExperimentRunner::runAll(const std::vector<RunRequest> &requests)
{
    BatchOutcome batch = runAllChecked(requests);
    if (!batch.ok()) {
        const RunFailure &first = batch.failures.front();
        fatal("%zu of %zu runs failed; first: %s/%s: %s",
              batch.failures.size(), requests.size(), first.alias.c_str(),
              first.config.c_str(), first.status.toString().c_str());
    }
    return std::move(batch.results);
}

SweepStats
ExperimentRunner::sweepStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace evrsim
