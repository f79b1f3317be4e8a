/**
 * @file
 * Experiment runner: simulate (workload, config, frames) triples with an
 * on-disk JSON result cache, plus the environment knobs the bench
 * binaries share.
 *
 * The per-figure benches overlap heavily in the simulations they need
 * (Figure 6 and Figure 7 both need baseline+EVR runs of all 20
 * workloads; Figures 9-11 share the RE runs). Two layers of sharing keep
 * the full sweep at "each triple simulates exactly once":
 *
 *  - an on-disk JSON cache shared *across* bench processes, written
 *    atomically (tmp file + rename) so an interrupted or concurrent run
 *    can never leave a truncated entry behind;
 *  - an in-memory memo with in-flight deduplication shared *within* a
 *    process, so a triple requested by several figures (or by several
 *    scheduler workers at once) simulates exactly once per process.
 *
 * runAll() executes a declared batch of runs on a JobPool
 * (EVRSIM_JOBS workers, default hardware_concurrency); every simulation
 * owns its GpuSimulator/MemorySystem/Scene, so parallel results are
 * bit-identical to the EVRSIM_JOBS=1 serial path.
 */
#ifndef EVRSIM_DRIVER_EXPERIMENT_HPP
#define EVRSIM_DRIVER_EXPERIMENT_HPP

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/status.hpp"
#include "common/validate.hpp"
#include "driver/run_result.hpp"
#include "driver/sim_config.hpp"
#include "driver/workload.hpp"

namespace evrsim {

class JobPool;

/** Shared bench parameters, resolved from the environment. */
struct BenchParams {
    int width = 608;   ///< EVRSIM_FULL=1 -> 1196 (Table II)
    int height = 384;  ///< EVRSIM_FULL=1 -> 768
    int frames = 30;   ///< EVRSIM_FULL=1 -> 60 (paper methodology)
    /** Unmeasured warm-up frames rendered first. The paper's techniques
     *  need one completed frame of FVP/signature state before they are
     *  effective; measuring from a cold start would bias every
     *  comparison by the first frame's mandatory full render. */
    int warmup = 2;
    bool use_cache = true; ///< EVRSIM_NO_CACHE=1 disables
    std::string cache_dir; ///< EVRSIM_CACHE_DIR overrides
    /** Scheduler width for runAll(); 0 = hardware_concurrency,
     *  1 = serial (EVRSIM_JOBS). */
    int jobs = 0;
    /** Tile-level parallelism inside each simulation: tiles of a frame
     *  render concurrently with their memory logs replayed in tile
     *  order, byte-identical to the serial path (EVRSIM_TILE_JOBS;
     *  1 = serial tiles). Tile jobs share the sweep scheduler's pool
     *  when it has workers, otherwise each simulator owns a pool. */
    int tile_jobs = 1;
    /** Ingestion validation + invariant auditing applied to every run
     *  whose SimConfig does not carry its own (EVRSIM_VALIDATE /
     *  EVRSIM_VALIDATE_SAMPLE). */
    ValidationConfig validation;
    /** Console verbosity (EVRSIM_LOG: quiet | normal | verbose). */
    LogLevel log_level = LogLevel::Normal;
    /** Status-line cadence in milliseconds (EVRSIM_HEARTBEAT_MS; 0
     *  disables the heartbeat thread). Each tick prints one progress
     *  line to stderr; no file is written. */
    int heartbeat_ms = 2000;
    /** Write <cache_dir>/summary-<binary>.json after each bench sweep
     *  (BenchContext::prefetch) when the cache is on. */
    bool write_summary = true;

    /** GpuConfig for these parameters (Table II otherwise). */
    GpuConfig gpuConfig() const;

    /** Worker count runAll() will actually use (>= 1). */
    int resolvedJobs() const;
};

/**
 * Resolve bench parameters from the environment:
 *   EVRSIM_FULL=1           paper-scale run (1196x768, 60 frames)
 *   EVRSIM_FRAMES=n         override the frame count
 *   EVRSIM_NO_CACHE=1       ignore and do not write the result cache
 *   EVRSIM_CACHE_DIR        cache location (default: <repo>/.bench_cache)
 *   EVRSIM_JOBS=n           scheduler workers (default:
 *                           hardware_concurrency; 1 = serial path)
 *   EVRSIM_TILE_JOBS=n      tile-parallel rasterization inside each
 *                           simulation (default 1 = serial tiles;
 *                           results are byte-identical either way)
 *   EVRSIM_VALIDATE=mode    off | permissive | strict (see validate.hpp)
 *   EVRSIM_VALIDATE_SAMPLE=r image-identity audit tile sample rate
 *   EVRSIM_LOG=level        quiet | normal | verbose console verbosity
 *   EVRSIM_HEARTBEAT_MS=n   stderr status-line cadence (0 = off)
 *
 * Numeric knobs are validated strictly: a value that is not entirely a
 * number in the accepted range is InvalidArgument naming the variable,
 * never silently parsed as 0.
 */
Result<BenchParams> benchParamsFromEnvChecked();

/** benchParamsFromEnvChecked() that exits(1) on invalid knobs. */
BenchParams benchParamsFromEnv();

/** One declared simulation of a batch: (workload alias, configuration). */
struct RunRequest {
    std::string alias;
    SimConfig config;
};

/** One failed run of a batch. */
struct RunFailure {
    std::size_t index = 0; ///< position in the request vector
    std::string alias;
    std::string config;
    Status status; ///< why the run failed
    /** Simulation attempts made: 1, or 0 when the run was shed before
     *  it started. Kept because simbench reads it. */
    int attempts = 1;
    /** Always false; kept because simbench reads it. */
    bool quarantined = false;
};

/**
 * Outcome of runAllChecked(): per-request results plus the runs that
 * failed permanently. Failed slots in results are default-constructed;
 * consumers must treat a request listed in failures as absent.
 */
struct BatchOutcome {
    std::vector<RunResult> results;   ///< request order
    std::vector<RunFailure> failures; ///< ascending by index
    bool ok() const { return failures.empty(); }
};

/**
 * Per-runner accounting of how a sweep's runs were satisfied, for the
 * bench throughput summaries.
 */
struct SweepStats {
    std::uint64_t requested = 0;  ///< runs asked of run()/runAll()
    std::uint64_t simulated = 0;  ///< cold runs actually simulated
    std::uint64_t disk_hits = 0;  ///< served from the on-disk cache
    std::uint64_t memo_hits = 0;  ///< served from the in-process memo
    std::uint64_t frames_simulated = 0; ///< measured frames, cold runs only
    double sim_wall_ms = 0.0;   ///< summed per-simulation wall-clock
    double batch_wall_ms = 0.0; ///< summed runAll() wall-clock
    // Fault accounting:
    std::uint64_t corrupt_entries = 0; ///< damaged cache entries re-simulated
    std::uint64_t retries = 0; ///< always 0; kept because simbench reads it
    std::uint64_t failed = 0;  ///< runs that failed
    /** Jobs shed un-run because a cooperative shutdown (SIGINT/SIGTERM)
     *  arrived before they started. */
    std::uint64_t cancelled = 0;
    // Validation / degradation accounting (freshly simulated runs only):
    std::uint64_t degraded_tiles = 0;     ///< tiles repaired or disabled
    std::uint64_t validate_violations = 0; ///< invariant audit failures
};

/** Simulates and caches runs. */
class ExperimentRunner
{
  public:
    /**
     * @param factory creates workloads by alias; tests inject faults
     *                by decorating it (failing or corrupting workloads)
     * @param params  bench parameters (cache policy, dimensions, jobs)
     */
    ExperimentRunner(WorkloadFactory factory, const BenchParams &params);

    /**
     * Return the result of simulating @p alias under @p config for the
     * bench frame count, using the memo and the on-disk cache when
     * permitted. Thread-safe; concurrent calls for the same triple
     * deduplicate onto a single simulation. Exits(1) on failure — use
     * tryRun() where a failure must be survivable.
     */
    RunResult run(const std::string &alias, const SimConfig &config);

    /** run() that propagates failures instead of exiting. */
    Result<RunResult> tryRun(const std::string &alias,
                             const SimConfig &config);

    /**
     * Execute a batch of runs on a JobPool of resolvedJobs() workers
     * (inline when 1) and return the results in request order.
     * Duplicate requests are simulated once. Results are bit-identical
     * to issuing the same run() calls serially.
     *
     * Fault tolerance: a damaged cache entry is discarded and
     * re-simulated, and the fresh result replaces it through the same
     * atomic publish that writes every entry; a failing run costs only
     * its own slot, and is not retried (the simulator is deterministic,
     * so a retry fails the same way). Every finished run is published
     * to the cache as it completes, so an interrupted sweep that is run
     * again re-simulates only the unfinished runs. Exits(1) if any run
     * failed — use runAllChecked() to get partial results plus the
     * failure list instead.
     */
    std::vector<RunResult> runAll(const std::vector<RunRequest> &requests);

    /** runAll() that reports failures instead of exiting. */
    BatchOutcome runAllChecked(const std::vector<RunRequest> &requests);

    /**
     * Force a fresh simulation (never touches the cache or memo).
     * Exits(1) on failure.
     */
    RunResult simulate(const std::string &alias, const SimConfig &config);

    /** One simulation, failures propagated. */
    Result<RunResult> trySimulate(const std::string &alias,
                                  const SimConfig &config);

    const BenchParams &params() const { return params_; }

    /**
     * Stable job key of (alias, config): the cache-entry filename,
     * which already encodes workload, config, dimensions, frames,
     * validation and schema version.
     */
    std::string jobKey(const std::string &alias,
                       const SimConfig &config) const;

    /** Snapshot of the sweep accounting so far. */
    SweepStats sweepStats() const;

  private:
    /** A memoized run: filled once, then shared by every requester. */
    struct MemoEntry {
        bool done = false;
        Result<RunResult> outcome = RunResult{};
    };

    std::string cachePath(const std::string &alias,
                          const SimConfig &config) const;

    /** Validation actually applied to a run: the SimConfig's own when it
     *  carries one, else the bench-wide EVRSIM_VALIDATE setting. */
    ValidationConfig effectiveValidation(const SimConfig &config) const;

    /** Disk-cache lookup, else simulate once and publish. */
    Result<RunResult> computeUncached(const std::string &alias,
                                      const SimConfig &config,
                                      const std::string &path,
                                      bool &from_disk);

    /**
     * Load + validate one cache entry: NotFound on a plain miss,
     * DataLoss on parse/schema/CRC/shape damage (caller re-simulates).
     */
    Result<RunResult> loadCacheEntry(const std::string &path);

    /** Atomically publish @p r at @p path (failure is only a warn). */
    void storeCacheEntry(const std::string &path, const RunResult &r);

    WorkloadFactory factory_;
    BenchParams params_;

    /** Sweep scheduler pool while runAllChecked is active (else null).
     *  Tile jobs (EVRSIM_TILE_JOBS) share it so one set of workers
     *  serves both levels; JobPool::runBatch makes the nesting safe. */
    JobPool *active_pool_ = nullptr;

    mutable std::mutex mu_;
    std::condition_variable memo_done_;
    std::map<std::string, std::shared_ptr<MemoEntry>> memo_;
    SweepStats stats_;
};

/**
 * Version tag mixed into cache filenames and embedded in each entry's
 * envelope; bump when simulation semantics or the persisted RunResult
 * schema change so stale results are never reused. v2: added per-run
 * sim_wall_ms. v3: entries wrapped in a {schema, payload_crc32,
 * payload} envelope so damage is detected by checksum, not by luck.
 * v4: validation/degradation counters joined the persisted stats.
 */
constexpr int kResultCacheVersion = 4;

} // namespace evrsim

#endif // EVRSIM_DRIVER_EXPERIMENT_HPP
