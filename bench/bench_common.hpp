/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Every binary resolves the same environment-driven parameters
 * (EVRSIM_FULL / EVRSIM_FRAMES / EVRSIM_NO_CACHE / EVRSIM_CACHE_DIR /
 * EVRSIM_JOBS), builds an ExperimentRunner over the Table III workload
 * registry, and shares simulation results through the on-disk cache, so
 * running all benches simulates each (workload, config) pair exactly
 * once.
 *
 * Binaries declare every run they will need up front (need()), then
 * prefetch() executes the whole batch on the parallel scheduler before
 * any table is printed; the subsequent run() calls inside the table
 * loops are all memo hits. prefetch() also prints the binary's sweep
 * throughput summary (sims/s, frames/s, parallel speedup).
 */
#ifndef EVRSIM_BENCH_BENCH_COMMON_HPP
#define EVRSIM_BENCH_BENCH_COMMON_HPP

#include <errno.h> // program_invocation_short_name (glibc)

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/crash_handler.hpp"
#include "common/log.hpp"
#include "common/shutdown.hpp"
#include "common/trace.hpp"
#include "driver/experiment.hpp"
#include "driver/report.hpp"
#include "workloads/registry.hpp"

namespace evrsim {
namespace bench {

/** Runner + params bundle every bench binary starts from. */
struct BenchContext {
    BenchParams params;
    ExperimentRunner runner;
    std::vector<RunRequest> plan;
    BatchOutcome outcome; ///< filled by prefetch()

    /** The Table III registry under environment-resolved parameters. */
    BenchContext() : BenchContext(workloads::factory(), benchParamsFromEnv())
    {
    }

    /** Any workload source (tests decorate the registry to inject
     *  faults) under explicit parameters. */
    BenchContext(WorkloadFactory factory, const BenchParams &p)
        : params(p), runner(std::move(factory), params)
    {
        setLogLevel(params.log_level);
        installTracing();
        // A sweep that crashes hours in should at least say which
        // (workload, config, frame, tile) it was simulating.
        installCrashHandler();
        // Ctrl-C / SIGTERM drains the sweep instead of killing it:
        // running jobs finish and are cached, queued ones are shed
        // (Cancelled), the summary and the trace are written, and
        // exitCode() maps to 130/143. Re-running the binary then
        // simulates only what the cache does not hold.
        installShutdownHandler();
    }

    GpuConfig gpu() const { return params.gpuConfig(); }

    /** Declare one run of this binary's sweep. */
    void
    need(const std::string &alias, const SimConfig &config)
    {
        plan.push_back({alias, config});
    }

    /** Declare @p configs for every Table III workload. */
    void
    needForAllWorkloads(const std::vector<SimConfig> &configs)
    {
        for (const std::string &alias : workloads::allAliases())
            for (const SimConfig &config : configs)
                need(alias, config);
    }

    /**
     * Execute every declared run on the EVRSIM_JOBS-wide scheduler,
     * print the sweep throughput summary and write it to
     * <cache_dir>/summary-<binary>.json (when the cache is on). Later
     * run() calls for the declared triples return instantly from the
     * in-memory memo.
     *
     * Runs that fail are reported and excluded from aliases(); the
     * binary still prints its tables from the surviving runs and
     * returns exitCode() != 0.
     */
    void
    prefetch()
    {
        outcome = runner.runAllChecked(plan);
        printSweepSummary(runner);
        printFailureReport(outcome);

        // The summary, the one sweep-level file, and the trace (also
        // flushed at exit; flushing here too makes the sweep's spans
        // durable before the tables print). One summary per binary, so
        // a regeneration loop keeps every binary's failures and
        // cancellations, not only the last one's.
        if (params.write_summary && params.use_cache) {
            std::string summary = params.cache_dir + "/summary-" +
                                  program_invocation_short_name + ".json";
            if (Status s = writeSweepSummaryJson(runner, outcome, summary);
                !s.ok())
                warn("could not write %s: %s", summary.c_str(),
                     s.message().c_str());
        }
        if (traceActive())
            if (Status s = traceWrite(); !s.ok())
                warn("could not write trace: %s", s.message().c_str());
    }

    /** True when every declared run for @p alias succeeded. */
    bool
    ok(const std::string &alias) const
    {
        for (const RunFailure &f : outcome.failures)
            if (f.alias == alias)
                return false;
        return true;
    }

    /**
     * The planned workload aliases, in first-declared order without
     * duplicates, minus any with a failed run — the alias list the
     * binary's table loops should iterate.
     */
    std::vector<std::string>
    aliases() const
    {
        std::vector<std::string> out;
        for (const RunRequest &r : plan) {
            if (std::find(out.begin(), out.end(), r.alias) != out.end())
                continue;
            if (ok(r.alias))
                out.push_back(r.alias);
        }
        return out;
    }

    /** Process exit status: 0 on a clean sweep, 1 if any run failed;
     *  128+signal (130/143) after a cooperative shutdown, like a
     *  conventionally signal-terminated process — except the finished
     *  runs' cache entries, the summary and the trace made it out
     *  first. */
    int
    exitCode() const
    {
        return shutdownExitCode(outcome.ok() ? 0 : 1);
    }

  private:
    /** Arm the tracer from EVRSIM_TRACE (a bad spec is fatal, like any
     *  other knob). */
    static void
    installTracing()
    {
        Result<TraceConfig> cfg = traceConfigFromEnv();
        if (!cfg.ok())
            fatal("%s", cfg.status().message().c_str());
        if (cfg.value().enabled())
            traceConfigure(cfg.value());
    }
};

} // namespace bench
} // namespace evrsim

#endif // EVRSIM_BENCH_BENCH_COMMON_HPP
