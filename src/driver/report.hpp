/**
 * @file
 * Console reporting helpers shared by the bench binaries: aligned
 * tables, ASCII bars for normalized metrics, and the summary statistics
 * the paper reports (arithmetic and geometric means).
 */
#ifndef EVRSIM_DRIVER_REPORT_HPP
#define EVRSIM_DRIVER_REPORT_HPP

#include <string>
#include <vector>

#include "driver/experiment.hpp"

namespace evrsim {

/** Simple fixed-column console table. */
class ReportTable
{
  public:
    explicit ReportTable(std::vector<std::string> headers);

    /** Append one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Render to stdout with column alignment. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p decimals places. */
std::string fmt(double value, int decimals = 2);

/** Format a ratio as a percentage string ("42.3%"). */
std::string fmtPct(double ratio, int decimals = 1);

/** ASCII bar of length proportional to value/scale (max @p width chars). */
std::string bar(double value, double scale, int width = 24);

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &values);

/** Geometric mean; 0 for empty input (values must be positive). */
double geomean(const std::vector<double> &values);

/** Print the standard bench banner (experiment id + parameters). */
void printBenchHeader(const std::string &experiment_id,
                      const std::string &description,
                      const BenchParams &params);

/** Print the paper-vs-measured comparison footer line. */
void printPaperShape(const std::string &expectation);

/**
 * Print the sweep throughput summary for a bench binary: how the
 * requested runs were satisfied (simulated / disk cache / memo), the
 * batch wall-clock, sims/s and frames/s, and the aggregate-sim-time to
 * wall-clock ratio (the scheduler's average concurrency). Speedup is
 * measured by comparing sims/s between EVRSIM_JOBS=1 and =N runs.
 */
void printSweepSummary(const ExperimentRunner &runner);

/**
 * Print the sweep-end failure report: one line per failed run
 * (alias/config, status). Prints nothing when the batch
 * is clean, so fault-free sweeps look exactly as before.
 */
void printFailureReport(const BatchOutcome &outcome);

/**
 * Write the numbers printSweepSummary() prints — run accounting,
 * throughput, fault counters (including runs cancelled by a shutdown
 * signal) — plus the batch's failed runs as JSON at @p path (atomic
 * tmp+rename): the one sweep-level file, `summary-<binary>.json` for a
 * bench binary. Per-run numbers live in the result-cache entries.
 */
Status writeSweepSummaryJson(const ExperimentRunner &runner,
                             const BatchOutcome &outcome,
                             const std::string &path);

} // namespace evrsim

#endif // EVRSIM_DRIVER_REPORT_HPP
