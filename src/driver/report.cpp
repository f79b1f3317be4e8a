/**
 * @file
 * Reporting helpers implementation.
 */
#include "driver/report.hpp"

#include <cmath>
#include <cstdio>

#include "common/atomic_file.hpp"
#include "common/log.hpp"
#include "driver/json.hpp"

namespace evrsim {

ReportTable::ReportTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    EVRSIM_ASSERT(!headers_.empty());
}

void
ReportTable::addRow(std::vector<std::string> cells)
{
    EVRSIM_ASSERT(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
ReportTable::print() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &cells) {
        std::printf("  ");
        for (std::size_t c = 0; c < cells.size(); ++c) {
            // Left-align the first column (names), right-align numbers.
            if (c == 0)
                std::printf("%-*s", static_cast<int>(widths[c]),
                            cells[c].c_str());
            else
                std::printf("  %*s", static_cast<int>(widths[c]),
                            cells[c].c_str());
        }
        std::printf("\n");
    };

    print_row(headers_);
    std::size_t total = 2;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    std::printf("  %s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
fmtPct(double ratio, int decimals)
{
    return fmt(ratio * 100.0, decimals) + "%";
}

std::string
bar(double value, double scale, int width)
{
    if (scale <= 0.0)
        return "";
    int n = static_cast<int>(std::lround(value / scale * width));
    n = std::max(0, std::min(n, width * 2)); // allow overshoot to 2x
    return std::string(static_cast<std::size_t>(n), '#');
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / values.size();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        EVRSIM_ASSERT(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / values.size());
}

void
printBenchHeader(const std::string &experiment_id,
                 const std::string &description, const BenchParams &params)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", experiment_id.c_str(), description.c_str());
    std::printf("render target %dx%d, %d frames%s\n", params.width,
                params.height, params.frames,
                params.use_cache ? " (result cache on)" : "");
    std::printf("==============================================================\n");
}

void
printPaperShape(const std::string &expectation)
{
    std::printf("\npaper shape: %s\n\n", expectation.c_str());
}

void
printSweepSummary(const ExperimentRunner &runner)
{
    SweepStats s = runner.sweepStats();
    std::printf("sweep: %llu runs (%llu simulated, %llu disk cache, "
                "%llu memo) on %d job(s)\n",
                static_cast<unsigned long long>(s.requested),
                static_cast<unsigned long long>(s.simulated),
                static_cast<unsigned long long>(s.disk_hits),
                static_cast<unsigned long long>(s.memo_hits),
                runner.params().resolvedJobs());
    if (s.batch_wall_ms > 0.0 && s.simulated > 0) {
        double secs = s.batch_wall_ms / 1000.0;
        std::printf("sweep throughput: %.2f sims/s, %.1f frames/s "
                    "(%.2fs wall, %.2fs aggregate sim time, "
                    "avg concurrency %.2fx)\n",
                    s.simulated / secs, s.frames_simulated / secs, secs,
                    s.sim_wall_ms / 1000.0, s.sim_wall_ms / s.batch_wall_ms);
    } else if (s.batch_wall_ms > 0.0) {
        std::printf("sweep throughput: all runs served from cache in "
                    "%.2fs wall\n",
                    s.batch_wall_ms / 1000.0);
    }
    if (s.corrupt_entries > 0 || s.failed > 0)
        std::printf("sweep faults: %llu corrupt cache entr%s "
                    "re-simulated, %llu run(s) failed\n",
                    static_cast<unsigned long long>(s.corrupt_entries),
                    s.corrupt_entries == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(s.failed));
    if (s.validate_violations > 0 || s.degraded_tiles > 0)
        std::printf("sweep degradations: %llu invariant violation(s), "
                    "%llu tile(s) degraded\n",
                    static_cast<unsigned long long>(s.validate_violations),
                    static_cast<unsigned long long>(s.degraded_tiles));
    std::printf("\n");
}

void
printFailureReport(const BatchOutcome &outcome)
{
    if (outcome.ok())
        return;
    std::fprintf(stderr, "FAILED RUNS (%zu):\n", outcome.failures.size());
    for (const RunFailure &f : outcome.failures)
        std::fprintf(stderr, "  %s/%s: %s\n", f.alias.c_str(),
                     f.config.c_str(), f.status.toString().c_str());
    std::fprintf(stderr,
                 "results for failed runs are omitted below; exit will "
                 "be non-zero\n");
}

Status
writeSweepSummaryJson(const ExperimentRunner &runner,
                      const BatchOutcome &outcome, const std::string &path)
{
    SweepStats s = runner.sweepStats();
    Json doc = Json::object();
    doc.set("schema", 1);
    doc.set("jobs", runner.params().resolvedJobs());
    doc.set("requested", s.requested);
    doc.set("simulated", s.simulated);
    doc.set("disk_hits", s.disk_hits);
    doc.set("memo_hits", s.memo_hits);
    doc.set("frames_simulated", s.frames_simulated);
    doc.set("sim_wall_ms", s.sim_wall_ms);
    doc.set("batch_wall_ms", s.batch_wall_ms);
    double secs = s.batch_wall_ms / 1000.0;
    doc.set("sims_per_s", secs > 0.0 ? s.simulated / secs : 0.0);
    doc.set("frames_per_s",
            secs > 0.0 ? s.frames_simulated / secs : 0.0);
    doc.set("avg_concurrency",
            s.batch_wall_ms > 0.0 ? s.sim_wall_ms / s.batch_wall_ms : 0.0);
    doc.set("corrupt_entries", s.corrupt_entries);
    doc.set("failed", s.failed);
    doc.set("cancelled", s.cancelled);
    doc.set("degraded_tiles", s.degraded_tiles);
    doc.set("validate_violations", s.validate_violations);

    Json failures = Json::array();
    for (const RunFailure &f : outcome.failures) {
        Json entry = Json::object();
        entry.set("workload", f.alias);
        entry.set("config", f.config);
        entry.set("status", f.status.toString());
        failures.push(std::move(entry));
    }
    doc.set("failures", std::move(failures));

    return atomicWriteFile(path, doc.dump(1) + "\n");
}

} // namespace evrsim
