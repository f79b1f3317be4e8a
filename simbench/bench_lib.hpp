/**
 * @file
 * The simulator benchmark's own logic, kept apart from main() so that
 * simbench_test can check it: percentile selection, failure
 * accounting, result digests, and the workload plans.
 */
#ifndef SIMBENCH_BENCH_LIB_HPP
#define SIMBENCH_BENCH_LIB_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/experiment.hpp"
#include "driver/run_result.hpp"

namespace simbench {

// ---------------------------------------------------------------- stats

/** Nearest-rank percentile (0 < p <= 100) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** percentile(v, 50). */
double median(std::vector<double> v);

/** Samples of an n-sample set that lie beyond its nearest-rank p-th
 *  percentile. */
std::size_t samplesBeyond(std::size_t n, double p);

/** A tail percentile is reported only with this many samples beyond it. */
constexpr std::size_t kMinTailSamples = 10;

/** percentile(v, p) when at least kMinTailSamples lie beyond it. */
std::optional<double> tailPercentile(const std::vector<double> &v, double p);

/** Highest of p99.9/p99/p98/p95/p90/p75/p50 reportable for n samples;
 *  0 when none is. */
double highestReportablePercentile(std::size_t n);

/** Outcomes counted against the attempts that produced them. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> reasons; ///< one line per failure

    /** Count one attempt; a non-empty @p failure marks it failed. */
    void record(const std::string &failure = {});
    double failedRatio() const;
};

// -------------------------------------------------------------- digests

/**
 * Digest of a result's deterministic content: CRC32 of
 * RunResult::toJson(false) as serialised by Json::dump(). It covers the
 * final image CRC, every accumulated counter and the energy breakdown,
 * and excludes host timing.
 */
std::uint32_t resultDigest(const evrsim::RunResult &r);

/** Eight lowercase hex digits. */
std::string hex32(std::uint32_t v);

/** Reference-table key of one simulated window. */
std::string digestKey(const std::string &alias, const evrsim::SimConfig &c,
                      int frames, int warmup, int offset);

/** Reference digests by digestKey(). */
using DigestTable = std::map<std::string, std::string>;

/**
 * Counts every produced result as one attempt, failed when:
 *  - its digest differs from the reference table (when one is given),
 *    or the table lacks its key;
 *  - its digest differs from the first result seen for the same key in
 *    this run (across rounds, and across serial and tile-parallel
 *    execution);
 *  - the run itself failed.
 * Per alias, one more attempt checks that every baseline, RE and EVR
 * config (any tile size) produced the same final image. Oracle-z and
 * z-prepass are outside that contract: at some windows (300 from frame
 * 7, for one) their final image differs from baseline's. Per warm-pass
 * entry, one more checks that it came from disk and equals the cold
 * result.
 */
class Checker
{
  public:
    explicit Checker(const DigestTable *reference) : reference_(reference) {}

    Tally tally;
    DigestTable produced; ///< key -> digest, first occurrence

    void check(const std::string &key, const evrsim::RunResult &r);

    /** Record a batch's failed runs; returns which slots hold results. */
    std::vector<bool> checkFailures(const evrsim::BatchOutcome &batch);

    void checkImages(const std::vector<evrsim::RunRequest> &plan,
                     const std::vector<evrsim::RunResult> &results,
                     const std::vector<bool> &present);

    /** @p simulated: SweepStats::simulated of the warm runner. */
    void checkWarm(const std::vector<evrsim::RunRequest> &plan,
                   const evrsim::BatchOutcome &cold,
                   const evrsim::BatchOutcome &warm,
                   std::uint64_t simulated);

  private:
    const DigestTable *reference_;
};

// ---------------------------------------------------------------- plans

/** Seed-derived inputs: where the frame window starts and the order in
 *  which (alias, config) pairs run. */
struct SeedInputs {
    int offset = 0;
    std::vector<std::size_t> order; ///< permutation of plan indices
};

/** Frame-window offsets a seed can pick (seed mod this). */
constexpr int kOffsets = 8;

/** The seed whose digests are kept in reference_digests.json. */
constexpr std::uint64_t kReferenceSeed = 0;

SeedInputs seedInputs(std::uint64_t seed, std::size_t plan_size);

/** The six 3D aliases x {baseline, evr}. */
std::vector<evrsim::RunRequest> plan3D(const evrsim::GpuConfig &gpu);

/** The fourteen 2D aliases x {re, evr}. */
std::vector<evrsim::RunRequest> plan2D(const evrsim::GpuConfig &gpu);

/**
 * Union of the runs the ten table/figure binaries declare, in
 * declaration order, without duplicates: 6 configs x 20 aliases,
 * oracle-z x the 3D aliases, and EVR at 8x8 and 32x32 tiles on
 * ccs, wmw and 300.
 */
std::vector<evrsim::RunRequest> planRegen(const evrsim::GpuConfig &gpu);

/** Config each workload's EVR runs are compared with ("baseline" or
 *  "re"). */
std::string referenceConfig(const std::vector<evrsim::RunRequest> &plan);

/**
 * EVR's simulated time and energy reduction against the reference
 * config: 1 - mean over aliases of evr/reference, using default-tile
 * EVR runs only. Both 0 when the plan has no such pair.
 */
struct Reductions {
    double time = 0.0;
    double energy = 0.0;
};
Reductions reductions(const std::vector<evrsim::RunRequest> &plan,
                      const std::vector<evrsim::RunResult> &results);

} // namespace simbench

#endif // SIMBENCH_BENCH_LIB_HPP
