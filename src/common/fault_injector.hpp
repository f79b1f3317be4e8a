/**
 * @file
 * Deterministic fault injection for exercising the sweep's recovery
 * paths (corrupt-cache quarantine, scene validation and degradation,
 * failure reporting) from ctest, without hand-corrupting files.
 *
 * Faults are enabled through EVRSIM_FAULT, a comma-separated list of
 * `<site>:<rate>:<seed>` triples:
 *
 *   EVRSIM_FAULT=cache-read:1:42            every cache load fails
 *   EVRSIM_FAULT=scene-mutate:0.25:7        a quarter of frames corrupted
 *   EVRSIM_FAULT=cache-read:1:1,cache-write:1:2
 *
 * Sites:
 *   cache-read    loading an on-disk result entry reports DataLoss
 *                 (the entry is quarantined and re-simulated)
 *   cache-write   publishing a result entry fails (warn, no cache file)
 *   scene-mutate  the frame's scene is corrupted by the deterministic
 *                 fuzz mutator before ingestion (exercises the
 *                 EVRSIM_VALIDATE sanitize/degrade paths from benches)
 *
 * Decisions are a pure function of (site seed, per-site draw counter)
 * via SplitMix64, so a single-threaded sweep injects the *same* faults
 * on every run — the recovery tests are reproducible, not flaky. Sites
 * whose decisions must agree across configurations regardless of
 * scheduling order (scene-mutate: the baseline and EVR runs of a
 * workload must see identical corruption for image comparisons to be
 * meaningful) use shouldFailAt() with a caller-derived key instead of
 * the draw counter. When EVRSIM_FAULT is unset the injector is a single
 * predictable branch per site (enabled flag false), i.e. zero overhead
 * on the production path.
 */
#ifndef EVRSIM_COMMON_FAULT_INJECTOR_HPP
#define EVRSIM_COMMON_FAULT_INJECTOR_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace evrsim {

/** Instrumented operations a fault can be injected into. */
enum class FaultSite {
    CacheRead = 0,
    CacheWrite = 1,
    SceneMutate = 2,
};
constexpr int kNumFaultSites = 3;

/**
 * SplitMix64 finalizer: an uncorrelated u64 from any input. Shared by
 * the fault injector, the validation tile sampler and the scene fuzzer
 * so every "random but reproducible" decision uses one primitive.
 */
std::uint64_t mix64(std::uint64_t x);

/**
 * FNV-1a over a string, for keying per-workload fault decisions.
 * std::hash<std::string> is implementation-defined, which would make
 * keyed injection differ across standard libraries; FNV-1a keeps every
 * string -> decision mapping stable everywhere.
 */
std::uint64_t fnv1a64(const std::string &s);

/** Human name used in EVRSIM_FAULT specs ("cache-read"). */
const char *faultSiteName(FaultSite site);

/** Per-site injection configuration. */
struct FaultSpec {
    bool enabled = false;
    double rate = 0.0;      ///< probability of failure per draw, [0, 1]
    std::uint64_t seed = 0; ///< stream seed for deterministic draws
};

using FaultPlan = std::array<FaultSpec, kNumFaultSites>;

/** Seeded per-site fault source. Thread-safe. */
class FaultInjector
{
  public:
    /** All sites disabled. */
    FaultInjector() = default;

    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    /** Parse an EVRSIM_FAULT spec string ("site:rate:seed[,...]"). */
    static Result<FaultPlan> parsePlan(const std::string &text);

    /**
     * Plan from the EVRSIM_FAULT environment variable; all-disabled
     * when unset, fatal (user error) when malformed.
     */
    static FaultPlan planFromEnv();

    /** Whether any site can inject. */
    bool
    enabled() const
    {
        for (const FaultSpec &s : plan_)
            if (s.enabled)
                return true;
        return false;
    }

    /**
     * Draw the next decision for @p site: true = inject a failure.
     * Deterministic in the number of prior draws for the site.
     */
    bool shouldFail(FaultSite site);

    /**
     * Keyed decision for @p site: a pure function of (site seed, @p key)
     * — independent of how many draws other threads or configurations
     * made before this one. Counted in draws()/injected() like
     * shouldFail().
     */
    bool shouldFailAt(FaultSite site, std::uint64_t key);

    /** Per-site configuration (tests and fuzzer seeding). */
    const FaultSpec &
    spec(FaultSite site) const
    {
        return plan_[static_cast<int>(site)];
    }

    /** Failures injected at @p site so far. */
    std::uint64_t injected(FaultSite site) const;

    /** Decisions drawn at @p site so far. */
    std::uint64_t draws(FaultSite site) const;

  private:
    FaultPlan plan_;
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> draws_{};
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> injected_{};
};

} // namespace evrsim

#endif // EVRSIM_COMMON_FAULT_INJECTOR_HPP
