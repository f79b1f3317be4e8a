/**
 * @file
 * FaultInjector implementation.
 */
#include "common/fault_injector.hpp"

#include <cstdlib>

#include "common/env.hpp"
#include "common/log.hpp"

namespace evrsim {

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

namespace {

Result<FaultSite>
siteFromName(const std::string &name)
{
    for (int i = 0; i < kNumFaultSites; ++i) {
        FaultSite site = static_cast<FaultSite>(i);
        if (name == faultSiteName(site))
            return site;
    }
    return Status::invalidArgument(
        "unknown fault site '" + name +
        "' (expected cache-read, cache-write or scene-mutate)");
}

/** 53-bit mantissa draw in [0, 1) from one mixed word. */
double
unitDraw(std::uint64_t mixed)
{
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::CacheRead:
        return "cache-read";
      case FaultSite::CacheWrite:
        return "cache-write";
      case FaultSite::SceneMutate:
        return "scene-mutate";
    }
    return "unknown";
}

Result<FaultPlan>
FaultInjector::parsePlan(const std::string &text)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        std::string entry = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        std::size_t c1 = entry.find(':');
        std::size_t c2 =
            c1 == std::string::npos ? std::string::npos
                                    : entry.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            return Status::invalidArgument(
                "malformed fault spec '" + entry +
                "' (expected <site>:<rate>:<seed>)");

        Result<FaultSite> site = siteFromName(entry.substr(0, c1));
        if (!site.ok())
            return site.status();

        Result<double> rate =
            parseDoubleStrict(entry.substr(c1 + 1, c2 - c1 - 1));
        if (!rate.ok() || rate.value() < 0.0 || rate.value() > 1.0)
            return Status::invalidArgument(
                "fault rate in '" + entry +
                "' must be a number in [0, 1]");

        Result<long long> seed = parseIntStrict(entry.substr(c2 + 1));
        if (!seed.ok() || seed.value() < 0)
            return Status::invalidArgument(
                "fault seed in '" + entry +
                "' must be a non-negative integer");

        FaultSpec &spec = plan[static_cast<int>(site.value())];
        spec.enabled = true;
        spec.rate = rate.value();
        spec.seed = static_cast<std::uint64_t>(seed.value());

        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return plan;
}

FaultPlan
FaultInjector::planFromEnv()
{
    const char *raw = std::getenv("EVRSIM_FAULT");
    if (!raw)
        return {};
    Result<FaultPlan> plan = parsePlan(raw);
    if (!plan.ok())
        fatal("EVRSIM_FAULT: %s", plan.status().message().c_str());
    return plan.value();
}

bool
FaultInjector::shouldFail(FaultSite site)
{
    const int i = static_cast<int>(site);
    const FaultSpec &spec = plan_[i];
    if (!spec.enabled)
        return false;
    std::uint64_t n = draws_[i].fetch_add(1, std::memory_order_relaxed);
    // [0, 1) draw compared with < rate, so rate 0 never fires and
    // rate 1 always does.
    double u = unitDraw(mix64(spec.seed ^ mix64(n)));
    if (u >= spec.rate)
        return false;
    injected_[i].fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
FaultInjector::shouldFailAt(FaultSite site, std::uint64_t key)
{
    const int i = static_cast<int>(site);
    const FaultSpec &spec = plan_[i];
    if (!spec.enabled)
        return false;
    draws_[i].fetch_add(1, std::memory_order_relaxed);
    double u = unitDraw(mix64(spec.seed ^ mix64(key)));
    if (u >= spec.rate)
        return false;
    injected_[i].fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::uint64_t
FaultInjector::injected(FaultSite site) const
{
    return injected_[static_cast<int>(site)].load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::draws(FaultSite site) const
{
    return draws_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

} // namespace evrsim
