#include "bench_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/crc32.hpp"
#include "workloads/registry.hpp"

namespace simbench {

using evrsim::GpuConfig;
using evrsim::RunRequest;
using evrsim::RunResult;
using evrsim::SimConfig;

namespace {

/** Nearest-rank index (0-based) of the p-th percentile of n samples. */
std::size_t
rankIndex(std::size_t n, double p)
{
    // The epsilon keeps p * n / 100 from rounding up past an exact rank
    // (99.9 / 100 * 10000 is 9990.000000000002 in doubles).
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n) - 1;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Identity of a run inside one plan: the same (alias, config, tile
 *  size) always simulates the same thing. */
std::string
pairKey(const RunRequest &r)
{
    return r.alias + "/" + r.config.name + "/t" +
           std::to_string(r.config.gpu.tile_size);
}

std::vector<std::string>
aliases2D()
{
    const std::vector<std::string> &three_d = evrsim::workloads::aliases3D();
    std::vector<std::string> out;
    for (const std::string &a : evrsim::workloads::allAliases())
        if (std::find(three_d.begin(), three_d.end(), a) == three_d.end())
            out.push_back(a);
    return out;
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::size_t k = rankIndex(v.size(), p);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - 1 - rankIndex(n, p);
}

std::optional<double>
tailPercentile(const std::vector<double> &v, double p)
{
    if (samplesBeyond(v.size(), p) < kMinTailSamples)
        return std::nullopt;
    return percentile(v, p);
}

double
highestReportablePercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0})
        if (samplesBeyond(n, p) >= kMinTailSamples)
            return p;
    return 0.0;
}

void
Tally::record(const std::string &failure)
{
    ++attempted;
    if (!failure.empty()) {
        ++failed;
        reasons.push_back(failure);
    }
}

double
Tally::failedRatio() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
}

std::uint32_t
resultDigest(const RunResult &r)
{
    std::string doc = r.toJson(false).dump();
    return evrsim::Crc32::of(doc.data(), doc.size());
}

std::string
hex32(std::uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

std::string
digestKey(const std::string &alias, const SimConfig &c, int frames,
          int warmup, int offset)
{
    return alias + "/" + c.name + "/t" + std::to_string(c.gpu.tile_size) +
           "/f" + std::to_string(frames) + "/w" + std::to_string(warmup) +
           "/o" + std::to_string(offset);
}

void
Checker::check(const std::string &key, const RunResult &r)
{
    std::string d = hex32(resultDigest(r));
    std::string why;
    auto first = produced.emplace(key, d);
    if (!first.second && first.first->second != d)
        why = key + ": digest " + d + " differs from an earlier round (" +
              first.first->second + ")";
    if (why.empty() && reference_) {
        auto it = reference_->find(key);
        if (it == reference_->end())
            why = key + ": no reference digest";
        else if (it->second != d)
            why = key + ": digest " + d + " != reference " + it->second;
    }
    tally.record(why);
}

std::vector<bool>
Checker::checkFailures(const evrsim::BatchOutcome &batch)
{
    std::vector<bool> present(batch.results.size(), true);
    for (const evrsim::RunFailure &f : batch.failures) {
        present[f.index] = false;
        tally.record(f.alias + "/" + f.config + ": " + f.status.toString());
    }
    return present;
}

void
Checker::checkImages(const std::vector<RunRequest> &plan,
                     const std::vector<RunResult> &results,
                     const std::vector<bool> &present)
{
    std::map<std::string, std::set<std::uint32_t>> crcs;
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (present[i] && !plan[i].config.oracle_z &&
            !plan[i].config.z_prepass)
            crcs[plan[i].alias].insert(results[i].image_crc);
    for (const auto &[alias, set] : crcs)
        tally.record(set.size() == 1
                         ? std::string()
                         : alias + ": configs disagree on the final image");
}

void
Checker::checkWarm(const std::vector<RunRequest> &plan,
                   const evrsim::BatchOutcome &cold,
                   const evrsim::BatchOutcome &warm, std::uint64_t simulated)
{
    std::vector<bool> warm_ok(plan.size(), true), cold_ok(plan.size(), true);
    for (const evrsim::RunFailure &f : warm.failures)
        warm_ok[f.index] = false;
    for (const evrsim::RunFailure &f : cold.failures)
        cold_ok[f.index] = false;
    // The runner counts, but does not name, the entries it simulated
    // instead of reading; charge them to the first entries that passed
    // the other checks.
    std::uint64_t not_from_disk = simulated;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::string name = plan[i].alias + "/" + plan[i].config.name;
        std::string why;
        if (!warm_ok[i])
            why = name + ": warm read failed";
        else if (cold_ok[i] && resultDigest(warm.results[i]) !=
                                   resultDigest(cold.results[i]))
            why = name + ": warm entry differs from the cold result";
        else if (not_from_disk > 0) {
            why = name + ": warm pass simulated instead of reading the cache";
            --not_from_disk;
        }
        tally.record(why);
    }
}

SeedInputs
seedInputs(std::uint64_t seed, std::size_t plan_size)
{
    SeedInputs in;
    in.offset = static_cast<int>(seed % kOffsets);
    in.order.resize(plan_size);
    for (std::size_t i = 0; i < plan_size; ++i)
        in.order[i] = i;
    // Fisher-Yates over a fixed generator, so an order is the same on
    // every standard library.
    std::uint64_t state = seed;
    for (std::size_t i = plan_size; i > 1; --i)
        std::swap(in.order[i - 1], in.order[splitmix64(state) % i]);
    return in;
}

std::vector<RunRequest>
plan3D(const GpuConfig &gpu)
{
    std::vector<RunRequest> plan;
    for (const std::string &alias : evrsim::workloads::aliases3D())
        for (const SimConfig &c :
             {SimConfig::baseline(gpu), SimConfig::evr(gpu)})
            plan.push_back({alias, c});
    return plan;
}

std::vector<RunRequest>
plan2D(const GpuConfig &gpu)
{
    std::vector<RunRequest> plan;
    for (const std::string &alias : aliases2D())
        for (const SimConfig &c : {SimConfig::renderingElimination(gpu),
                                   SimConfig::evr(gpu)})
            plan.push_back({alias, c});
    return plan;
}

std::vector<RunRequest>
planRegen(const GpuConfig &gpu)
{
    std::vector<RunRequest> plan;
    std::set<std::string> seen;
    auto need = [&](const std::string &alias, const SimConfig &c) {
        RunRequest r{alias, c};
        if (seen.insert(pairKey(r)).second)
            plan.push_back(std::move(r));
    };
    auto needAll = [&](const std::vector<SimConfig> &configs) {
        for (const std::string &alias : evrsim::workloads::allAliases())
            for (const SimConfig &c : configs)
                need(alias, c);
    };
    const SimConfig base = SimConfig::baseline(gpu);
    const SimConfig re = SimConfig::renderingElimination(gpu);
    const SimConfig evr = SimConfig::evr(gpu);
    const SimConfig reorder = SimConfig::evrReorderOnly(gpu);

    // bench_ablation
    needAll({base, re, reorder, SimConfig::evrFilterOnly(gpu), evr,
             SimConfig::zPrepass(gpu)});
    // bench_fig06_energy, bench_fig07_time
    needAll({base, evr});
    needAll({base, evr});
    // bench_fig08_overshading
    for (const std::string &alias : evrsim::workloads::aliases3D())
        for (const SimConfig &c : {base, reorder, SimConfig::oracleZ(gpu)})
            need(alias, c);
    // bench_fig09_redundant_tiles, bench_fig10_energy_vs_re,
    // bench_fig11_time_vs_re
    needAll({re, evr, base});
    needAll({re, evr});
    needAll({base, re, evr});
    // bench_sensitivity_tilesize
    for (const char *alias : {"ccs", "wmw", "300"}) {
        need(alias, base);
        for (int ts : {8, 16, 32}) {
            GpuConfig g = gpu;
            g.tile_size = ts;
            need(alias, SimConfig::evr(g));
        }
    }
    // bench_table1_casuistry
    needAll({reorder});
    // bench_table2_params declares no runs.
    return plan;
}

std::string
referenceConfig(const std::vector<RunRequest> &plan)
{
    for (const RunRequest &r : plan)
        if (r.config.name == "baseline")
            return "baseline";
    return "re";
}

Reductions
reductions(const std::vector<RunRequest> &plan,
           const std::vector<RunResult> &results)
{
    const std::string ref = referenceConfig(plan);
    std::map<std::string, const RunResult *> ref_of, evr_of;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const RunRequest &r = plan[i];
        if (r.config.gpu.tile_size != GpuConfig{}.tile_size)
            continue;
        if (r.config.name == ref)
            ref_of[r.alias] = &results[i];
        else if (r.config.name == "evr")
            evr_of[r.alias] = &results[i];
    }
    Reductions out;
    int n = 0;
    double time_ratio = 0.0, energy_ratio = 0.0;
    for (const auto &[alias, evr] : evr_of) {
        auto it = ref_of.find(alias);
        if (it == ref_of.end() || it->second->totalCycles() == 0 ||
            it->second->totalEnergyNj() <= 0.0)
            continue;
        time_ratio += static_cast<double>(evr->totalCycles()) /
                      static_cast<double>(it->second->totalCycles());
        energy_ratio += evr->totalEnergyNj() / it->second->totalEnergyNj();
        ++n;
    }
    if (n > 0) {
        out.time = 1.0 - time_ratio / n;
        out.energy = 1.0 - energy_ratio / n;
    }
    return out;
}

} // namespace simbench
