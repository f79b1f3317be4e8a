/**
 * @file
 * Golden digests: pinned (workload, config) runs must reproduce the
 * RunResult recorded in tests/golden/results.json byte for byte.
 *
 * Each entry holds the run's `image_crc` and `result_crc`, the CRC32 of
 * its canonical `RunResult::toJson(false)` text (every stat counter and
 * energy term, host timing excluded). Rendering Elimination's and the
 * paper's "no rendering errors" contract rests on these bytes: a change
 * to shared code (shader, cache model, timing or energy model, workload
 * generators) that moves any figure fails here, even when it moves
 * every configuration together.
 *
 * The slice is every 3D workload plus four 2D ones, each under baseline
 * and EVR, at the bench defaults (608x384, 16-pixel tiles, 2 warm-up +
 * 30 measured frames). After an intentional behaviour change,
 * regenerate the file with `golden_test --write-golden` and list every
 * moved entry in CHANGES.md; nothing else rewrites it.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "driver/experiment.hpp"
#include "driver/json.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;

namespace {

constexpr const char *kGoldenPath = EVRSIM_GOLDEN_PATH;

/** The six 3D workloads, then four 2D ones (HUD, puzzle, popups). */
const char *const kAliases[] = {"300", "ata", "csn", "mst", "ter",
                                "tib", "abi", "ccs", "hay", "wmw"};

/**
 * Simulate the golden slice into a results.json document, hermetically
 * (no result cache, no sweep artifacts). Entries are keyed like the
 * result-cache files of the same runs.
 */
Json
simulateGolden()
{
    BenchParams p;
    p.use_cache = false;
    p.jobs = 4;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    GpuConfig gpu = p.gpuConfig();
    std::vector<RunRequest> requests;
    for (const char *alias : kAliases)
        for (const SimConfig &config :
             {SimConfig::baseline(gpu), SimConfig::evr(gpu)})
            requests.push_back({alias, config});

    ExperimentRunner runner(workloads::factory(), p);
    BatchOutcome out = runner.runAllChecked(requests);
    for (const RunFailure &f : out.failures)
        ADD_FAILURE() << "simulation failed: " << f.alias;
    std::string suffix = "-" + std::to_string(p.width) + "x" +
                         std::to_string(p.height) + "-t" +
                         std::to_string(gpu.tile_size) + "-f" +
                         std::to_string(p.frames) + "-w" +
                         std::to_string(p.warmup);
    Json entries = Json::object();
    for (std::size_t i = 0; out.ok() && i < out.results.size(); ++i) {
        const RunResult &r = out.results[i];
        std::string canonical = r.toJson(false).dump();
        Json e = Json::object();
        e.set("image_crc", static_cast<std::uint64_t>(r.image_crc));
        e.set("result_crc", static_cast<std::uint64_t>(Crc32::of(
                                canonical.data(), canonical.size())));
        entries.set(r.workload + "-" + r.config + suffix, std::move(e));
    }

    Json doc = Json::object();
    doc.set("schema", "evrsim-golden-v1");
    doc.set("width", p.width);
    doc.set("height", p.height);
    doc.set("tile_size", gpu.tile_size);
    doc.set("frames", p.frames);
    doc.set("warmup", p.warmup);
    doc.set("entries", std::move(entries));
    return doc;
}

int
writeGolden()
{
    Json doc = simulateGolden();
    std::size_t n = doc.at("entries").size();
    if (n != 2 * std::size(kAliases)) {
        std::fprintf(stderr, "golden: simulation failed, %s not written\n",
                     kGoldenPath);
        return 1;
    }
    if (Status s = atomicWriteFile(kGoldenPath, doc.dump(1) + "\n");
        !s.ok()) {
        std::fprintf(stderr, "golden: cannot write %s: %s\n", kGoldenPath,
                     s.message().c_str());
        return 1;
    }
    std::printf("golden: wrote %zu entries to %s\n", n, kGoldenPath);
    return 0;
}

} // namespace

TEST(Golden, PinnedRunsReproduceRecordedDigests)
{
    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in) << "missing " << kGoldenPath
                    << " (regenerate with golden_test --write-golden)";
    std::stringstream buf;
    buf << in.rdbuf();
    Result<Json> recorded = Json::tryParse(buf.str());
    ASSERT_TRUE(recorded.ok()) << recorded.status().message();

    Json simulated = simulateGolden();
    // Name every moved or missing entry...
    const Json *want = recorded.value().find("entries");
    ASSERT_NE(want, nullptr) << kGoldenPath << " has no entries";
    for (const auto &[key, entry] : simulated.at("entries").members()) {
        const Json *w = want->find(key);
        EXPECT_TRUE(w && w->dump() == entry.dump())
            << key << ": recorded " << (w ? w->dump() : "nothing")
            << ", simulated " << entry.dump();
    }
    // ...and hold the whole document, parameters included, to the bytes.
    EXPECT_EQ(recorded.value().dump(), simulated.dump());
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--write-golden") == 0)
            return writeGolden();
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
