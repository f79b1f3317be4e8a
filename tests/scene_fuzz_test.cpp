/**
 * @file
 * Deterministic fuzz harness over the defensive simulation core.
 *
 * The safety property under test (ISSUE: safe degradation): a permissive
 * run fed corrupted input — malformed scenes, flooded FVP tables, forged
 * signature state — must (a) never abort and (b) produce a final image
 * bit-identical to a baseline-no-EVR render of the same stream, with the
 * degradation surfaced in counters rather than in pixels.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "driver/experiment.hpp"
#include "driver/json.hpp"
#include "scene/scene_fuzzer.hpp"
#include "scene/scene_validate.hpp"
#include "support.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;
using namespace evrsim::test;

namespace {

constexpr int kW = 64;
constexpr int kH = 48;

ValidationConfig
permissive(double sample_rate = 1.0)
{
    ValidationConfig v;
    v.mode = ValidateMode::Permissive;
    v.tile_sample_rate = sample_rate;
    return v;
}

SimConfig
withValidation(SimConfig c, const ValidationConfig &v)
{
    c.validation = v;
    return c;
}

/** Deterministic small scene: a backdrop plus a few varied quads. */
Scene
buildScene(const Mesh *quad, std::uint64_t seed, int frame)
{
    Rng rng(seed * 1021 + 17);
    Scene s;
    setCamera2D(s, kW, kH);

    RenderState woz;
    submitRect(s, quad, -1, -1, kW + 2, kH + 2, 0.9f, woz).tint = {
        0.2f, 0.5f, 0.3f, 1.0f};

    int n = 2 + static_cast<int>(rng.nextBelow(4));
    for (int i = 0; i < n; ++i) {
        RenderState rs;
        if (rng.nextBool(0.3f)) {
            rs.depth_write = false;
            rs.blend = BlendMode::Alpha;
        }
        float x = rng.nextFloat(0, kW - 16) + static_cast<float>(frame);
        float y = rng.nextFloat(0, kH - 12);
        float depth = 0.1f + 0.07f * static_cast<float>(i);
        DrawCommand &cmd = submitRect(s, quad, x, y, 16, 12, depth, rs);
        cmd.tint = {rng.nextFloat(0.2f, 1.0f), rng.nextFloat(0.2f, 1.0f),
                    rng.nextFloat(0.2f, 1.0f),
                    rs.blend == BlendMode::Alpha ? 0.5f : 1.0f};
    }
    return s;
}

} // namespace

TEST(SceneFuzzer, DeterministicAndVaried)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});
    quad.buffer_base = 0x1000; // pretend-uploaded; never rendered here

    std::vector<std::string> kinds;
    for (std::uint64_t key = 0; key < 16; ++key) {
        SceneFuzzer a(7), b(7);
        Scene sa = buildScene(&quad, 3, 0);
        Scene sb = buildScene(&quad, 3, 0);
        std::string da = a.corruptScene(sa, key);
        std::string db = b.corruptScene(sb, key);
        EXPECT_EQ(da, db) << "key " << key;
        EXPECT_FALSE(da.empty());
        // Every corruption must be one the ingestion audit can see.
        EXPECT_FALSE(auditScene(sa).ok()) << da;
        if (std::find(kinds.begin(), kinds.end(), da) == kinds.end())
            kinds.push_back(da);
    }
    // 16 keys must exercise more than one corruption kind.
    EXPECT_GT(kinds.size(), 3u);

    SceneFuzzer f(7);
    Scene empty;
    EXPECT_EQ(f.corruptScene(empty, 0), "");
}

TEST(SceneFuzz, PermissiveRunsMatchBaselineOnCorruptedStreams)
{
    // For many (seed, frame) corruptions: render the same corrupted
    // stream under permissive baseline and permissive full-EVR. Neither
    // may abort, and the images must stay bit-identical.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Mesh quad_a = meshes::quad({1, 1, 1, 1});
        Mesh quad_b = meshes::quad({1, 1, 1, 1});

        GpuSimulator base(withValidation(
            SimConfig::baseline(tinyGpu(kW, kH)), permissive(1.0)));
        GpuSimulator evr(withValidation(SimConfig::evr(tinyGpu(kW, kH)),
                                        permissive(1.0)));
        base.uploadMesh(quad_a);
        evr.uploadMesh(quad_b);

        SceneFuzzer fuzz_a(seed);
        SceneFuzzer fuzz_b(seed);

        std::uint64_t issues = 0;
        for (int frame = 0; frame < 4; ++frame) {
            Scene sa = buildScene(&quad_a, seed, frame);
            Scene sb = buildScene(&quad_b, seed, frame);
            std::uint64_t key = seed * 97 + static_cast<std::uint64_t>(frame);
            if (frame % 2 == 1) { // alternate clean and corrupted frames
                fuzz_a.corruptScene(sa, key);
                fuzz_b.corruptScene(sb, key);
            }

            FrameStats fa = base.renderFrame(sa);
            FrameStats fb = evr.renderFrame(sb);
            issues += fa.validate_scene_issues;

            ASSERT_TRUE(base.framebuffer().equals(evr.framebuffer()))
                << "seed " << seed << " frame " << frame << ": "
                << evr.framebuffer().diffCount(base.framebuffer())
                << " pixels differ";
            EXPECT_EQ(fa.validate_scene_issues, fb.validate_scene_issues);
            EXPECT_EQ(fa.validate_commands_dropped,
                      fb.validate_commands_dropped);
        }
        EXPECT_GT(issues, 0u) << "seed " << seed;
    }
}

TEST(SceneFuzz, FvpFloodDegradesButNeverChangesPixels)
{
    // Scenario-D flood (satellite d's property): corrupt every FVP
    // entry to a far-too-near depth so EVR predicts everything
    // occluded. The poisoning defense must keep the image bit-identical
    // to the baseline while the degradation counter records the cost.
    Mesh quad_a = meshes::quad({1, 1, 1, 1});
    Mesh quad_b = meshes::quad({1, 1, 1, 1});

    GpuSimulator base(SimConfig::baseline(tinyGpu(kW, kH)));
    GpuSimulator evr(withValidation(SimConfig::evr(tinyGpu(kW, kH)),
                                    permissive(1.0)));
    base.uploadMesh(quad_a);
    evr.uploadMesh(quad_b);

    for (int frame = 0; frame < 2; ++frame) {
        base.renderFrame(buildScene(&quad_a, 11, frame));
        evr.renderFrame(buildScene(&quad_b, 11, frame));
    }

    FvpTable &fvp = evr.mutableEvr()->mutableFvpTable();
    for (int t = 0; t < fvp.tileCount(); ++t)
        fvp.storeWoz(t, 0.01f);

    base.renderFrame(buildScene(&quad_a, 11, 2));
    FrameStats flooded = evr.renderFrame(buildScene(&quad_b, 11, 2));

    EXPECT_TRUE(evr.framebuffer().equals(base.framebuffer()))
        << evr.framebuffer().diffCount(base.framebuffer())
        << " pixels differ after FVP flood";
    EXPECT_GT(flooded.degraded_tiles, 0u);
    // The defense is the poison path, not the auditor: a sound pipeline
    // reports no invariant violations even under flooded predictions.
    EXPECT_EQ(flooded.validate_violations, 0u);

    // The next frame recovers: honest FVP state is rebuilt at tile end.
    base.renderFrame(buildScene(&quad_a, 11, 3));
    evr.renderFrame(buildScene(&quad_b, 11, 3));
    EXPECT_TRUE(evr.framebuffer().equals(base.framebuffer()));
}

TEST(SceneFuzz, GarbageSignaturesNeverCorruptTheImage)
{
    Mesh quad_a = meshes::quad({1, 1, 1, 1});
    Mesh quad_b = meshes::quad({1, 1, 1, 1});

    GpuSimulator base(SimConfig::baseline(tinyGpu(kW, kH)));
    GpuSimulator re(withValidation(
        SimConfig::renderingElimination(tinyGpu(kW, kH)), permissive(1.0)));
    base.uploadMesh(quad_a);
    re.uploadMesh(quad_b);

    Rng rng(99);
    for (int frame = 0; frame < 4; ++frame) {
        // Forge every previous-frame signature with random garbage.
        SignatureBuffer &sigs = re.mutableRe()->mutableSignatureBuffer();
        for (int t = 0; t < sigs.tileCount(); ++t) {
            Signature garbage;
            garbage.crc = static_cast<std::uint32_t>(rng.nextBelow(1u << 31));
            garbage.length = rng.nextBelow(4096);
            sigs.setPrevious(t, garbage, true);
        }
        base.renderFrame(buildScene(&quad_a, 23, frame));
        evrsim::FrameStats fs = re.renderFrame(buildScene(&quad_b, 23, frame));
        ASSERT_TRUE(re.framebuffer().equals(base.framebuffer()))
            << "frame " << frame;
        // Garbage previous signatures can only force re-renders (a CRC
        // collision with planted garbage is out of reach for this test),
        // never a wrong skip — so the identity audit stays clean.
        EXPECT_EQ(fs.validate_violations, 0u);
    }
}

TEST(SceneFuzz, SceneMutateFaultSiteThroughExperimentRunner)
{
    // End-to-end: a CorruptingWorkload corrupts every frame of the
    // workload inside the runner; permissive validation sanitizes them;
    // baseline and EVR runs of the same workload still agree
    // bit-for-bit because the corruption is keyed by (alias, frame),
    // not by config.
    BenchParams params;
    params.width = 128;
    params.height = 96;
    params.frames = 2;
    params.warmup = 1;
    params.use_cache = false;
    params.jobs = 1;
    params.validation = permissive(0.25);

    WorkloadFactory factory =
        corruptingFactory(workloads::factory(), {"ctr"}, 42);
    ExperimentRunner runner(factory, params);
    GpuConfig gpu = params.gpuConfig();

    Result<RunResult> base = runner.tryRun("ctr", SimConfig::baseline(gpu));
    Result<RunResult> evr = runner.tryRun("ctr", SimConfig::evr(gpu));
    ASSERT_TRUE(base.ok()) << base.status().message();
    ASSERT_TRUE(evr.ok()) << evr.status().message();

    EXPECT_GT(base.value().totals.validate_scene_issues, 0u);
    EXPECT_EQ(base.value().image_crc, evr.value().image_crc);

    // The same corrupted stream under strict validation must fail the
    // run with a structured Status (no abort, no retry: scene damage
    // is deterministic).
    BenchParams strict_params = params;
    strict_params.validation.mode = ValidateMode::Strict;
    ExperimentRunner strict_runner(factory, strict_params);
    Result<RunResult> failed =
        strict_runner.tryRun("ctr", SimConfig::baseline(gpu));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(strict_runner.sweepStats().failed, 1u);
}

TEST(SceneFuzz, SweepReportCarriesDegradationCounters)
{
    // A run whose tiles get degraded surfaces the count in the sweep
    // stats (and therefore the bench fault report). Use the runner with
    // validation on and a workload, then check the accounting plumbing
    // via a direct simulation with seeded FVP corruption.
    BenchParams params;
    params.width = kW;
    params.height = kH;
    params.frames = 2;
    params.warmup = 0;
    params.use_cache = false;
    params.jobs = 1;
    params.validation = permissive(0.0625);

    ExperimentRunner runner(workloads::factory(), params);
    Result<RunResult> r = runner.tryRun("ctr", SimConfig::evr(params.gpuConfig()));
    ASSERT_TRUE(r.ok()) << r.status().message();

    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.degraded_tiles, r.value().totals.degraded_tiles);
    EXPECT_EQ(stats.validate_violations,
              r.value().totals.validate_violations);
    EXPECT_EQ(stats.validate_violations, 0u); // sound pipeline
}

// ------------------------------------- corrupted bench sweeps in process --

namespace {

/** Every Table III alias, in registry order. */
std::set<std::string>
allAliasSet()
{
    const std::vector<std::string> &all = workloads::allAliases();
    return {all.begin(), all.end()};
}

/** The registry with @p corrupted aliases' frames all corrupted. */
WorkloadFactory
corruptedRegistry(const std::set<std::string> &corrupted)
{
    return corruptingFactory(workloads::factory(), corrupted, 9);
}

/** A bench sweep's parameters at 1 frame, 0 warm-up and no
 *  image-identity sampling. */
BenchParams
sweepParams(ValidateMode mode, const std::string &cache_dir = "")
{
    BenchParams p;
    p.frames = 1;
    p.warmup = 0;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.heartbeat_ms = 0;
    p.validation.mode = mode;
    p.validation.tile_sample_rate = 0.0;
    return p;
}

/** Declare and prefetch every alias x {baseline, evr}, as the figure
 *  binaries do. */
void
sweep(bench::BenchContext &ctx)
{
    ctx.needForAllWorkloads(
        {SimConfig::baseline(ctx.gpu()), SimConfig::evr(ctx.gpu())});
    ctx.prefetch();
}

} // namespace

TEST(BenchContext, EveryFrameCorruptedPermissiveDegradesAndCompletes)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "evrsim_fuzz_sweep";
    std::filesystem::remove_all(dir);
    bench::BenchContext ctx(
        corruptedRegistry(allAliasSet()),
        sweepParams(ValidateMode::Permissive, dir.string()));
    sweep(ctx);

    ASSERT_TRUE(ctx.outcome.ok());
    EXPECT_EQ(ctx.exitCode(), 0);
    const std::vector<std::string> &all = workloads::allAliases();
    ASSERT_EQ(ctx.outcome.results.size(), 2 * all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        SCOPED_TRACE(all[i]);
        const RunResult &base = ctx.outcome.results[2 * i];
        const RunResult &evr = ctx.outcome.results[2 * i + 1];
        EXPECT_GT(base.totals.validate_scene_issues, 0u);
        EXPECT_GT(evr.totals.validate_scene_issues, 0u);
        EXPECT_EQ(base.image_crc, evr.image_crc);
    }

    // The sweep summary is named after the binary, so a regeneration
    // loop keeps one file per binary instead of overwriting one.
    std::ifstream in(dir / "summary-scene_fuzz_test.json");
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    Json doc = Json::parseOrDie(text.str());
    EXPECT_EQ(doc.at("simulated").asU64(), 2 * all.size());
    EXPECT_EQ(doc.at("failed").asU64(), 0u);
    EXPECT_FALSE(std::filesystem::exists(dir / "summary.json"));
    std::filesystem::remove_all(dir);
}

TEST(BenchContext, EveryFrameCorruptedStrictFailsEveryRun)
{
    bench::BenchContext ctx(corruptedRegistry(allAliasSet()),
                            sweepParams(ValidateMode::Strict));
    sweep(ctx);

    ASSERT_EQ(ctx.outcome.failures.size(), ctx.plan.size());
    for (const RunFailure &f : ctx.outcome.failures)
        EXPECT_EQ(f.status.code(), ErrorCode::InvalidArgument)
            << f.alias << "/" << f.config << ": " << f.status.toString();
    EXPECT_EQ(ctx.exitCode(), 1);
    EXPECT_TRUE(ctx.aliases().empty());
}

TEST(BenchContext, StrictHalfCorruptedKeepsTheCleanHalf)
{
    const std::vector<std::string> &all = workloads::allAliases();
    std::set<std::string> corrupted;
    std::vector<std::string> clean;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i % 2 == 0)
            corrupted.insert(all[i]);
        else
            clean.push_back(all[i]);
    }
    bench::BenchContext ctx(corruptedRegistry(corrupted),
                            sweepParams(ValidateMode::Strict));
    sweep(ctx);

    EXPECT_EQ(ctx.outcome.failures.size(), 2 * corrupted.size());
    EXPECT_EQ(ctx.exitCode(), 1);
    ASSERT_EQ(ctx.aliases(), clean);
    // The table loops' run() calls are memo hits for every survivor.
    for (const std::string &alias : ctx.aliases()) {
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));
        EXPECT_EQ(base.workload, alias);
        EXPECT_EQ(evr.workload, alias);
    }
    EXPECT_EQ(ctx.runner.sweepStats().memo_hits, 2 * clean.size());
}
