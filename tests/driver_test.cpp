/**
 * @file
 * Tests for the driver layer: JSON round trips, RunResult persistence,
 * SimConfig validation, energy-event mapping, the experiment
 * runner's on-disk cache, resuming an interrupted sweep from that
 * cache, and cooperative shutdown.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <stdlib.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "common/shutdown.hpp"
#include "driver/experiment.hpp"
#include "driver/report.hpp"
#include "support.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;
using namespace evrsim::test;

// ----------------------------------------------------------------- Json --

TEST(Json, ScalarRoundTrips)
{
    EXPECT_EQ(Json::parseOrDie("true").asBool(), true);
    EXPECT_EQ(Json::parseOrDie("false").asBool(), false);
    EXPECT_TRUE(Json::parseOrDie("null").isNull());
    EXPECT_DOUBLE_EQ(Json::parseOrDie("3.5").asDouble(), 3.5);
    EXPECT_EQ(Json::parseOrDie("-42").asI64(), -42);
    EXPECT_EQ(Json::parseOrDie("1e3").asDouble(), 1000.0);
    EXPECT_EQ(Json::parseOrDie("\"hi\\nthere\"").asString(), "hi\nthere");
}

TEST(Json, LargeIntegersAreExact)
{
    // Counters up to 2^53 must survive the double representation.
    std::uint64_t big = (1ull << 53) - 1;
    Json j(big);
    EXPECT_EQ(Json::parseOrDie(j.dump()).asU64(), big);
}

TEST(Json, ObjectAndArrayRoundTrip)
{
    Json obj = Json::object();
    obj.set("name", "evr");
    obj.set("count", 42);
    Json arr = Json::array();
    arr.push(1);
    arr.push(2.5);
    arr.push("three");
    obj.set("list", std::move(arr));

    for (int indent : {0, 2}) {
        Json parsed = Json::parseOrDie(obj.dump(indent));
        EXPECT_EQ(parsed.at("name").asString(), "evr");
        EXPECT_EQ(parsed.at("count").asU64(), 42u);
        EXPECT_EQ(parsed.at("list").size(), 3u);
        EXPECT_EQ(parsed.at("list").at(2).asString(), "three");
    }
}

TEST(Json, StringEscapes)
{
    Json j(std::string("a\"b\\c\td\ne"));
    EXPECT_EQ(Json::parseOrDie(j.dump()).asString(), "a\"b\\c\td\ne");
}

TEST(Json, ParseErrorsAreReported)
{
    bool ok = true;
    std::string err;
    Json::parse("{\"a\": }", ok, err);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());

    Json::parse("[1, 2", ok, err);
    EXPECT_FALSE(ok);

    Json::parse("42 trailing", ok, err);
    EXPECT_FALSE(ok);
}

TEST(Json, GetWithFallback)
{
    Json obj = Json::object();
    obj.set("present", 1);
    EXPECT_EQ(obj.get("present", Json(0)).asU64(), 1u);
    EXPECT_EQ(obj.get("absent", Json(7)).asU64(), 7u);
}

// ------------------------------------------------------------ RunResult --

namespace {

FrameStats
populatedStats()
{
    FrameStats s;
    s.draw_commands = 1;
    s.vertices_fetched = 2;
    s.fragments_shaded = 1234567;
    s.early_z_kills = 89;
    s.tiles_skipped_re = 17;
    s.casuistry[2] = 5;
    s.geometry_cycles = 111;
    s.raster_cycles = 222;
    s.mem.dram.read_bytes[1] = 999;
    s.mem.vertex_cache.reads = 55;
    s.mem.l2_cache.writebacks = 3;
    return s;
}

} // namespace

TEST(RunResult, FrameStatsRoundTrip)
{
    FrameStats s = populatedStats();
    FrameStats r = frameStatsFromJson(frameStatsToJson(s));
    EXPECT_EQ(r.fragments_shaded, s.fragments_shaded);
    EXPECT_EQ(r.early_z_kills, s.early_z_kills);
    EXPECT_EQ(r.tiles_skipped_re, s.tiles_skipped_re);
    EXPECT_EQ(r.casuistry[2], s.casuistry[2]);
    EXPECT_EQ(r.geometry_cycles, s.geometry_cycles);
    EXPECT_EQ(r.mem.dram.read_bytes[1], s.mem.dram.read_bytes[1]);
    EXPECT_EQ(r.mem.vertex_cache.reads, s.mem.vertex_cache.reads);
    EXPECT_EQ(r.mem.l2_cache.writebacks, s.mem.l2_cache.writebacks);
}

TEST(RunResult, FullRoundTripThroughText)
{
    RunResult r;
    r.workload = "ccs";
    r.config = "evr";
    r.frames = 30;
    r.width = 608;
    r.height = 384;
    r.totals = populatedStats();
    r.energy.dram_nj = 123.5;
    r.energy.evr_hardware_nj = 0.25;
    r.image_crc = 0xabcdef01;

    RunResult back = RunResult::fromJson(Json::parseOrDie(r.toJson().dump(2)));
    EXPECT_EQ(back.workload, "ccs");
    EXPECT_EQ(back.config, "evr");
    EXPECT_EQ(back.frames, 30);
    EXPECT_EQ(back.totals.fragments_shaded, r.totals.fragments_shaded);
    EXPECT_DOUBLE_EQ(back.energy.dram_nj, 123.5);
    EXPECT_DOUBLE_EQ(back.energy.evr_hardware_nj, 0.25);
    EXPECT_EQ(back.image_crc, 0xabcdef01u);
}

TEST(RunResult, DerivedMetrics)
{
    RunResult r;
    r.frames = 2;
    r.width = 10;
    r.height = 10;
    r.totals.tiles_total = 100;
    r.totals.tiles_skipped_re = 25;
    r.totals.tiles_equal_oracle = 50;
    r.totals.fragments_shaded = 400;
    EXPECT_DOUBLE_EQ(r.tilesSkippedRatio(), 0.25);
    EXPECT_DOUBLE_EQ(r.tilesEqualOracleRatio(), 0.5);
    EXPECT_DOUBLE_EQ(r.shadedPerPixel(), 2.0);
}

// ------------------------------------------------------------ SimConfig --

TEST(SimConfig, PresetsAreConsistent)
{
    GpuConfig gpu = tinyGpu();
    for (const SimConfig &c :
         {SimConfig::baseline(gpu), SimConfig::renderingElimination(gpu),
          SimConfig::evr(gpu), SimConfig::evrReorderOnly(gpu),
          SimConfig::evrFilterOnly(gpu), SimConfig::oracleZ(gpu)}) {
        c.validate();
        EXPECT_FALSE(c.name.empty());
    }
    EXPECT_TRUE(SimConfig::evr(gpu).re);
    EXPECT_TRUE(SimConfig::evr(gpu).evr_reorder);
    EXPECT_TRUE(SimConfig::evr(gpu).evr_filter_signature);
    EXPECT_FALSE(SimConfig::evrReorderOnly(gpu).re);
}

TEST(SimConfig, InvalidCombinationsAreFatal)
{
    GpuConfig gpu = tinyGpu();
    SimConfig c = SimConfig::baseline(gpu);
    c.evr_reorder = true; // without evr_predict
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "evr_predict");

    SimConfig f = SimConfig::baseline(gpu);
    f.evr_predict = true;
    f.evr_filter_signature = true; // without RE
    EXPECT_EXIT(f.validate(), ::testing::ExitedWithCode(1),
                "Rendering Elimination");
}

// --------------------------------------------------------- EnergyEvents --

TEST(EnergyMapping, CountersLandInTheRightEvents)
{
    FrameStats s;
    s.geometry_cycles = 100;
    s.raster_cycles = 300;
    s.early_z_tests = 10;
    s.late_z_tests = 5;
    s.signature_updates = 7;
    s.signature_compares = 3;
    s.signature_bytes_hashed = 100;
    s.signature_shift_bytes = 50;
    s.lgt_accesses = 11;
    s.layer_param_bytes = 13;

    SimConfig cfg = SimConfig::evr(tinyGpu());
    EnergyEvents e = toEnergyEvents(s, cfg);
    EXPECT_EQ(e.cycles, 400u);
    EXPECT_EQ(e.depth_tests, 15u);
    EXPECT_EQ(e.signature_buffer_accesses, 2u * 7 + 2u * 3);
    EXPECT_EQ(e.signature_bytes_hashed, 150u);
    EXPECT_EQ(e.lgt_accesses, 11u);
    EXPECT_EQ(e.layer_param_bytes, 13u);
    EXPECT_TRUE(e.re_hardware_present);
    EXPECT_TRUE(e.evr_hardware_present);

    EnergyEvents b = toEnergyEvents(s, SimConfig::baseline(tinyGpu()));
    EXPECT_FALSE(b.re_hardware_present);
    EXPECT_FALSE(b.evr_hardware_present);
}

// ----------------------------------------------------- ExperimentRunner --

namespace {

/** A trivial one-quad workload for cache tests. */
class MiniWorkload : public Workload
{
  public:
    MiniWorkload(int width, int height) : width_(width), height_(height)
    {
        quad_ = meshes::quad({1, 1, 1, 1});
    }

    Info
    info() const override
    {
        return {"mini", "Mini", "Test", false};
    }

    void setup(GpuSimulator &sim) override { sim.uploadMesh(quad_); }

    Scene
    frame(int index) override
    {
        Scene s;
        setCamera2D(s, width_, height_);
        DrawCommand &c = submitRect(s, &quad_, 2, 2, 20, 20, 0.5f,
                                    RenderState{});
        c.tint = {0.5f + 0.1f * (index % 3), 0.2f, 0.2f, 1.0f};
        return s;
    }

  private:
    int width_, height_;
    Mesh quad_;
};

WorkloadFactory
miniFactory()
{
    return [](const std::string &alias, int w, int h)
               -> std::unique_ptr<Workload> {
        if (alias != "mini")
            return nullptr;
        return std::make_unique<MiniWorkload>(w, h);
    };
}

BenchParams
tinyParams(const std::string &cache_dir, bool use_cache = true)
{
    BenchParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 3;
    p.use_cache = use_cache;
    p.cache_dir = cache_dir;
    return p;
}

} // namespace

TEST(ExperimentRunner, SimulationIsDeterministic)
{
    BenchParams p = tinyParams("", false);
    ExperimentRunner runner(miniFactory(), p);
    SimConfig cfg = SimConfig::baseline(p.gpuConfig());
    RunResult a = runner.simulate("mini", cfg);
    RunResult b = runner.simulate("mini", cfg);
    EXPECT_EQ(a.image_crc, b.image_crc);
    EXPECT_EQ(a.totals.fragments_shaded, b.totals.fragments_shaded);
    EXPECT_EQ(a.totalCycles(), b.totalCycles());
}

TEST(ExperimentRunner, CacheHitAvoidsResimulation)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "evrsim_cache_test";
    std::filesystem::remove_all(dir);

    BenchParams p = tinyParams(dir.string());
    ExperimentRunner runner(miniFactory(), p);
    SimConfig cfg = SimConfig::baseline(p.gpuConfig());

    RunResult first = runner.run("mini", cfg);
    // A cache file now exists.
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    RunResult second = runner.run("mini", cfg);
    EXPECT_EQ(second.image_crc, first.image_crc);
    EXPECT_EQ(second.totals.fragments_shaded,
              first.totals.fragments_shaded);
    EXPECT_DOUBLE_EQ(second.totalEnergyNj(), first.totalEnergyNj());

    std::filesystem::remove_all(dir);
}

TEST(ExperimentRunner, CorruptCacheEntryIsDiscarded)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "evrsim_cache_corrupt";
    std::filesystem::remove_all(dir);

    BenchParams p = tinyParams(dir.string());
    ExperimentRunner runner(miniFactory(), p);
    SimConfig cfg = SimConfig::baseline(p.gpuConfig());
    RunResult first = runner.run("mini", cfg);

    // Corrupt every cache file.
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::FILE *f = std::fopen(entry.path().c_str(), "w");
        std::fputs("{broken", f);
        std::fclose(f);
    }

    RunResult again = runner.run("mini", cfg);
    EXPECT_EQ(again.image_crc, first.image_crc);

    std::filesystem::remove_all(dir);
}

TEST(ExperimentRunner, UnknownAliasIsFatal)
{
    BenchParams p = tinyParams("", false);
    ExperimentRunner runner(miniFactory(), p);
    EXPECT_EXIT(runner.simulate("nope", SimConfig::baseline(p.gpuConfig())),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(ExperimentRunner, DifferentConfigsGetDifferentCacheKeys)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "evrsim_cache_keys";
    std::filesystem::remove_all(dir);

    BenchParams p = tinyParams(dir.string());
    ExperimentRunner runner(miniFactory(), p);
    runner.run("mini", SimConfig::baseline(p.gpuConfig()));
    runner.run("mini", SimConfig::evr(p.gpuConfig()));

    int files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".json")
            ++files;
    EXPECT_EQ(files, 2);
    std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------- Report --

TEST(Report, Formatting)
{
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmtPct(0.4267), "42.7%");
    EXPECT_EQ(bar(0.5, 1.0, 10), "#####");
    EXPECT_EQ(bar(0.0, 1.0, 10), "");
}

TEST(Report, Means)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Report, TableRejectsMismatchedRows)
{
    ReportTable t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_DEATH(t.addRow({"only-one"}), "assertion");
}

// ------------------------------ Cache resume and cooperative shutdown --

// Own namespace: these tests run the real workload registry, so their
// tinyParams() must shadow the mini-workload one above.
namespace sweep_recovery {
namespace {

/** Self-deleting scratch directory. */
struct TempDir {
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/evrsweepXXXXXX";
        char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
};

/** Small, fast, deterministic parameters on the real workload registry. */
BenchParams
tinyParams(const std::string &cache_dir)
{
    BenchParams p;
    p.width = 160;
    p.height = 96;
    p.frames = 1;
    p.warmup = 0;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.jobs = 1;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    p.log_level = LogLevel::Quiet;
    return p;
}

} // namespace

TEST(CacheResume, InterruptedSweepReRunsOnlyUnfinishedRunsByteIdentically)
{
    BenchParams ref_params = tinyParams("");
    SimConfig baseline = SimConfig::baseline(ref_params.gpuConfig());
    SimConfig evr = SimConfig::evr(ref_params.gpuConfig());
    std::vector<RunRequest> plan;
    for (const char *alias : {"ccs", "abi", "hay"}) {
        plan.push_back({alias, baseline});
        plan.push_back({alias, evr});
    }

    // The reference: one uninterrupted sweep.
    ExperimentRunner one_shot(workloads::factory(), ref_params);
    std::vector<RunResult> want = one_shot.runAll(plan);

    // The interrupted sweep: a shutdown arrives while the third run is
    // simulating. That run finishes and is cached; the rest are shed.
    constexpr int kFinished = 3;
    TempDir dir;
    BenchParams params = tinyParams(dir.path);
    std::atomic<int> builds{0};
    WorkloadFactory interrupting =
        [&builds](const std::string &alias, int w, int h) {
            if (builds.fetch_add(1) + 1 == kFinished)
                requestShutdown(SIGINT);
            return workloads::factory()(alias, w, h);
        };
    resetShutdownForTest();
    {
        ExperimentRunner first(interrupting, params);
        BatchOutcome out = first.runAllChecked(plan);
        EXPECT_EQ(first.sweepStats().simulated,
                  static_cast<std::uint64_t>(kFinished));
        ASSERT_EQ(out.failures.size(), plan.size() - kFinished);
        for (const RunFailure &f : out.failures)
            EXPECT_EQ(f.status.code(), ErrorCode::Cancelled);
    }
    resetShutdownForTest();

    // A fresh runner over the same cache: the finished runs are disk
    // hits, only the rest simulate, and every result matches the
    // uninterrupted sweep byte for byte.
    ExperimentRunner resumed(workloads::factory(), params);
    std::vector<RunResult> got = resumed.runAll(plan);
    SweepStats stats = resumed.sweepStats();
    EXPECT_EQ(stats.disk_hits, static_cast<std::uint64_t>(kFinished));
    EXPECT_EQ(stats.simulated, plan.size() - kFinished);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i].toJson(false).dump(2),
                  want[i].toJson(false).dump(2))
            << "resumed run " << i << " diverged";
}

TEST(CooperativeShutdown, ShedsPendingJobsWithCancelledAndExitCode)
{
    resetShutdownForTest();
    EXPECT_FALSE(shutdownRequested());
    EXPECT_EQ(shutdownExitCode(0), 0);

    requestShutdown(SIGTERM);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGTERM);
    EXPECT_EQ(shutdownExitCode(0), 143);
    EXPECT_EQ(shutdownExitCode(1), 143);

    // Jobs not yet started are shed with Cancelled; the batch reports
    // them as failures and the stats count them.
    BenchParams p = tinyParams("");
    ExperimentRunner runner(workloads::factory(), p);
    SimConfig baseline = SimConfig::baseline(p.gpuConfig());
    BatchOutcome out = runner.runAllChecked({{"ccs", baseline}});
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].status.code(), ErrorCode::Cancelled);
    EXPECT_EQ(runner.sweepStats().cancelled, 1u);
    EXPECT_EQ(runner.sweepStats().simulated, 0u);

    resetShutdownForTest();
    EXPECT_EQ(shutdownExitCode(0), 0);

    // SIGINT maps to 130.
    requestShutdown(SIGINT);
    EXPECT_EQ(shutdownExitCode(0), 130);
    resetShutdownForTest();
}

} // namespace sweep_recovery
