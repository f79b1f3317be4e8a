/**
 * @file
 * Tests for the fault-tolerance layer: Status/Result propagation, strict
 * env-knob validation, JobPool exception capture, durable atomic writes
 * and the CRC32 envelope, corrupt-cache detection + re-simulation,
 * failure reporting and memoization, and — the load-bearing guarantee —
 * that every run surviving a sweep with failed runs is byte-identical
 * to a clean run. Faults come from decorated WorkloadFactories and from
 * real damage on disk.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "driver/experiment.hpp"
#include "common/job_pool.hpp"
#include "driver/envelope.hpp"
#include "driver/json.hpp"
#include "scene/mesh.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

// --------------------------------------------------------------- Status --

TEST(Status, DefaultIsOkAndFactoriesCarryCodes)
{
    Status ok;
    EXPECT_TRUE(ok.ok());

    Status s = Status::dataLoss("entry damaged");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::DataLoss);
    EXPECT_EQ(s.message(), "entry damaged");
    EXPECT_EQ(s.toString(), "DATA_LOSS: entry damaged");

    EXPECT_EQ(Status::invalidArgument("x").code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(Status::notFound("x").code(), ErrorCode::NotFound);
    EXPECT_EQ(Status::internal("x").code(), ErrorCode::Internal);
}

TEST(Status, WithContextPrefixesMessage)
{
    Status s = Status::dataLoss("not a number").withContext("schema");
    EXPECT_EQ(s.code(), ErrorCode::DataLoss);
    EXPECT_EQ(s.message(), "schema: not a number");
}

TEST(Status, ResultHoldsValueOrError)
{
    Result<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    Result<int> bad(Status::notFound("missing"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::NotFound);
}

// ------------------------------------------------------------ env knobs --

TEST(EnvKnobs, StrictIntParsing)
{
    EXPECT_TRUE(parseIntStrict("42").ok());
    EXPECT_EQ(parseIntStrict("42").value(), 42);
    EXPECT_TRUE(parseIntStrict("-3").ok());
    EXPECT_FALSE(parseIntStrict("").ok());
    EXPECT_FALSE(parseIntStrict("3O").ok()); // the atoi() trap: "3O" -> 3
    EXPECT_FALSE(parseIntStrict(" 42").ok());
    EXPECT_FALSE(parseIntStrict("42 ").ok());
    EXPECT_FALSE(parseIntStrict("99999999999999999999999").ok());
    EXPECT_TRUE(parseDoubleStrict("0.25").ok());
    EXPECT_FALSE(parseDoubleStrict("0.25x").ok());
}

TEST(EnvKnobs, GarbageFramesIsFatalAndNamesTheVariable)
{
    setenv("EVRSIM_FRAMES", "3O", 1);
    EXPECT_EXIT(benchParamsFromEnv(), ::testing::ExitedWithCode(1),
                "EVRSIM_FRAMES");
    unsetenv("EVRSIM_FRAMES");
}

TEST(EnvKnobs, CheckedVariantPropagatesInsteadOfExiting)
{
    setenv("EVRSIM_JOBS", "abc", 1);
    Result<BenchParams> p = benchParamsFromEnvChecked();
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(p.status().message().find("EVRSIM_JOBS"), std::string::npos);
    unsetenv("EVRSIM_JOBS");
}

// -------------------------------------------- JobPool fault isolation --

TEST(JobPool, ThrowingJobCostsOnlyItself)
{
    JobPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&, i] {
            if (i == 3)
                throw std::runtime_error("boom 3");
            if (i == 7)
                throw 42; // non-std exception
            ran.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(pool.failureCount(), 2u);

    std::vector<std::string> failures = pool.drainFailures();
    ASSERT_EQ(failures.size(), 2u);
    bool saw_boom = false, saw_nonstd = false;
    for (const std::string &f : failures) {
        saw_boom |= f == "boom 3";
        saw_nonstd |= f == "non-std exception escaped a job";
    }
    EXPECT_TRUE(saw_boom);
    EXPECT_TRUE(saw_nonstd);
    EXPECT_TRUE(pool.drainFailures().empty()); // drain resets

    // The pool is still usable after failures.
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(JobPool, InlinePoolCapturesThrowsToo)
{
    JobPool pool(1);
    pool.submit([] { throw std::runtime_error("inline boom"); });
    pool.wait();
    std::vector<std::string> failures = pool.drainFailures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0], "inline boom");
}

// ---------------------------------------------------- Json try-accessors --

TEST(JsonTry, AccessorsPropagateInsteadOfPanicking)
{
    Result<Json> doc =
        Json::tryParse("{\"n\": 3, \"s\": \"hi\", \"b\": true}");
    ASSERT_TRUE(doc.ok());
    const Json &j = doc.value();

    ASSERT_NE(j.find("n"), nullptr);
    EXPECT_EQ(j.find("n")->tryAsU64().value(), 3u);
    EXPECT_EQ(j.find("s")->tryAsString().value(), "hi");
    EXPECT_TRUE(j.find("b")->tryAsBool().value());

    Result<std::uint64_t> wrong = j.find("s")->tryAsU64();
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), ErrorCode::DataLoss);
    EXPECT_EQ(j.find("missing"), nullptr);

    Result<Json> bad = Json::tryParse("{\"n\": ");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::DataLoss);
}

TEST(JsonTry, RunResultTryFromJsonRejectsDamagedShapes)
{
    EXPECT_FALSE(RunResult::tryFromJson(Json::parseOrDie("{}")).ok());
    EXPECT_FALSE(RunResult::tryFromJson(Json(3)).ok());
}

// ------------------------------------------------------- test workloads --

namespace {

/** A tiny deterministic workload; `alias` selects its look. */
class TinyWorkload : public Workload
{
  public:
    TinyWorkload(std::string alias, int width, int height)
        : alias_(std::move(alias)), width_(width), height_(height)
    {
        quad_ = meshes::quad({1, 1, 1, 1});
    }

    Info
    info() const override
    {
        return {alias_, "Tiny " + alias_, "Test", false};
    }

    void setup(GpuSimulator &sim) override { sim.uploadMesh(quad_); }

    Scene
    frame(int index) override
    {
        float offset = alias_ == "fz-a" ? 2.0f : 10.0f;
        Scene s;
        setCamera2D(s, width_, height_);
        DrawCommand &c = submitRect(s, &quad_, offset, offset, 20, 16,
                                    0.5f, RenderState{});
        c.tint = {0.4f + 0.1f * (index % 4), 0.3f, 0.2f, 1.0f};
        return s;
    }

  private:
    std::string alias_;
    int width_, height_;
    Mesh quad_;
};

/** TinyWorkload whose setup() throws, as a broken workload would. */
class ThrowingWorkload : public TinyWorkload
{
  public:
    using TinyWorkload::TinyWorkload;

    void
    setup(GpuSimulator &) override
    {
        throw std::runtime_error("broken workload");
    }
};

WorkloadFactory
tinyFactory()
{
    return [](const std::string &alias, int w,
              int h) -> std::unique_ptr<Workload> {
        if (alias != "fz-a" && alias != "fz-b")
            return nullptr;
        return std::make_unique<TinyWorkload>(alias, w, h);
    };
}

/**
 * tinyFactory() whose workloads for @p failing aliases throw; counts
 * every workload it builds in @p builds when given.
 */
WorkloadFactory
failingFactory(std::set<std::string> failing,
               std::atomic<int> *builds = nullptr)
{
    return [failing, builds](const std::string &alias, int w,
                             int h) -> std::unique_ptr<Workload> {
        if (builds)
            builds->fetch_add(1);
        if (failing.count(alias))
            return std::make_unique<ThrowingWorkload>(alias, w, h);
        return tinyFactory()(alias, w, h);
    };
}

BenchParams
tinyParams(int jobs, const std::string &cache_dir = "")
{
    BenchParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 3;
    p.warmup = 1;
    p.use_cache = !cache_dir.empty();
    p.cache_dir = cache_dir;
    p.jobs = jobs;
    return p;
}

std::vector<RunRequest>
tinyBatch(const GpuConfig &gpu)
{
    std::vector<RunRequest> reqs;
    for (const char *alias : {"fz-a", "fz-b"}) {
        reqs.push_back({alias, SimConfig::baseline(gpu)});
        reqs.push_back({alias, SimConfig::renderingElimination(gpu)});
        reqs.push_back({alias, SimConfig::evr(gpu)});
    }
    return reqs;
}

/** Canonical byte-level form of each result (host timing excluded). */
std::vector<std::string>
dumps(const std::vector<RunResult> &results)
{
    std::vector<std::string> out;
    for (const RunResult &r : results)
        out.push_back(r.toJson(false).dump(2));
    return out;
}

/** Fresh temp cache dir for one test. */
std::filesystem::path
freshCacheDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** freshCacheDir(), created. */
std::filesystem::path
freshDir(const std::string &name)
{
    std::filesystem::path dir = freshCacheDir(name);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::filesystem::path>
cacheEntries(const std::filesystem::path &dir, const std::string &ext)
{
    std::vector<std::filesystem::path> out;
    if (!std::filesystem::exists(dir))
        return out;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ext)
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spit(const std::filesystem::path &p, const std::string &text)
{
    std::ofstream out(p, std::ios::trunc);
    out << text;
}

} // namespace

// ------------------------------------------------------ atomic file ----

TEST(AtomicFile, WriteReadRoundtripAndOverwrite)
{
    std::filesystem::path dir = freshDir("evrsim_atomic_file");
    std::string path = (dir / "a.txt").string();

    ASSERT_TRUE(atomicWriteFile(path, "first").ok());
    ASSERT_TRUE(atomicWriteFile(path, "second contents").ok());

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "second contents");

    // No pid-tagged temp file may survive a successful publish.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string(), "a.txt");
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, UnwritableDirectoryReportsUnavailable)
{
    Status s = atomicWriteFile("/nonexistent-dir-evrsim/x.txt", "data");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Unavailable);
}

// --------------------------------------------------------- envelope ----

TEST(Envelope, RoundtripPreservesPayload)
{
    Json payload = Json::object();
    payload.set("answer", 42);
    payload.set("name", std::string("tiny"));

    std::string text = wrapEnvelope(payload, 7).dump(0);
    Result<Json> back = parseEnvelope(text, 7);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().dump(1), payload.dump(1));
}

TEST(Envelope, SchemaMismatchAndDamageAreDataLoss)
{
    Json payload = Json::object();
    payload.set("v", 1);
    std::string text = wrapEnvelope(payload, 3).dump(0);

    Result<Json> wrong = parseEnvelope(text, 4);
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), ErrorCode::DataLoss);

    // Tamper with the payload value: the CRC no longer matches.
    std::string damaged = text;
    std::size_t at = damaged.rfind("1");
    ASSERT_NE(at, std::string::npos);
    damaged[at] = '2';
    Result<Json> bad = parseEnvelope(damaged, 3);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::DataLoss);
}

// --------------------------------- corrupt-cache fuzz + re-simulation --

TEST(CorruptCache, DamagedEntriesAreDiscardedAndResimulated)
{
    std::filesystem::path dir = freshCacheDir("evrsim_fault_cache_fuzz");
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    // Reference sweep: warm the cache and record the canonical bytes.
    std::vector<std::string> want;
    {
        ExperimentRunner warm(tinyFactory(), tinyParams(1, dir.string()));
        want = dumps(warm.runAll(reqs));
    }
    std::vector<std::filesystem::path> entries = cacheEntries(dir, ".json");
    ASSERT_EQ(entries.size(), reqs.size());

    // Damage modes: truncation, value-level bit damage, stale schema
    // version, a tampered checksum field, and every entry at once.
    auto truncate = [](const std::filesystem::path &p) {
        std::string text = slurp(p);
        spit(p, text.substr(0, text.size() / 2));
    };
    auto bitflip = [](const std::filesystem::path &p) {
        std::string text = slurp(p);
        std::size_t i = text.find_last_of("0123456789");
        ASSERT_NE(i, std::string::npos);
        text[i] ^= 1; // 0x30..0x39 stays a digit under low-bit flips
        spit(p, text);
    };
    auto schema_bump = [](const std::filesystem::path &p) {
        Json doc = Json::parseOrDie(slurp(p));
        doc.set("schema", kResultCacheVersion + 1);
        spit(p, doc.dump(1));
    };
    auto crc_tamper = [](const std::filesystem::path &p) {
        Json doc = Json::parseOrDie(slurp(p));
        doc.set("payload_crc32",
                doc.find("payload_crc32")->asU64() ^ 0xdeadbeefu);
        spit(p, doc.dump(1));
    };
    using Damage = std::function<void(const std::filesystem::path &)>;
    std::vector<std::vector<std::pair<std::size_t, Damage>>> rounds = {
        {{0, truncate}}, {{1, bitflip}}, {{2, schema_bump}},
        {{3, crc_tamper}}};
    rounds.emplace_back();
    for (std::size_t e = 0; e < entries.size(); ++e)
        rounds.back().push_back(
            {e, e % 2 ? Damage(bitflip) : Damage(truncate)});

    for (std::size_t m = 0; m < rounds.size(); ++m) {
        SCOPED_TRACE("damage round " + std::to_string(m));
        for (const auto &[e, damage] : rounds[m])
            damage(entries[e]);

        ExperimentRunner runner(tinyFactory(), tinyParams(1, dir.string()));
        std::vector<std::string> got = dumps(runner.runAll(reqs));
        EXPECT_EQ(got, want)
            << "re-simulated results diverged from the clean sweep";

        // Only the damaged entries were re-simulated.
        SweepStats stats = runner.sweepStats();
        EXPECT_EQ(stats.corrupt_entries, rounds[m].size());
        EXPECT_EQ(stats.simulated, rounds[m].size());
        EXPECT_EQ(stats.disk_hits, reqs.size() - rounds[m].size());

        // The fresh results replaced the damaged bytes in place: the
        // directory holds exactly the entries, no evidence copies.
        std::size_t files = 0;
        for (const auto &f : std::filesystem::directory_iterator(dir)) {
            EXPECT_EQ(f.path().extension(), ".json") << f.path();
            ++files;
        }
        EXPECT_EQ(files, reqs.size());
    }

    // Recovery re-published every entry: a clean runner is warm again.
    ExperimentRunner again(tinyFactory(), tinyParams(1, dir.string()));
    EXPECT_EQ(dumps(again.runAll(reqs)), want);
    EXPECT_EQ(again.sweepStats().disk_hits, reqs.size());
    EXPECT_EQ(again.sweepStats().corrupt_entries, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CorruptCache, UnpublishableCacheDirStillAnswers)
{
    // A cache dir below a regular file cannot be created or written,
    // whatever the process's privileges: every publish fails.
    std::filesystem::path dir = freshDir("evrsim_fault_cache_write");
    spit(dir / "file", "not a directory");
    std::string cache_dir = (dir / "file" / "cache").string();
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    std::vector<std::string> want;
    {
        ExperimentRunner clean(tinyFactory(), tinyParams(1));
        want = dumps(clean.runAll(reqs));
    }

    ExperimentRunner faulty(tinyFactory(), tinyParams(1, cache_dir));
    EXPECT_EQ(dumps(faulty.runAll(reqs)), want);
    EXPECT_EQ(faulty.sweepStats().simulated, reqs.size());
    EXPECT_EQ(faulty.sweepStats().failed, 0u);
    std::vector<std::string> left;
    for (const auto &f : std::filesystem::directory_iterator(dir))
        left.push_back(f.path().filename().string());
    EXPECT_EQ(left, std::vector<std::string>{"file"});
    EXPECT_EQ(slurp(dir / "file"), "not a directory");
    std::filesystem::remove_all(dir);
}

// -------------------------------------------------- failure reporting --

TEST(FaultRecovery, PermanentFailureIsBoundedAndReported)
{
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());
    std::atomic<int> builds{0};
    ExperimentRunner runner(failingFactory({"fz-a", "fz-b"}, &builds),
                            tinyParams(1));

    BatchOutcome outcome = runner.runAllChecked(reqs);
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.failures.size(), reqs.size());
    ASSERT_EQ(outcome.results.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RunFailure &f = outcome.failures[i];
        EXPECT_EQ(f.index, i); // sorted, and here every run failed
        EXPECT_EQ(f.alias, reqs[i].alias);
        EXPECT_EQ(f.config, reqs[i].config.name);
        EXPECT_EQ(f.attempts, 1); // bounded: one attempt, no retry
        EXPECT_EQ(f.status.code(), ErrorCode::Internal);
        EXPECT_NE(f.status.message().find("broken workload"),
                  std::string::npos);
        EXPECT_EQ(outcome.results[i].frames, 0); // default slot
    }

    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.failed, reqs.size());
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.simulated, 0u);
    EXPECT_EQ(builds.load(), static_cast<int>(reqs.size()));
}

TEST(FaultRecovery, RunExitsOnPermanentFailure)
{
    ExperimentRunner runner(failingFactory({"fz-a"}), tinyParams(1));
    SimConfig cfg = SimConfig::baseline(tinyParams(1).gpuConfig());

    Result<RunResult> r = runner.tryRun("fz-a", cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::Internal);

    ExperimentRunner fatal_runner(failingFactory({"fz-a"}), tinyParams(1));
    EXPECT_EXIT(fatal_runner.run("fz-a", cfg),
                ::testing::ExitedWithCode(1), "fz-a/baseline failed");
}

TEST(FaultRecovery, UnknownAliasIsNotFoundNotRetried)
{
    ExperimentRunner runner(tinyFactory(), tinyParams(1));
    Result<RunResult> r = runner.tryRun(
        "no-such-alias", SimConfig::baseline(tinyParams(1).gpuConfig()));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(runner.sweepStats().retries, 0u);
}

TEST(FaultRecovery, FailuresAreMemoizedNotRetriedPerRequester)
{
    std::atomic<int> builds{0};
    ExperimentRunner runner(failingFactory({"fz-a"}, &builds),
                            tinyParams(1));
    SimConfig cfg = SimConfig::baseline(tinyParams(1).gpuConfig());

    EXPECT_FALSE(runner.tryRun("fz-a", cfg).ok());
    EXPECT_FALSE(runner.tryRun("fz-a", cfg).ok());
    EXPECT_EQ(builds.load(), 1); // second request hit the failure memo
    SweepStats stats = runner.sweepStats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.memo_hits, 1u);
}

// ----------------------------- partial results match a clean serial run --

TEST(FaultRecovery, SurvivorsOfAFaultySweepMatchTheCleanRun)
{
    std::vector<RunRequest> reqs = tinyBatch(tinyParams(1).gpuConfig());

    ExperimentRunner clean(tinyFactory(), tinyParams(1));
    std::vector<std::string> want = dumps(clean.runAll(reqs));

    // One workload is broken: its runs fail, the rest must be
    // byte-identical to the clean sweep.
    ExperimentRunner faulty(failingFactory({"fz-b"}), tinyParams(1));
    BatchOutcome outcome = faulty.runAllChecked(reqs);
    ASSERT_EQ(outcome.results.size(), reqs.size());

    auto failed = [&](std::size_t i) {
        for (const RunFailure &f : outcome.failures)
            if (f.index == i)
                return true;
        return false;
    };
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (failed(i))
            continue;
        ++survivors;
        EXPECT_EQ(outcome.results[i].toJson(false).dump(2), want[i])
            << "survivor " << i << " diverged from the clean run";
    }
    EXPECT_EQ(survivors + outcome.failures.size(), reqs.size());
    EXPECT_EQ(faulty.sweepStats().failed, outcome.failures.size());
    for (const RunFailure &f : outcome.failures)
        EXPECT_EQ(f.alias, "fz-b");
    EXPECT_EQ(survivors, 3u);

    // Deterministic: the same workloads fail the same runs.
    ExperimentRunner replay(failingFactory({"fz-b"}), tinyParams(1));
    BatchOutcome outcome2 = replay.runAllChecked(reqs);
    ASSERT_EQ(outcome2.failures.size(), outcome.failures.size());
    for (std::size_t i = 0; i < outcome.failures.size(); ++i)
        EXPECT_EQ(outcome2.failures[i].index, outcome.failures[i].index);
}
