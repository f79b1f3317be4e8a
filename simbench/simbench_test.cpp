/**
 * @file
 * Tests of the benchmark's own logic: percentile selection and the
 * tail-sample rule, failure accounting, result digests, and the regen
 * plan.
 */
#include <gtest/gtest.h>

#include <set>

#include "bench_lib.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;
using namespace simbench;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i)); // descending: order must not matter
    return v;
}

RunResult
sampleResult()
{
    RunResult r;
    r.workload = "ccs";
    r.config = "evr";
    r.frames = 3;
    r.width = 608;
    r.height = 384;
    r.totals.fragments_shaded = 12345;
    r.totals.tiles_total = 912;
    r.energy.dram_nj = 1.5;
    r.image_crc = 0xdeadbeef;
    return r;
}

} // namespace

TEST(Percentile, NearestRank)
{
    EXPECT_DOUBLE_EQ(percentile(ramp(100), 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(ramp(100), 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(ramp(100), 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile(ramp(10), 95.0), 10.0);
    EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(samplesBeyond(200, 95.0), 10u);
    EXPECT_EQ(samplesBeyond(0, 50.0), 0u);

    EXPECT_FALSE(tailPercentile(ramp(999), 99.0).has_value());
    ASSERT_TRUE(tailPercentile(ramp(1000), 99.0).has_value());
    EXPECT_DOUBLE_EQ(*tailPercentile(ramp(1000), 99.0), 990.0);
    EXPECT_FALSE(tailPercentile(ramp(199), 95.0).has_value());
    EXPECT_TRUE(tailPercentile(ramp(200), 95.0).has_value());

    EXPECT_DOUBLE_EQ(highestReportablePercentile(10000), 99.9);
    EXPECT_DOUBLE_EQ(highestReportablePercentile(1000), 99.0);
    EXPECT_DOUBLE_EQ(highestReportablePercentile(500), 98.0);
    EXPECT_DOUBLE_EQ(highestReportablePercentile(264), 95.0);
    EXPECT_DOUBLE_EQ(highestReportablePercentile(20), 50.0);
    EXPECT_DOUBLE_EQ(highestReportablePercentile(19), 0.0);
}

TEST(Tally, FailedRatio)
{
    Tally t;
    EXPECT_DOUBLE_EQ(t.failedRatio(), 0.0);
    t.record();
    t.record();
    t.record("ccs/evr: digest differs");
    t.record();
    EXPECT_EQ(t.attempted, 4u);
    EXPECT_EQ(t.failed, 1u);
    EXPECT_DOUBLE_EQ(t.failedRatio(), 0.25);
    ASSERT_EQ(t.reasons.size(), 1u);
    EXPECT_EQ(t.reasons[0], "ccs/evr: digest differs");
}

TEST(Checker, CountsEveryKindOfFailure)
{
    GpuConfig gpu;
    RunResult good = sampleResult();
    RunResult moved = sampleResult();
    moved.totals.fragments_shaded += 1;
    DigestTable reference = {{"k", hex32(resultDigest(good))}};

    Checker c(&reference);
    c.check("k", good);  // matches the reference
    c.check("k", moved); // differs from the reference and from round 1
    c.check("absent", good); // no reference digest
    EXPECT_EQ(c.tally.attempted, 3u);
    EXPECT_EQ(c.tally.failed, 2u);

    // Without a reference (other seeds) only cross-round drift counts.
    Checker any(nullptr);
    any.check("k", good);
    any.check("k", good);
    any.check("k", moved);
    EXPECT_EQ(any.tally.failed, 1u);

    // Image identity: one attempt per alias; failed slots are skipped.
    std::vector<RunRequest> plan = {{"ccs", SimConfig::renderingElimination(gpu)},
                                    {"ccs", SimConfig::evr(gpu)},
                                    {"300", SimConfig::baseline(gpu)},
                                    {"300", SimConfig::evr(gpu)}};
    std::vector<RunResult> results(4, good);
    results[3].image_crc ^= 1;
    Checker img(nullptr);
    img.checkImages(plan, results, {true, true, true, true});
    EXPECT_EQ(img.tally.attempted, 2u);
    EXPECT_EQ(img.tally.failed, 1u);
    Checker skip(nullptr);
    skip.checkImages(plan, results, {true, true, true, false});
    EXPECT_EQ(skip.tally.failed, 0u);
    std::vector<RunRequest> oracle = plan;
    oracle[3].config = SimConfig::oracleZ(gpu);
    Checker tie(nullptr);
    tie.checkImages(oracle, results, {true, true, true, true});
    EXPECT_EQ(tie.tally.failed, 0u);

    // A failed run counts once and leaves its slot empty.
    BatchOutcome cold;
    cold.results = results;
    cold.failures.push_back({2, "300", "baseline",
                             Status::internal("boom"), 1, false});
    Checker run(nullptr);
    std::vector<bool> present = run.checkFailures(cold);
    EXPECT_EQ(present, (std::vector<bool>{true, true, false, true}));
    EXPECT_EQ(run.tally.attempted, 1u);
    EXPECT_EQ(run.tally.failed, 1u);

    // Warm pass: one attempt per entry; an entry fails when it could
    // not be read, differs from the cold result, or was simulated.
    BatchOutcome warm = cold;
    warm.failures.clear();
    Checker w(nullptr);
    w.checkWarm(plan, cold, warm, 0);
    EXPECT_EQ(w.tally.attempted, 4u);
    EXPECT_EQ(w.tally.failed, 0u);
    warm.results[0] = moved;
    w.checkWarm(plan, cold, warm, 1);
    EXPECT_EQ(w.tally.attempted, 8u);
    EXPECT_EQ(w.tally.failed, 2u);
    warm.failures.push_back({3, "300", "evr", Status::internal("x"), 1, false});
    Checker w2(nullptr);
    w2.checkWarm(plan, cold, warm, 0);
    EXPECT_EQ(w2.tally.failed, 2u);
    EXPECT_DOUBLE_EQ(w2.tally.failedRatio(), 0.5);
}

TEST(Digest, CoversSimulatedContentOnly)
{
    RunResult a = sampleResult();
    RunResult b = sampleResult();
    b.sim_wall_ms = 1234.5; // host timing is not part of the digest
    EXPECT_EQ(resultDigest(a), resultDigest(b));

    RunResult c = sampleResult();
    c.totals.fragments_shaded += 1;
    EXPECT_NE(resultDigest(a), resultDigest(c));
    RunResult d = sampleResult();
    d.image_crc ^= 1;
    EXPECT_NE(resultDigest(a), resultDigest(d));
    RunResult e = sampleResult();
    e.energy.dram_nj = 1.5000001;
    EXPECT_NE(resultDigest(a), resultDigest(e));

    // The digest is a CRC of RunResult::toJson(false).dump(), and a
    // round trip through that document keeps it.
    RunResult back = RunResult::fromJson(a.toJson(false));
    EXPECT_EQ(resultDigest(back), resultDigest(a));

    EXPECT_EQ(hex32(0x0000abcd), "0000abcd");
    GpuConfig gpu;
    EXPECT_EQ(digestKey("ccs", SimConfig::evr(gpu), 20, 2, 3),
              "ccs/evr/t16/f20/w2/o3");
}

TEST(Seed, InputsAreAFunctionOfTheSeed)
{
    SeedInputs a = seedInputs(5, 12), b = seedInputs(5, 12);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.order, b.order);
    std::set<std::size_t> idx(a.order.begin(), a.order.end());
    EXPECT_EQ(idx.size(), 12u);
    EXPECT_EQ(*idx.rbegin(), 11u);
    EXPECT_EQ(seedInputs(kReferenceSeed, 4).offset, 0);
    EXPECT_NE(seedInputs(1, 12).order, seedInputs(2, 12).order);
}

TEST(Plans, WorkloadPlans)
{
    GpuConfig gpu;
    EXPECT_EQ(plan3D(gpu).size(), 12u);
    EXPECT_EQ(plan2D(gpu).size(), 28u);
    EXPECT_EQ(referenceConfig(plan3D(gpu)), "baseline");
    EXPECT_EQ(referenceConfig(plan2D(gpu)), "re");
    EXPECT_EQ(referenceConfig(planRegen(gpu)), "baseline");
}

TEST(Plans, RegenIsTheUnionOfTheTenBinaries)
{
    // The ten table/figure binaries declare, between them:
    //   ablation:        baseline re evr-reorder evr-filter evr z-prepass
    //   fig06, fig07:    baseline evr
    //   fig08 (3D only): baseline evr-reorder oracle-z
    //   fig09, fig11:    re evr baseline;  fig10: re evr
    //   sensitivity:     ccs wmw 300 x {baseline, evr at tiles 8/16/32}
    //   table1:          evr-reorder;      table2: nothing
    std::set<std::string> expected;
    for (const std::string &a : workloads::allAliases())
        for (const char *c : {"baseline", "re", "evr-reorder", "evr-filter",
                              "evr", "z-prepass"})
            expected.insert(a + "/" + c + "/t16");
    for (const std::string &a : workloads::aliases3D())
        expected.insert(a + "/oracle-z/t16");
    for (const char *a : {"ccs", "wmw", "300"})
        for (const char *t : {"/evr/t8", "/evr/t32"})
            expected.insert(std::string(a) + t);
    ASSERT_EQ(expected.size(), 132u);

    std::vector<RunRequest> plan = planRegen(GpuConfig{});
    std::set<std::string> got;
    for (const RunRequest &r : plan)
        got.insert(r.alias + "/" + r.config.name + "/t" +
                   std::to_string(r.config.gpu.tile_size));
    EXPECT_EQ(plan.size(), 132u); // no duplicates
    EXPECT_EQ(got, expected);
}
