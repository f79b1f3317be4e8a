/**
 * @file
 * Ablation: how much each half of EVR contributes — Algorithm 1
 * reordering alone (no RE), signature filtering alone (RE + filter, no
 * reorder), and the full technique — relative to baseline and RE.
 * The paper evaluates the two optimizations together; this bench
 * separates the design choices DESIGN.md calls out.
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Ablation",
                     "cycles normalized to baseline: RE / reorder-only / "
                     "filter-only / full EVR",
                     ctx.params);

    ctx.needForAllWorkloads(
        {SimConfig::baseline(ctx.gpu()),
         SimConfig::renderingElimination(ctx.gpu()),
         SimConfig::evrReorderOnly(ctx.gpu()),
         SimConfig::evrFilterOnly(ctx.gpu()), SimConfig::evr(ctx.gpu()),
         SimConfig::zPrepass(ctx.gpu())});
    ctx.prefetch();

    ReportTable table({"bench", "RE", "reorder", "filter", "full-EVR",
                       "z-prepass"});
    std::vector<double> re_v, ro_v, fo_v, full_v, zp_v;

    for (const std::string &alias : ctx.aliases()) {
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        RunResult re =
            ctx.runner.run(alias, SimConfig::renderingElimination(ctx.gpu()));
        RunResult ro =
            ctx.runner.run(alias, SimConfig::evrReorderOnly(ctx.gpu()));
        RunResult fo =
            ctx.runner.run(alias, SimConfig::evrFilterOnly(ctx.gpu()));
        RunResult full = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));
        RunResult zp = ctx.runner.run(alias, SimConfig::zPrepass(ctx.gpu()));

        double b = static_cast<double>(base.totalCycles());
        re_v.push_back(re.totalCycles() / b);
        ro_v.push_back(ro.totalCycles() / b);
        fo_v.push_back(fo.totalCycles() / b);
        full_v.push_back(full.totalCycles() / b);
        zp_v.push_back(zp.totalCycles() / b);

        table.addRow({alias, fmt(re_v.back()), fmt(ro_v.back()),
                      fmt(fo_v.back()), fmt(full_v.back()),
                      fmt(zp_v.back())});
    }

    table.print();
    std::printf("\naverages: RE %.2f, reorder-only %.2f, filter-only %.2f, "
                "full EVR %.2f, z-prepass %.2f\n",
                mean(re_v), mean(ro_v), mean(fo_v), mean(full_v),
                mean(zp_v));
    printPaperShape(
        "expected: reordering alone helps 3D (overshading) but cannot "
        "skip tiles; filtering alone recovers RE's losses on hidden "
        "motion; the full technique dominates both (the two halves "
        "address disjoint waste); the real Z-Prepass pays its extra "
        "pass — the paper's argument for EVR needing no prepass");
    return ctx.exitCode();
}
