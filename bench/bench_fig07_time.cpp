/**
 * @file
 * Figure 7: execution time of the full EVR proposal normalized to the
 * baseline GPU, split into Geometry and Raster pipeline cycles.
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Figure 7",
                     "execution time of EVR normalized to baseline "
                     "(geometry/raster split)",
                     ctx.params);

    ctx.needForAllWorkloads(
        {SimConfig::baseline(ctx.gpu()), SimConfig::evr(ctx.gpu())});
    ctx.prefetch();

    ReportTable table(
        {"bench", "EVR/base", "geom", "raster", "geom-share", "bar"});
    std::vector<double> ratios;

    for (const std::string &alias : ctx.aliases()) {
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));

        double base_total = static_cast<double>(base.totalCycles());
        double geom = evr.totals.geometry_cycles / base_total;
        double raster = evr.totals.raster_cycles / base_total;
        double ratio = geom + raster;
        ratios.push_back(ratio);

        table.addRow({alias, fmt(ratio), fmt(geom), fmt(raster),
                      fmtPct(geom / ratio), bar(ratio, 1.0)});
    }

    table.print();
    double avg = mean(ratios);
    std::printf("\naverage normalized time: %.2f  (speed-up %.0f%% time "
                "reduction)\n",
                avg, (1.0 - avg) * 100.0);
    printPaperShape(
        "paper reports 39% average execution-time reduction, gains in "
        "every benchmark (max >70% for ccs/cde/dpe); geometry overhead "
        "of signatures ~0.5% of total");
    return ctx.exitCode();
}
