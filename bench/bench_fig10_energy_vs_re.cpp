/**
 * @file
 * Figure 10: energy consumption of EVR normalized to baseline Rendering
 * Elimination, with the EVR-specific overheads grouped.
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Figure 10", "energy of EVR normalized to RE",
                     ctx.params);

    ctx.needForAllWorkloads({SimConfig::renderingElimination(ctx.gpu()),
                             SimConfig::evr(ctx.gpu())});
    ctx.prefetch();

    ReportTable table({"bench", "EVR/RE", "EVR-overheads", "bar"});
    std::vector<double> ratios;

    for (const std::string &alias : ctx.aliases()) {
        RunResult re =
            ctx.runner.run(alias, SimConfig::renderingElimination(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));

        double re_total = re.totalEnergyNj();
        double ratio = evr.totalEnergyNj() / re_total;
        double overhead = (evr.energy.evr_hardware_nj +
                           evr.energy.layer_writes_nj) /
                          re_total;
        ratios.push_back(ratio);
        table.addRow({alias, fmt(ratio), fmtPct(overhead, 2),
                      bar(ratio, 1.0)});
    }

    table.print();
    double avg = mean(ratios);
    std::printf("\naverage EVR energy relative to RE: %.2f (%.0f%% saving "
                "over RE)\n",
                avg, (1.0 - avg) * 100.0);
    printPaperShape(
        "paper reports ~10% average energy reduction over baseline RE; "
        "EVR's extra structures (LGT/Layer Buffer/FVP Table, layer "
        "writes) cost ~1-2%, more than offset by extra skipped tiles "
        "and Early-Z improvements");
    return ctx.exitCode();
}
