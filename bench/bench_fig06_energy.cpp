/**
 * @file
 * Figure 6: energy consumption of the full EVR proposal normalized to
 * the baseline GPU, per benchmark, with the paper's overhead breakdown
 * (layer-identifier Parameter Buffer writes, EVR hardware, RE LUTs).
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Figure 6",
                     "GPU+memory energy of EVR normalized to baseline",
                     ctx.params);

    ctx.needForAllWorkloads(
        {SimConfig::baseline(ctx.gpu()), SimConfig::evr(ctx.gpu())});
    ctx.prefetch();

    ReportTable table({"bench", "EVR/base", "layer-wr", "EVR-hw", "RE-hw",
                       "bar"});
    std::vector<double> ratios;

    for (const std::string &alias : ctx.aliases()) {
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));

        double base_total = base.totalEnergyNj();
        double ratio = evr.totalEnergyNj() / base_total;
        ratios.push_back(ratio);

        table.addRow({alias, fmt(ratio),
                      fmtPct(evr.energy.layer_writes_nj / base_total, 2),
                      fmtPct(evr.energy.evr_hardware_nj / base_total, 2),
                      fmtPct(evr.energy.re_hardware_nj / base_total, 2),
                      bar(ratio, 1.0)});
    }

    table.print();
    double avg = mean(ratios);
    std::printf("\naverage normalized energy: %.2f  (energy saving %.0f%%)\n",
                avg, (1.0 - avg) * 100.0);
    printPaperShape(
        "paper reports 43% average energy saving, savings in every "
        "benchmark (max >80% for cde/dpe); overheads: ~2.1% layer "
        "writes, ~1.2% EVR+RE hardware");
    return ctx.exitCode();
}
