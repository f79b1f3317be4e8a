/**
 * @file
 * Figure 9: percentage of tiles detected as equal to the previous frame
 * — baseline Rendering Elimination, the EVR-aided version, and an
 * oracle that counts every tile whose pixels truly did not change.
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Figure 9",
                     "redundant (equal) tiles detected: RE / EVR / oracle",
                     ctx.params);

    ctx.needForAllWorkloads({SimConfig::renderingElimination(ctx.gpu()),
                             SimConfig::evr(ctx.gpu()),
                             SimConfig::baseline(ctx.gpu())});
    ctx.prefetch();

    ReportTable table({"bench", "RE", "EVR", "oracle", "EVR-RE", "bar(EVR)"});
    std::vector<double> re_v, evr_v, oracle_v;

    for (const std::string &alias : ctx.aliases()) {
        RunResult re =
            ctx.runner.run(alias, SimConfig::renderingElimination(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));
        // The ground-truth equal-tile count is measured on the baseline
        // run (it renders everything and compares against the previous
        // frame's pixels).
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));

        double r = re.tilesSkippedRatio();
        double e = evr.tilesSkippedRatio();
        double o = base.tilesEqualOracleRatio();
        re_v.push_back(r);
        evr_v.push_back(e);
        oracle_v.push_back(o);

        table.addRow({alias, fmtPct(r), fmtPct(e), fmtPct(o),
                      fmtPct(e - r), bar(e, 1.0)});
    }

    table.print();
    std::printf("\naverages: RE %.1f%%, EVR %.1f%%, oracle %.1f%% "
                "(EVR detects %.1f%% more tiles than RE)\n",
                mean(re_v) * 100.0, mean(evr_v) * 100.0,
                mean(oracle_v) * 100.0, (mean(evr_v) - mean(re_v)) * 100.0);
    printPaperShape(
        "paper: EVR skips 54% of tiles on average, ~5% more than RE; "
        "largest gains where hidden geometry moves under covers "
        "(300/mst HUDs, wmw/hay menus, >10% extra there); oracle above "
        "both everywhere");
    return ctx.exitCode();
}
