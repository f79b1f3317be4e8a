/**
 * @file
 * Figure 11: execution time of RE and EVR normalized to the baseline
 * GPU, split into Geometry and Raster pipeline cycles — including the
 * geometry-side comparison between RE (pays signature combines for all
 * primitives) and EVR (skips combines for predicted-occluded ones but
 * pays LGT/FVP lookups).
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Figure 11",
                     "execution time of RE and EVR normalized to baseline",
                     ctx.params);

    ctx.needForAllWorkloads({SimConfig::baseline(ctx.gpu()),
                             SimConfig::renderingElimination(ctx.gpu()),
                             SimConfig::evr(ctx.gpu())});
    ctx.prefetch();

    ReportTable table({"bench", "RE", "RE-geom", "EVR", "EVR-geom",
                       "geom-delta"});
    std::vector<double> re_v, evr_v, geom_delta_v;

    for (const std::string &alias : ctx.aliases()) {
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        RunResult re =
            ctx.runner.run(alias, SimConfig::renderingElimination(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));

        double base_total = static_cast<double>(base.totalCycles());
        double re_ratio = re.totalCycles() / base_total;
        double evr_ratio = evr.totalCycles() / base_total;
        double re_geom = re.totals.geometry_cycles / base_total;
        double evr_geom = evr.totals.geometry_cycles / base_total;
        // Geometry-cycles change of EVR relative to RE (paper: -4% avg).
        double geom_delta =
            (static_cast<double>(evr.totals.geometry_cycles) -
             re.totals.geometry_cycles) /
            re.totals.geometry_cycles;

        re_v.push_back(re_ratio);
        evr_v.push_back(evr_ratio);
        geom_delta_v.push_back(geom_delta);

        table.addRow({alias, fmt(re_ratio), fmt(re_geom), fmt(evr_ratio),
                      fmt(evr_geom), fmtPct(geom_delta)});
    }

    table.print();
    std::printf("\naverages: RE %.2f, EVR %.2f of baseline time; EVR "
                "geometry cycles %.1f%% vs RE's\n",
                mean(re_v), mean(evr_v), mean(geom_delta_v) * 100.0);
    printPaperShape(
        "paper: EVR is faster than RE everywhere; skipping signature "
        "combines for occluded primitives reduces EVR's geometry time "
        "~4% below RE's (except hop, whose few primitives concentrate "
        "in few tiles); RE alone can lose time on low-redundancy 3D "
        "benchmarks (300/mst) where EVR still wins via reordering");
    return ctx.exitCode();
}
