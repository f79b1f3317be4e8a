/**
 * @file
 * Sensitivity study (beyond the paper): how the tile size — the paper
 * fixes 16x16, which also sizes the LGT/FVP Table (one entry per tile)
 * and the Layer Buffer — trades off EVR's effectiveness.
 *
 * Smaller tiles give the FVP finer granularity (more primitives are
 * "entirely behind" a tile's farthest visible point) but multiply the
 * binning work and table sizes; larger tiles dilute both RE and EVR
 * because one changing primitive dirties a bigger screen area.
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Sensitivity",
                     "EVR vs tile size (paper fixes 16x16)", ctx.params);

    const int kTileSizes[] = {8, 16, 32};
    // One high-redundancy 2D, one popup 2D, one 3D-with-HUD benchmark.
    const char *kAliases[] = {"ccs", "wmw", "300"};

    for (const char *alias : kAliases) {
        ctx.need(alias, SimConfig::baseline(ctx.gpu()));
        for (int ts : kTileSizes) {
            GpuConfig gpu = ctx.gpu();
            gpu.tile_size = ts;
            ctx.need(alias, SimConfig::evr(gpu));
        }
    }
    ctx.prefetch();

    ReportTable table({"bench", "tile", "skip%", "cycles/base16",
                       "fvp-entries"});

    for (const std::string &alias : ctx.aliases()) {
        // Reference: baseline at the paper's 16x16.
        RunResult base16 =
            ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        double ref = static_cast<double>(base16.totalCycles());

        for (int ts : kTileSizes) {
            GpuConfig gpu = ctx.gpu();
            gpu.tile_size = ts;
            RunResult evr = ctx.runner.run(alias, SimConfig::evr(gpu));
            table.addRow({alias, std::to_string(ts) + "x" +
                                     std::to_string(ts),
                          fmtPct(evr.tilesSkippedRatio()),
                          fmt(evr.totalCycles() / ref),
                          std::to_string(gpu.tileCount())});
        }
    }

    table.print();
    printPaperShape(
        "16x16 balances skip granularity against FVP Table size and "
        "binning cost; 8x8 skips a larger screen fraction at 4x the "
        "table entries, 32x32 loses skips because any change dirties "
        "4x the area — consistent with the paper's choice");
    return ctx.exitCode();
}
