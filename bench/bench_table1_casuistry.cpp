/**
 * @file
 * Table I: the visibility casuistry of primitives across consecutive
 * frames, measured per (primitive, tile) pair on rendered tiles.
 * "Frame i" visibility is the FVP-based prediction (resolved from the
 * previous frame), "frame i+1" is the rendered ground truth — scenario
 * C (occluded -> occluded) is the case EVR's signature filtering
 * exploits; scenario D (occluded -> visible) is the safety-critical
 * misprediction that must never corrupt output.
 */
#include <cstdio>

#include "bench_common.hpp"

using namespace evrsim;
using namespace evrsim::bench;

int
main()
{
    BenchContext ctx;
    printBenchHeader("Table I",
                     "visibility casuistry across frames (per prim-tile "
                     "pair, EVR prediction vs rendered ground truth)",
                     ctx.params);

    ctx.needForAllWorkloads({SimConfig::evrReorderOnly(ctx.gpu())});
    ctx.prefetch();

    ReportTable table({"bench", "A vis->vis", "B vis->occ", "C occ->occ",
                       "D occ->vis", "pred-precision"});

    std::uint64_t grand[4] = {0, 0, 0, 0};

    for (const std::string &alias : ctx.aliases()) {
        // Reorder-only: every tile renders, so ground truth exists for
        // every pair (RE-skipped tiles have no per-frame ground truth).
        RunResult r =
            ctx.runner.run(alias, SimConfig::evrReorderOnly(ctx.gpu()));

        std::uint64_t total = 0;
        for (int s = 0; s < 4; ++s) {
            total += r.totals.casuistry[s];
            grand[s] += r.totals.casuistry[s];
        }
        if (total == 0)
            total = 1;

        std::uint64_t pred_occl = r.totals.pred_occluded_correct +
                                  r.totals.pred_occluded_wrong;
        double precision =
            pred_occl == 0 ? 1.0
                           : static_cast<double>(
                                 r.totals.pred_occluded_correct) /
                                 pred_occl;

        table.addRow(
            {alias,
             fmtPct(static_cast<double>(r.totals.casuistry[0]) / total),
             fmtPct(static_cast<double>(r.totals.casuistry[1]) / total),
             fmtPct(static_cast<double>(r.totals.casuistry[2]) / total),
             fmtPct(static_cast<double>(r.totals.casuistry[3]) / total),
             fmtPct(precision)});
    }

    table.print();

    std::uint64_t g = grand[0] + grand[1] + grand[2] + grand[3];
    if (g == 0)
        g = 1;
    std::printf("\nsuite totals: A %.1f%%  B %.1f%%  C %.1f%%  D %.1f%%\n",
                100.0 * grand[0] / g, 100.0 * grand[1] / g,
                100.0 * grand[2] / g, 100.0 * grand[3] / g);
    printPaperShape(
        "scenario C is the RE improvement (hidden primitives whose "
        "changes are ignored); scenario D must be rare and is rendered "
        "safely (signature mismatch or poisoning forces a re-render)");
    return ctx.exitCode();
}
