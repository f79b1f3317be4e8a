/**
 * @file
 * Raster Pipeline implementation.
 */
#include "gpu/raster_pipeline.hpp"

#include <algorithm>

#include "common/crash_handler.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"
#include "gpu/invariant_auditor.hpp"
#include "gpu/rasterizer.hpp"
#include "gpu/reference_raster.hpp"

namespace evrsim {

namespace {

/**
 * Per-thread tile-rendering scratch: the on-chip tile buffers, reused
 * across every tile a thread renders so the steady-state hot path
 * performs no heap allocation.
 * Thread-local (rather than per-pipeline) because tile jobs from
 * several concurrent simulations can share one JobPool worker; every
 * buffer is fully re-initialized per tile, so reuse cannot leak state
 * between tiles, frames or simulations.
 */
struct TileScratch {
    std::vector<float> depth;
    std::vector<Rgba8> color;
    std::vector<int> owner;
    std::vector<char> contributed;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> blend_journal;
    std::vector<DisplayListEntry> order;
};

thread_local TileScratch t_scratch;

} // namespace

RasterPipeline::RasterPipeline(const GpuConfig &config, MemorySystem &mem,
                               ShaderCore &shader, const TimingModel &timing)
    : config_(config), mem_(mem), shader_(shader), timing_(timing)
{
}

RectI
RasterPipeline::tileRect(int tile) const
{
    int ts = config_.tile_size;
    int tx = tile % config_.tilesX();
    int ty = tile / config_.tilesX();
    RectI rect = {tx * ts, ty * ts, (tx + 1) * ts, (ty + 1) * ts};
    return rect.intersect({0, 0, config_.screen_width,
                           config_.screen_height});
}

void
RasterPipeline::depthPrepass(const RectI &rect, const Scene &scene,
                             const ParameterBuffer &pb,
                             const std::vector<DisplayListEntry> &order,
                             float clear_depth, std::vector<float> &depth,
                             FrameStats *charge, TileMemLog *log) const
{
    depth.assign(static_cast<std::size_t>(rect.area()), clear_depth);
    const int w = rect.width();

    // With charge == null this is Figure 8's idealization: it runs
    // functionally, costing no cycles, energy or memory traffic. With a
    // stats block it is the real Z-Prepass: rasterization, depth tests
    // and discard-shader evaluations are all paid a second time.
    FrameStats uncharged;
    FrameStats &ts = charge ? *charge : uncharged;

    for (const DisplayListEntry &e : order) {
        const ShadedPrimitive &prim = pb.prim(e.prim);
        if (!prim.state.depth_write)
            continue;
        if (charge)
            ++ts.prim_tile_rasterized;

        auto sink = [&](const Fragment &frag) {
                std::size_t li =
                    static_cast<std::size_t>(frag.y - rect.y0) * w +
                    (frag.x - rect.x0);
                if (prim.state.shaderDiscards()) {
                    // Discarding shaders must run even in a depth-only
                    // pass (the discard decides Z coverage).
                    float alpha = frag.color.w;
                    if (prim.state.texture >= 0) {
                        const Texture *tex =
                            scene.textures[prim.state.texture];
                        if (charge) {
                            ++ts.fragments_shaded;
                            FragmentShadeResult res = shader_.shadeFragment(
                                prim.state, frag.color, frag.uv, frag.x,
                                frag.y, ts, log);
                            alpha = res.discarded ? 0.0f : 1.0f;
                        } else {
                            alpha *= tex->sample(frag.uv.x, frag.uv.y).w;
                        }
                    }
                    if (alpha < 0.5f)
                        return;
                }
                if (prim.state.depth_test) {
                    if (charge) {
                        ++ts.early_z_tests;
                        ++ts.depth_buffer_accesses;
                    }
                    if (!(frag.depth < depth[li])) {
                        if (charge)
                            ++ts.early_z_kills;
                        return;
                    }
                }
                if (charge)
                    ++ts.depth_buffer_accesses;
                depth[li] = frag.depth;
        };
        Rasterizer::rasterize(prim, rect, ts, sink);
    }
}

void
RasterPipeline::renderTile(int tile, const Scene &scene,
                           const ParameterBuffer &pb, Framebuffer &fb,
                           const Framebuffer *prev_fb,
                           const RasterHooks &hooks, FrameStats &ts,
                           TileMemLog *log)
{
    ++ts.tiles_total;

    if (hooks.signature && hooks.signature->shouldSkipTile(tile, ts)) {
        // Rendering Elimination hit: the framebuffer already holds this
        // tile's colors from the previous frame.
        ++ts.tiles_skipped_re;
        if (hooks.tracker)
            hooks.tracker->tileSkipped(tile);
        if (prev_fb) {
            // A skipped tile is unchanged by construction.
            ++ts.tiles_equal_oracle;
        }
        // Audit the skip decision itself: the pixels left in place must
        // equal what rendering this frame's display list would produce.
        if (hooks.auditor && hooks.auditor->identityEnabled() &&
            hooks.auditor->shouldAuditTile(tile)) {
            ++ts.validate_tile_checks;
            RectI rect = tileRect(tile);
            std::vector<Rgba8> ref = renderTileReference(
                scene, pb, rect, pb.renderOrder(tile));
            bool same = true;
            for (int y = rect.y0; y < rect.y1 && same; ++y)
                for (int x = rect.x0; x < rect.x1; ++x)
                    if (fb.pixel(x, y) !=
                        ref[static_cast<std::size_t>(y - rect.y0) *
                                rect.width() +
                            (x - rect.x0)]) {
                        same = false;
                        break;
                    }
            if (!same) {
                hooks.auditor->reportTileMismatch(tile, ts);
                for (int y = rect.y0; y < rect.y1; ++y)
                    for (int x = rect.x0; x < rect.x1; ++x)
                        fb.setPixel(
                            x, y,
                            ref[static_cast<std::size_t>(y - rect.y0) *
                                    rect.width() +
                                (x - rect.x0)]);
                hooks.auditor->degradeTile(tile, ts);
            }
        }
        return;
    }
    ++ts.tiles_rendered;

    RectI rect = tileRect(tile);
    const int w = rect.width();
    const auto npix = static_cast<std::size_t>(rect.area());

    // Fetch the Display List through the Tile Cache.
    unsigned entry_bytes = DisplayListEntry::kBaseBytes;
    if (hooks.tracker)
        entry_bytes += DisplayListEntry::kLayerBytes;
    for (Addr addr : pb.entryAddrs(tile)) {
        if (log) {
            log->paramRead(addr, entry_bytes);
        } else {
            AccessResult r = mem_.parameterRead(addr, entry_bytes);
            ts.raster_mem_latency += r.latency;
        }
    }

    // On-chip tile buffers, from the thread's reusable scratch (every
    // one fully re-initialized here).
    const std::vector<DisplayListEntry> &order =
        pb.renderOrderInto(tile, t_scratch.order);

    std::vector<float> &depth = t_scratch.depth;
    if (hooks.oracle_z || hooks.z_prepass) {
        depthPrepass(rect, scene, pb, order, scene.clear_depth, depth,
                     hooks.z_prepass ? &ts : nullptr, log);
    } else {
        depth.assign(npix, scene.clear_depth);
    }
    std::vector<Rgba8> &color = t_scratch.color;
    color.assign(npix, scene.clear_color);
    /** Display-list position of the opaque fragment owning each pixel. */
    std::vector<int> &owner = t_scratch.owner;
    owner.assign(npix, -1);
    /** Ground-truth contribution per display-list position. */
    std::vector<char> &contributed = t_scratch.contributed;
    contributed.assign(order.size(), 0);
    /** Journal of translucent blends: (pixel, position). A translucent
     *  blend only reaches the final image if no opaque write follows at
     *  that pixel, resolved against the final owner at end of tile. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> &blend_journal =
        t_scratch.blend_journal;
    blend_journal.clear();

    if (hooks.tracker)
        hooks.tracker->tileStart(tile, w, rect.height(), ts);

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const DisplayListEntry &e = order[pos];
        const ShadedPrimitive &prim = pb.prim(e.prim);

        if (log) {
            log->paramRead(prim.pb_addr, ShadedPrimitive::kAttrBytes);
        } else {
            AccessResult r = mem_.parameterRead(
                prim.pb_addr, ShadedPrimitive::kAttrBytes);
            ts.raster_mem_latency += r.latency;
        }
        ++ts.prim_tile_rasterized;

        const RenderState &state = prim.state;
        const bool is_woz = state.depth_write;
        const bool early_capable = state.depth_test &&
                                   !state.shaderDiscards();
        // Preloaded final depths (oracle or Z-Prepass): Z-writing
        // primitives must pass on equality or the surviving fragment
        // kills itself.
        const bool leq = (hooks.oracle_z || hooks.z_prepass) &&
                         state.depth_write;

        auto sink = [&](const Fragment &frag) {
            std::size_t li = static_cast<std::size_t>(frag.y - rect.y0) * w +
                             (frag.x - rect.x0);

            if (early_capable) {
                ++ts.early_z_tests;
                ++ts.depth_buffer_accesses;
                bool pass = leq ? frag.depth <= depth[li]
                                : frag.depth < depth[li];
                if (!pass) {
                    ++ts.early_z_kills;
                    return;
                }
                if (state.depth_write) {
                    depth[li] = frag.depth;
                    ++ts.depth_buffer_accesses;
                }
            }

            ++ts.fragments_shaded;
            FragmentShadeResult res = shader_.shadeFragment(
                state, frag.color, frag.uv, frag.x, frag.y, ts, log);
            if (res.discarded)
                return;

            if (!early_capable && state.depth_test) {
                // Late Depth Test (shader may have discarded fragments,
                // so the Z Buffer could not be updated early).
                ++ts.late_z_tests;
                ++ts.depth_buffer_accesses;
                bool pass = leq ? frag.depth <= depth[li]
                                : frag.depth < depth[li];
                if (!pass) {
                    ++ts.late_z_kills;
                    return;
                }
                if (state.depth_write) {
                    depth[li] = frag.depth;
                    ++ts.depth_buffer_accesses;
                }
            }

            // Blending.
            ++ts.blend_ops;
            Vec4 out;
            bool opaque;
            if (state.blend == BlendMode::Opaque) {
                out = res.color;
                out.w = 1.0f;
                opaque = true;
                ++ts.color_buffer_accesses; // write
            } else {
                Vec4 dst = toVec4(color[li]);
                float a = clampf(res.color.w, 0.0f, 1.0f);
                out = res.color * a + dst * (1.0f - a);
                out.w = a + dst.w * (1.0f - a);
                opaque = res.color.w >= 1.0f;
                ts.color_buffer_accesses += 2; // read + write
            }
            color[li] = toRgba8(out);

            if (opaque) {
                owner[li] = static_cast<int>(pos);
                if (hooks.tracker) {
                    hooks.tracker->onOpaqueWrite(tile, frag.x - rect.x0,
                                                 frag.y - rect.y0, e.layer,
                                                 is_woz, ts);
                }
            } else {
                blend_journal.emplace_back(static_cast<std::uint32_t>(li),
                                           static_cast<std::uint32_t>(pos));
            }
        };
        Rasterizer::rasterize(prim, rect, ts, sink);
    }

    // Ground truth: a primitive contributed iff it owns a pixel's base
    // color or blended into the pixel after its final opaque write.
    for (std::size_t li = 0; li < npix; ++li) {
        if (owner[li] >= 0)
            contributed[static_cast<std::size_t>(owner[li])] = 1;
    }
    for (const auto &[li, pos] : blend_journal) {
        if (static_cast<int>(pos) > owner[li])
            contributed[pos] = 1;
    }

    if (hooks.tracker) {
        hooks.tracker->tileEnd(tile, depth.data(),
                               static_cast<int>(npix), ts);
        if (hooks.auditor)
            hooks.auditor->checkFvpConservative(
                tile, depth.data(), static_cast<int>(npix), ts);
    }

    // Report visible mispredictions: an excluded primitive that reached
    // the final pixels poisons the tile's signature (see DESIGN.md 4.1).
    if (hooks.signature) {
        for (std::size_t pos = 0; pos < order.size(); ++pos) {
            if (order[pos].predicted_occluded && contributed[pos]) {
                hooks.signature->tileMispredicted(tile);
                if (hooks.auditor)
                    hooks.auditor->checkMispredictionPoisoned(tile, ts);
                break;
            }
        }
    }

    // Sampled image-identity audit: the tile's pixels must match a
    // submission-order reference render. On mismatch the reference
    // pixels are shipped (and the tile's EVR/RE state degraded) so a
    // permissive run still produces the correct image.
    if (hooks.auditor && hooks.auditor->identityEnabled() &&
        hooks.auditor->shouldAuditTile(tile)) {
        ++ts.validate_tile_checks;
        std::vector<Rgba8> ref =
            renderTileReference(scene, pb, rect, order);
        if (ref != color) {
            hooks.auditor->reportTileMismatch(tile, ts);
            color = std::move(ref);
            hooks.auditor->degradeTile(tile, ts);
        }
    }

    // Table I casuistry and prediction quality, per (primitive, tile).
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        bool pred_occl = order[pos].predicted_occluded;
        bool act_occl = !contributed[pos];
        int scenario;
        if (!pred_occl && !act_occl)
            scenario = static_cast<int>(Casuistry::VisibleVisible);
        else if (!pred_occl && act_occl)
            scenario = static_cast<int>(Casuistry::VisibleOccluded);
        else if (pred_occl && act_occl)
            scenario = static_cast<int>(Casuistry::OccludedOccluded);
        else
            scenario = static_cast<int>(Casuistry::OccludedVisible);
        ++ts.casuistry[scenario];
        if (pred_occl) {
            if (act_occl)
                ++ts.pred_occluded_correct;
            else
                ++ts.pred_occluded_wrong;
        }
    }

    // Flush the Color Buffer to the framebuffer in main memory, one
    // cache-line-sized row segment at a time.
    for (int y = rect.y0; y < rect.y1; ++y) {
        Addr row_addr = AddressSpace::framebufferAddr(rect.x0, y,
                                                      config_.screen_width);
        if (log)
            log->framebufferWrite(row_addr, static_cast<unsigned>(w) * 4);
        else
            mem_.framebufferWrite(row_addr, static_cast<unsigned>(w) * 4);
    }
    ts.tile_flush_bytes += npix * 4;

    for (int y = rect.y0; y < rect.y1; ++y)
        fb.writeRow(rect.x0, y,
                    &color[static_cast<std::size_t>(y - rect.y0) * w], w);

    if (prev_fb && fb.rectEquals(*prev_fb, rect))
        ++ts.tiles_equal_oracle;
}

void
RasterPipeline::replayMemLog(const TileMemLog &log, FrameStats &ts)
{
    for (const TileMemAccess &a : log.accesses()) {
        switch (a.kind) {
          case TileMemAccess::Kind::ParamRead:
            ts.raster_mem_latency +=
                mem_.parameterRead(a.addr, a.bytes).latency;
            break;
          case TileMemAccess::Kind::TextureFetch:
            ts.raster_mem_latency +=
                mem_.textureFetch(a.unit, a.addr, a.bytes).latency;
            break;
          case TileMemAccess::Kind::FramebufferWrite:
            mem_.framebufferWrite(a.addr, a.bytes);
            break;
        }
    }
}

void
RasterPipeline::run(const Scene &scene, const ParameterBuffer &pb,
                    Framebuffer &fb, const Framebuffer *prev_fb,
                    const RasterHooks &hooks, FrameStats &stats)
{
    shader_.bindTextures(&scene.textures);

    int tiles = config_.tileCount();
    EVRSIM_ASSERT(pb.tileCount() == tiles);

    if (tile_pool_ == nullptr || tile_jobs_ <= 1) {
        // Serial reference path: tiles issue their memory accesses
        // directly, interleaved with rendering.
        for (int tile = 0; tile < tiles; ++tile) {
            crashContextSetTile(tile);
            // Per-tile span: the hottest category, so it honours the
            // EVRSIM_TRACE tile/N sampling filter (a disabled or
            // sampled-out span is one relaxed load + one branch).
            TraceSpan tile_span(TraceCat::Tile, "tile");
            tile_span.setValue(tile);
            FrameStats ts;
            renderTile(tile, scene, pb, fb, prev_fb, hooks, ts, nullptr);
            ts.raster_cycles = timing_.tileCycles(ts);
            stats.accumulate(ts);
        }
        crashContextSetTile(-1);
        return;
    }

    // Tile-parallel path. Phase 1: render tiles concurrently — the
    // compute is pure per tile (disjoint framebuffer rects, per-tile
    // hook state), with each tile recording the ordered memory accesses
    // it would have issued. Contiguous chunks keep some locality; a few
    // chunks per worker lets the pool load-balance uneven tiles.
    std::vector<FrameStats> tile_stats(static_cast<std::size_t>(tiles));
    std::vector<TileMemLog> logs(static_cast<std::size_t>(tiles));

    int chunks = std::min(tiles, tile_jobs_ * 4);
    int chunk_size = (tiles + chunks - 1) / chunks;
    std::vector<std::function<void()>> jobs;
    jobs.reserve(static_cast<std::size_t>(chunks));
    for (int begin = 0; begin < tiles; begin += chunk_size) {
        int end = std::min(begin + chunk_size, tiles);
        jobs.emplace_back([this, begin, end, &scene, &pb, &fb, prev_fb,
                           &hooks, &tile_stats, &logs] {
            for (int tile = begin; tile < end; ++tile) {
                crashContextSetTile(tile);
                TraceSpan tile_span(TraceCat::Tile, "tile");
                tile_span.setValue(tile);
                renderTile(tile, scene, pb, fb, prev_fb, hooks,
                           tile_stats[static_cast<std::size_t>(tile)],
                           &logs[static_cast<std::size_t>(tile)]);
            }
            crashContextSetTile(-1);
        });
    }
    tile_pool_->runBatch(std::move(jobs));
    crashContextSetTile(-1);

    // Phase 2: replay every tile's access log serially in tile order.
    // The MemorySystem sees exactly the serial renderer's global access
    // stream, so cache contents, hit rates and latencies all match;
    // per-tile stats then merge in tile order (raster_cycles only after
    // the replayed latencies landed).
    for (int tile = 0; tile < tiles; ++tile) {
        FrameStats &ts = tile_stats[static_cast<std::size_t>(tile)];
        replayMemLog(logs[static_cast<std::size_t>(tile)], ts);
        ts.raster_cycles = timing_.tileCycles(ts);
        stats.accumulate(ts);
    }
}

} // namespace evrsim
