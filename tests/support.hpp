/**
 * @file
 * Shared helpers for the pipeline test suites.
 */
#ifndef EVRSIM_TESTS_SUPPORT_HPP
#define EVRSIM_TESTS_SUPPORT_HPP

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "driver/gpu_simulator.hpp"
#include "driver/workload.hpp"
#include "gpu/primitive.hpp"
#include "gpu/rasterizer.hpp"
#include "scene/camera.hpp"
#include "scene/scene_fuzzer.hpp"

namespace evrsim {
namespace test {

/** Build a screen-space primitive directly (bypassing geometry). */
inline ShadedPrimitive
screenTriangle(Vec2 a, Vec2 b, Vec2 c, float depth = 0.5f,
               Vec4 color = {1, 1, 1, 1})
{
    ShadedPrimitive prim;
    prim.v[0] = {a, depth, 1.0f, color, {0, 0}};
    prim.v[1] = {b, depth, 1.0f, color, {1, 0}};
    prim.v[2] = {c, depth, 1.0f, color, {0, 1}};
    prim.updateZNear();
    return prim;
}

/** Collect all fragments a primitive produces inside @p bounds. */
inline std::vector<Fragment>
collectFragments(const ShadedPrimitive &prim, const RectI &bounds)
{
    FrameStats stats;
    std::vector<Fragment> out;
    Rasterizer::rasterize(prim, bounds, stats,
                          [&](const Fragment &f) { out.push_back(f); });
    return out;
}

/** Small GPU configuration for fast pipeline tests. */
inline GpuConfig
tinyGpu(int width = 64, int height = 48)
{
    GpuConfig gpu;
    gpu.screen_width = width;
    gpu.screen_height = height;
    return gpu;
}

/**
 * A screen-space quad draw: two triangles covering the pixel rectangle
 * [x, x+w) x [y, y+h) at depth z, submitted to a 2D-camera scene.
 */
inline DrawCommand &
submitRect(Scene &scene, const Mesh *quad, float x, float y, float w,
           float h, float z, const RenderState &state)
{
    Mat4 m = Mat4::translate({x + w * 0.5f, y + h * 0.5f, z}) *
             Mat4::scale({w, h, 1.0f});
    return scene.submit(quad, m, state);
}

/**
 * FNV-1a over a string, for keying per-workload fault decisions.
 * std::hash<std::string> is implementation-defined; FNV-1a keeps every
 * string -> decision mapping stable across standard libraries.
 */
inline std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Workload decorator that corrupts every frame with SceneFuzzer before
 * the simulator sees it: the scene fault site, injected through the
 * WorkloadFactory seam. The damage is keyed by (alias, absolute frame)
 * only, so every configuration of a workload sees identical corruption
 * and a corrupted EVR run can be compared with a corrupted baseline
 * bit for bit. The fuzzer's mesh clones live as long as the decorator,
 * which outlives the run rendering its frames.
 */
class CorruptingWorkload : public Workload
{
  public:
    CorruptingWorkload(std::unique_ptr<Workload> inner, std::string alias,
                       std::uint64_t seed)
        : inner_(std::move(inner)), alias_key_(fnv1a64(alias)),
          fuzzer_(seed)
    {
    }

    Info info() const override { return inner_->info(); }

    void setup(GpuSimulator &sim) override { inner_->setup(sim); }

    Scene
    frame(int index) override
    {
        Scene scene = inner_->frame(index);
        fuzzer_.corruptScene(
            scene, mix64(alias_key_ ^ static_cast<std::uint64_t>(index)));
        return scene;
    }

  private:
    std::unique_ptr<Workload> inner_;
    std::uint64_t alias_key_;
    SceneFuzzer fuzzer_;
};

/**
 * @p inner with the workloads of @p corrupted aliases wrapped in a
 * CorruptingWorkload seeded with @p seed; other aliases pass through.
 */
inline WorkloadFactory
corruptingFactory(WorkloadFactory inner, std::set<std::string> corrupted,
                  std::uint64_t seed)
{
    return [inner = std::move(inner), corrupted = std::move(corrupted),
            seed](const std::string &alias, int w,
                  int h) -> std::unique_ptr<Workload> {
        std::unique_ptr<Workload> wl = inner(alias, w, h);
        if (wl && corrupted.count(alias))
            return std::make_unique<CorruptingWorkload>(std::move(wl),
                                                        alias, seed);
        return wl;
    };
}

} // namespace test
} // namespace evrsim

#endif // EVRSIM_TESTS_SUPPORT_HPP
