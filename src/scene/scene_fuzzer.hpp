/**
 * @file
 * Deterministic scene corruption for the robustness harness.
 *
 * The fuzzer injects the malformed-input classes the ingestion
 * validator must catch: NaN/Inf transforms and attributes, null or
 * un-uploaded meshes, out-of-range indices and texture slots, broken
 * clear depths. Every corruption is a pure function of (seed, key), so
 * corrupting the same frame of the same workload produces the same
 * damage regardless of which configuration renders it — the property
 * that lets tests assert bit-identical final images between a fuzzed
 * baseline run and a fuzzed EVR run.
 *
 * Meshes are never mutated in place (they are shared, possibly across
 * concurrently-simulated configurations): a corrupted command is
 * repointed at a private clone owned by the fuzzer, which must outlive
 * rendering of the corrupted scene.
 */
#ifndef EVRSIM_SCENE_SCENE_FUZZER_HPP
#define EVRSIM_SCENE_SCENE_FUZZER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scene/scene.hpp"

namespace evrsim {

/** Seeded scene mutator (SplitMix64 decisions via mix64, common/rng.hpp). */
class SceneFuzzer
{
  public:
    explicit SceneFuzzer(std::uint64_t seed) : seed_(seed) {}

    /** Number of distinct corruption kinds corruptScene() can apply. */
    static constexpr int kNumCorruptions = 8;

    /**
     * Apply one corruption to @p scene, chosen deterministically by
     * (seed, @p key). No-op on a scene without commands (returns "").
     * @return a short description of the damage, for logging/asserts.
     */
    std::string corruptScene(Scene &scene, std::uint64_t key);

  private:
    std::uint64_t seed_;
    /** Clones backing corrupted commands; must outlive their scenes. */
    std::vector<std::unique_ptr<Mesh>> owned_meshes_;
};

} // namespace evrsim

#endif // EVRSIM_SCENE_SCENE_FUZZER_HPP
