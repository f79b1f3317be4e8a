/**
 * @file
 * simbench: end-to-end and per-layer benchmark of the simulator.
 *
 *   simbench --workload <sim-3d|sim-2d|sim-3d-tiles|regen> --seed <n>
 *            --seconds <s> --trace <0|1> --digests <reference file>
 *            --work-dir <scratch dir inside the checkout>
 *   simbench --write-digests <file> --work-dir <dir>
 *
 * Every workload is a plan of (alias, config) pairs plus its tile
 * parallelism. A run is a series of identical rounds; each round
 * measures the phases below, each followed by a calibration point
 * against the reference kernels:
 *
 *  1. set-up: workloads::make, GpuSimulator construction and
 *     Workload::setup for every pair, summed per repetition;
 *  2. regeneration through ExperimentRunner at one worker per core, in
 *     declaration order: cold passes into an empty cache directory, each
 *     followed by warm passes of fresh runners that must serve every
 *     entry from disk. The cold results also give the simulated metrics;
 *  3. (sim-* only) a frame-loop pass: every pair renders its frame
 *     window directly on a GpuSimulator, one simulation at a time, each
 *     renderFrame timed.
 *
 * The seed picks the frame-window offset and the order in which the
 * set-up and the frame loop visit the pairs. Every result is checked:
 * its digest against the reference table (reference seed only) and
 * against earlier rounds of the same run, and the baseline, RE and EVR
 * configs of an alias must produce the same final image.
 *
 * The last line of standard output is the JSON result; the lines before
 * it give every metric with its unit and sample count, and the host
 * fingerprint.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if __has_include("gpu/raster_kernels.hpp")
#include "gpu/raster_kernels.hpp"
#define SIMBENCH_HAS_SIMD_KERNELS 1
#endif

#include "bench_lib.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"
#include "driver/experiment.hpp"
#include "driver/gpu_simulator.hpp"
#include "driver/json.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;
using namespace simbench;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

constexpr int kWidth = 608;
constexpr int kHeight = 384;

/** Rounds per untraced run, at least. */
constexpr int kMinRounds = 3;

// ---------------------------------------------------------- calibration

int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The reference kernels: random read-modify-writes plus integer and
 * floating-point work, the mix of cache misses and arithmetic of the
 * simulator's per-fragment path, over 64 KiB (cache-resident, 3M steps)
 * and over 16 MiB (mostly DRAM, 1M steps). They are the benchmark's own
 * code, so a change to the simulator never changes them.
 *
 * On a shared host the same simulator work takes up to twice as long in
 * slow spells lasting from seconds to minutes, and the kernels slow with
 * it. End-to-end host times are therefore reported at the kernels'
 * nominal speed: measured time x kCalNominalMs / the kernels' time
 * around the phase. Every measured phase ends with a calibration point,
 * so each phase lies between two points; a phase's factor is the
 * geometric mean of the points before and after it. A point runs each
 * kernel kCalRuns times on one core and takes the geometric mean of the
 * medians. Tile-parallel workloads also run each kernel on every core
 * at once, kCalRuns times, and fold those medians into the mean: a
 * tile-parallel frame waits for its slowest core, and so does a kernel
 * run on every core.
 *
 * Measured on a 4-vCPU host over 20 runs, as the standard deviation of
 * the log of a phase's time across its repetitions: regeneration passes
 * of independent jobs 4-7% raw and 6-7% calibrated on one core (a
 * regeneration series of two minutes: 17% raw, 8% calibrated); the
 * serial frame loop 6-9% raw, 6-7% calibrated on one core, 10-15% with
 * the every-core kernels; the tile-parallel frame loop 17% raw, 11%
 * calibrated on one core, 8% with the every-core kernels folded in.
 */
constexpr double kCalNominalMs = 10.0;
constexpr int kCalRuns = 3;

void
calibrationKernel(std::vector<std::uint32_t> &buf, std::uint32_t steps)
{
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t s = 0;
    double acc = 0.0;
    for (std::uint32_t i = 0; i < steps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &v = buf[x & (buf.size() - 1)];
        v += s;
        s = v * 2654435761u + i;
        acc += static_cast<double>(s & 1023) * 0.5;
    }
    volatile double sink = acc;
    (void)sink;
}

/** Calibration points, and the kernel samples they took. */
class Calibration
{
  public:
    /** @p threads > 1: points also run the kernels on that many threads
     *  at once. */
    explicit Calibration(int threads)
        : small_(static_cast<std::size_t>(threads),
                 std::vector<std::uint32_t>(std::size_t{1} << 14)),
          large_(static_cast<std::size_t>(threads),
                 std::vector<std::uint32_t>(std::size_t{1} << 22))
    {
    }

    /** Take a point. Returns the factor of the phase since the previous
     *  point: divide the phase's measured time by it. */
    double
    point()
    {
        double log_sum = std::log(median(runs(1, false, &small_ms_))) +
                         std::log(median(runs(1, true, &large_ms_)));
        int n = 2;
        if (small_.size() > 1) {
            log_sum += std::log(median(runs(small_.size(), false, nullptr))) +
                       std::log(median(runs(large_.size(), true, nullptr)));
            n += 2;
        }
        double p = std::exp(log_sum / n) / kCalNominalMs;
        double f = last_ > 0.0 ? std::sqrt(last_ * p) : p;
        last_ = p;
        return f;
    }

    const std::vector<double> &smallSamples() const { return small_ms_; }
    const std::vector<double> &largeSamples() const { return large_ms_; }

  private:
    /** kCalRuns wall times of one kernel on @p threads threads at once,
     *  also appended to @p record if given. */
    std::vector<double>
    runs(std::size_t threads, bool large, std::vector<double> *record)
    {
        std::vector<std::vector<std::uint32_t>> &bufs = large ? large_ : small_;
        const std::uint32_t steps = large ? 1000000 : 3000000;
        std::vector<double> ms;
        for (int i = 0; i < kCalRuns; ++i) {
            auto t0 = Clock::now();
            std::vector<std::thread> others;
            for (std::size_t t = 1; t < threads; ++t)
                others.emplace_back(calibrationKernel, std::ref(bufs[t]),
                                    steps);
            calibrationKernel(bufs[0], steps);
            for (std::thread &t : others)
                t.join();
            ms.push_back(msSince(t0));
        }
        if (record)
            record->insert(record->end(), ms.begin(), ms.end());
        return ms;
    }

    std::vector<std::vector<std::uint32_t>> small_, large_;
    std::vector<double> small_ms_, large_ms_;
    double last_ = 0.0;
};

/** A workload: what runs, and how it is executed. */
struct WorkloadSpec {
    std::string name;
    std::vector<RunRequest> plan;
    int tile_jobs = 1;   ///< tile parallelism inside one simulation
    /** Frame-loop passes per round (0: none). Each gives every latency
     *  slot one sample. */
    int loop_passes = 1;
    int loop_warmup = 2; ///< frame loop: unmeasured frames per pair
    /** Frame loop: measured frames per pair. Each is one latency slot;
     *  p90 needs 100 of them. */
    int loop_frames = 9;
    /** Regeneration window. Its results also give the simulated
     *  metrics, so it is long enough for those to vary little with the
     *  seed's offset. */
    int regen_warmup = 2;
    int regen_frames = 10;
    /** Cold passes per round: a short pass's wall time is the makespan
     *  of a few dozen jobs on four workers, so it needs more samples. */
    int cold_passes = 2;
    int warm_passes = 5; ///< after each cold pass
    int setup_reps = 10; ///< per round
};

bool
makeSpec(const std::string &name, WorkloadSpec &spec)
{
    GpuConfig gpu;
    gpu.screen_width = kWidth;
    gpu.screen_height = kHeight;
    spec.name = name;
    if (name == "sim-3d") {
        spec.plan = plan3D(gpu);
    } else if (name == "sim-2d") {
        spec.plan = plan2D(gpu);
        spec.loop_frames = 6;
        // Shorter windows make EVR's gain over RE depend on where the
        // window falls relative to the popups; at 24 frames it varies
        // by under 10% across the seeds' offsets.
        spec.regen_frames = 24;
        // Frames of 2-40 ms, and the slow ones vary most from pass to
        // pass (by up to 45% across three rounds): with one pass per
        // round, ten runs' frame_ms_p90 spread by 19% between quartiles.
        spec.loop_passes = 2;
    } else if (name == "sim-3d-tiles") {
        spec.plan = plan3D(gpu);
        spec.tile_jobs = hostThreads();
        // Regeneration then runs one job at a time, so a pass's wall time
        // is the sum of its jobs, not a makespan: one pass is enough.
        spec.cold_passes = 1;
    } else if (name == "regen") {
        spec.plan = planRegen(gpu);
        spec.loop_passes = 0;
        spec.regen_frames = 2;
        spec.cold_passes = 1;
    } else {
        return false;
    }
    return true;
}

// ------------------------------------------------------------ reference

bool
loadDigests(const std::string &path, DigestTable &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buf;
    buf << in.rdbuf();
    Result<Json> doc = Json::tryParse(buf.str());
    if (!doc.ok() || !doc.value().find("digests"))
        return false;
    for (const auto &[key, value] : doc.value().at("digests").members())
        out[key] = value.asString();
    return true;
}

// -------------------------------------------------------------- metrics

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
};

/** Simulated counters folded over a pass, for the per-layer ratios. */
struct SimulatedCounts {
    FrameStats all, re, evr;
    double dram_nj = 0.0, energy_nj = 0.0;
    std::uint64_t pixels = 0, frames = 0, re_frames = 0;
    double extra_tiles_vs_re = 0.0;
};

SimulatedCounts
foldCounts(const std::vector<RunRequest> &plan,
           const std::vector<RunResult> &results)
{
    SimulatedCounts c;
    std::map<std::string, const RunResult *> re_of, evr_of;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const RunResult &r = results[i];
        const std::string &name = plan[i].config.name;
        bool default_tile = plan[i].config.gpu.tile_size == GpuConfig{}.tile_size;
        c.all.accumulate(r.totals);
        c.dram_nj += r.energy.dram_nj;
        c.energy_nj += r.energy.total();
        c.pixels += static_cast<std::uint64_t>(r.width) * r.height * r.frames;
        c.frames += static_cast<std::uint64_t>(r.frames);
        if (name == "re") {
            c.re.accumulate(r.totals);
            c.re_frames += static_cast<std::uint64_t>(r.frames);
            re_of[plan[i].alias] = &r;
        } else if (name == "evr" && default_tile) {
            c.evr.accumulate(r.totals);
            evr_of[plan[i].alias] = &r;
        }
    }
    std::uint64_t tiles = 0;
    std::int64_t extra = 0;
    for (const auto &[alias, evr] : evr_of) {
        auto it = re_of.find(alias);
        if (it == re_of.end())
            continue;
        extra += static_cast<std::int64_t>(evr->totals.tiles_skipped_re) -
                 static_cast<std::int64_t>(it->second->totals.tiles_skipped_re);
        tiles += evr->totals.tiles_total;
    }
    if (tiles > 0)
        c.extra_tiles_vs_re = static_cast<double>(extra) / tiles;
    return c;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
addSimulatedMetrics(const SimulatedCounts &c, std::vector<Metric> &out)
{
    const FrameStats &a = c.all;
    auto n = static_cast<std::size_t>(c.frames);
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    std::uint64_t casuistry = c.evr.casuistry[0] + c.evr.casuistry[1] +
                              c.evr.casuistry[2] + c.evr.casuistry[3];
    out.push_back({"gpu.shaded_per_pixel",
                   ratio(d(a.fragments_shaded), d(c.pixels)), "ratio", n});
    out.push_back({"gpu.early_z_kill_ratio",
                   ratio(d(a.early_z_kills), d(a.early_z_tests)), "ratio", n});
    out.push_back({"gpu.tiles_rendered_ratio",
                   ratio(d(a.tiles_rendered), d(a.tiles_total)), "ratio", n});
    out.push_back({"gpu.wasted_tile_ratio",
                   ratio(d(a.tiles_equal_oracle) - d(a.tiles_skipped_re),
                         d(a.tiles_rendered)),
                   "ratio", n});
    out.push_back({"mem.texture_miss_ratio", a.mem.texture_caches.missRatio(),
                   "ratio", n});
    out.push_back({"mem.l2_miss_ratio", a.mem.l2_cache.missRatio(), "ratio", n});
    out.push_back({"mem.dram_bytes",
                   ratio(d(a.mem.dram.totalBytes()), d(c.frames)), "B/frame",
                   n});
    out.push_back({"re.tiles_skipped_ratio",
                   ratio(d(c.re.tiles_skipped_re), d(c.re.tiles_total)),
                   "ratio", n});
    out.push_back({"re.signature_bytes_hashed",
                   ratio(d(c.re.signature_bytes_hashed), d(c.re_frames)),
                   "B/frame", n});
    out.push_back({"evr.tiles_skipped_ratio",
                   ratio(d(c.evr.tiles_skipped_re), d(c.evr.tiles_total)),
                   "ratio", n});
    out.push_back({"evr.extra_tiles_vs_re", c.extra_tiles_vs_re, "ratio", n});
    out.push_back({"evr.pred_occluded_accuracy",
                   ratio(d(c.evr.pred_occluded_correct),
                         d(c.evr.pred_occluded_correct +
                           c.evr.pred_occluded_wrong)),
                   "ratio", n});
    out.push_back({"evr.casuistry_d_share",
                   ratio(d(c.evr.casuistry[3]), d(casuistry)), "ratio", n});
    out.push_back({"energy.dram_share",
                   ratio(c.dram_nj, c.energy_nj), "ratio", n});
}

// ------------------------------------------------------------ trace data

/** Host-time totals of one traced phase, from the program's own spans
 *  (span totals) plus per-tile durations (trace events). */
struct TraceData {
    double frame_ns = 0, geometry_ns = 0, raster_ns = 0, re_end_ns = 0;
    double audit_ns = 0, tile_ns = 0, raster_uncovered_ns = 0;
    double job_ns = 0, simulate_ns = 0;
    std::uint64_t jobs = 0, frames = 0;
    std::vector<double> tile_us;

    /** Fold the span totals; @p gpu = false keeps only the driver's. */
    void
    addTotals(bool gpu)
    {
        for (const TraceTotal &t : traceTotals()) {
            std::string cat = t.cat, name = t.name;
            double ns = static_cast<double>(t.total_ns);
            if (!gpu && cat != "driver")
                continue;
            if (cat == "frame" && name == "frame") {
                frame_ns += ns;
                frames += t.count;
            } else if (cat == "stage" && name == "geometry") {
                geometry_ns += ns;
            } else if (cat == "stage" && name == "raster") {
                raster_ns += ns;
            } else if (cat == "stage" && name == "re-frame-end") {
                re_end_ns += ns;
            } else if (cat == "stage" && name == "binning-audit") {
                audit_ns += ns;
            } else if (cat == "tile" && name == "tile") {
                tile_ns += ns;
            } else if (cat == "driver" && name == "job") {
                job_ns += ns;
                jobs += t.count;
            } else if (cat == "driver" && name == "simulate") {
                simulate_ns += ns;
            }
        }
    }

    /** Per-tile durations, and the part of each raster span no tile span
     *  covers (set-up, and the serial memory-log replay of the
     *  tile-parallel path), from the events recorded since @p since. */
    void
    addEvents(std::uint64_t since, bool raster_coverage)
    {
        std::vector<TraceShippedEvent> ev = traceCollect(since);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> tiles, rasters;
        for (const TraceShippedEvent &e : ev) {
            if (e.phase != 'X')
                continue;
            if (e.cat == "tile") {
                tile_us.push_back(static_cast<double>(e.dur_ns) / 1e3);
                tiles.push_back({e.ts_ns, e.ts_ns + e.dur_ns});
            } else if (e.cat == "stage" && e.name == "raster") {
                rasters.push_back({e.ts_ns, e.ts_ns + e.dur_ns});
            }
        }
        if (!raster_coverage)
            return;
        std::sort(tiles.begin(), tiles.end());
        for (const auto &[r0, r1] : rasters) {
            std::uint64_t covered = 0, cursor = r0;
            for (const auto &[t0, t1] : tiles) {
                std::uint64_t a = std::max(t0, cursor), b = std::min(t1, r1);
                if (b > a) {
                    covered += b - a;
                    cursor = b;
                }
            }
            raster_uncovered_ns += static_cast<double>(r1 - r0 - covered);
        }
    }
};

unsigned
catBit(TraceCat c)
{
    return 1u << static_cast<unsigned>(c);
}

/** Arm span totals for every category, and trace events for @p events
 *  (tile spans recorded 1 in @p tile_sample). */
void
traceOn(unsigned events, unsigned tile_sample, const std::string &path)
{
    TraceConfig cfg;
    cfg.mask = events;
    cfg.sample[static_cast<unsigned>(TraceCat::Tile)] = tile_sample;
    cfg.path = path;
    traceConfigure(cfg);
    traceTotalsEnable(catBit(TraceCat::Driver) | catBit(TraceCat::Frame) |
                      catBit(TraceCat::Stage) | catBit(TraceCat::Tile));
}

void
traceOff(bool write)
{
    if (write && traceActive())
        if (Status s = traceWrite(); !s.ok())
            std::fprintf(stderr, "simbench: trace not written: %s\n",
                         s.message().c_str());
    traceTotalsEnable(0);
    traceConfigure(TraceConfig{});
}

// ------------------------------------------------------------- workload

/** Shifts a workload's frame window by the seed's offset and times
 *  frame generation; everything else is forwarded. */
class OffsetWorkload : public Workload
{
  public:
    OffsetWorkload(std::unique_ptr<Workload> inner, int offset,
                   std::atomic<std::uint64_t> *gen_ns,
                   std::atomic<std::uint64_t> *gen_count)
        : inner_(std::move(inner)), offset_(offset), gen_ns_(gen_ns),
          gen_count_(gen_count)
    {
    }
    Info info() const override { return inner_->info(); }
    void setup(GpuSimulator &sim) override { inner_->setup(sim); }
    Scene
    frame(int index) override
    {
        auto t0 = Clock::now();
        Scene s = inner_->frame(index + offset_);
        *gen_ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++*gen_count_;
        return s;
    }

  private:
    std::unique_ptr<Workload> inner_;
    int offset_;
    std::atomic<std::uint64_t> *gen_ns_;
    std::atomic<std::uint64_t> *gen_count_;
};

struct RunState {
    const WorkloadSpec &spec;
    SeedInputs seed;
    std::string work_dir;
    Checker checker;

    /** End-to-end host times are divided by their phase's factor as
     *  they are recorded. */
    Calibration cal{spec.tile_jobs};

    // set-up
    std::vector<double> setup_s, make_ms, construct_ms;
    // regeneration
    std::vector<double> cold_s, job_ms, concurrency;
    /** Raw warm-pass times. Not an end-to-end metric: a warm pass of a
     *  sim-* plan is a dozen cache reads, most of its time the sweep
     *  journal's fsyncs, and ten runs of the same code spread by up to
     *  44% between quartiles, calibrated or not. */
    std::vector<double> warm_ms;
    std::uint64_t cold_frames = 0, simulated = 0, disk_hits = 0;
    std::uint64_t retries = 0, runner_failed = 0;
    std::atomic<std::uint64_t> gen_ns{0}, gen_count{0};
    // frame loop: per measured frame slot (plan index x window frame),
    // one sample per untraced pass
    std::vector<std::vector<double>> render_ms, frame_total_ms;
    /** Untraced per-job mean frame time, per plan index. */
    std::vector<std::vector<double>> job_frame_ms;
    std::vector<double> gen_us;
    // Calibrated time and frames of the frame loop and cold passes, by
    // traced and untraced rounds: their difference is the tracing
    // overhead.
    double traced_loop_s = 0.0, untraced_loop_s = 0.0;
    std::uint64_t traced_frames = 0, untraced_frames = 0;
    std::uint64_t traced_fragments = 0, traced_bin_pairs = 0;
    // results used for simulated metrics
    std::vector<RunResult> results;
    TraceData traced;
    double traced_cold_s = 0.0, untraced_cold_s = 0.0;
    std::uint64_t traced_cold_frames = 0, untraced_cold_frames = 0;

    RunState(const WorkloadSpec &s, std::uint64_t seed_value,
             std::string dir, const DigestTable *ref)
        : spec(s), seed(seedInputs(seed_value, s.plan.size())),
          work_dir(std::move(dir)), checker(ref),
          render_ms(s.plan.size() * static_cast<std::size_t>(s.loop_frames)),
          frame_total_ms(render_ms.size()), job_frame_ms(s.plan.size())
    {
    }

    /** The median sample of each slot across passes. */
    static std::vector<double>
    slotMedians(const std::vector<std::vector<double>> &slots)
    {
        std::vector<double> out;
        for (const std::vector<double> &v : slots)
            if (!v.empty())
                out.push_back(median(v));
        return out;
    }
};

/** One pair's workload and simulator, ready to render. */
struct Instance {
    std::unique_ptr<Workload> workload;
    std::unique_ptr<GpuSimulator> sim;
};

/** Make @p req's workload and simulator and upload the workload, timing
 *  each step into @p st; adds the set-up time to @p setup_ms. */
Instance
setUp(RunState &st, const RunRequest &req, double &setup_ms)
{
    Instance in;
    auto t0 = Clock::now();
    in.workload = workloads::make(req.alias, kWidth, kHeight);
    double make = msSince(t0);
    auto t1 = Clock::now();
    in.sim = std::make_unique<GpuSimulator>(req.config);
    if (st.spec.tile_jobs > 1)
        in.sim->setTileExecution(nullptr, st.spec.tile_jobs);
    in.workload->setup(*in.sim);
    double construct = msSince(t1);
    st.make_ms.push_back(make);
    st.construct_ms.push_back(construct);
    setup_ms += make + construct;
    return in;
}

/** Set-up only: every pair's set-up, spec.setup_reps times, each a
 *  sample. @p record = false for the first round: until the allocator
 *  has settled, a set-up costs several times its steady value. */
void
setupPhase(RunState &st, bool record)
{
    std::vector<double> reps_ms;
    for (int r = 0; r < st.spec.setup_reps; ++r) {
        double setup_ms = 0.0;
        for (std::size_t idx : st.seed.order)
            setUp(st, st.spec.plan[idx], setup_ms);
        reps_ms.push_back(setup_ms);
    }
    const double f = st.cal.point();
    if (record)
        for (double ms : reps_ms)
            st.setup_s.push_back(ms / 1e3 / f);
}

BenchParams
runnerParams(const RunState &st, const std::string &cache_dir)
{
    BenchParams p;
    p.width = kWidth;
    p.height = kHeight;
    p.frames = st.spec.regen_frames;
    p.warmup = st.spec.regen_warmup;
    p.cache_dir = cache_dir;
    // One worker per core in all: with tile parallelism, fewer jobs.
    p.jobs = std::max(1, hostThreads() / st.spec.tile_jobs);
    p.tile_jobs = st.spec.tile_jobs;
    p.log_level = LogLevel::Quiet;
    p.heartbeat_ms = 0;
    p.write_summary = false;
    return p;
}

/** One cold pass into an empty cache, then warm passes over it. */
void
regenPass(RunState &st, int pass, bool traced)
{
    // Declaration order, as the figure binaries submit it: with a dozen
    // jobs on four workers the wall time of a pass is its makespan, and a
    // shuffled order adds the order's own spread to it.
    const std::vector<RunRequest> &plan = st.spec.plan;
    const std::string dir = st.work_dir + "/cache-" + std::to_string(pass);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const int offset = st.seed.offset;
    WorkloadFactory factory = [&st, offset](const std::string &alias, int w,
                                            int h) -> std::unique_ptr<Workload> {
        std::unique_ptr<Workload> wl = workloads::make(alias, w, h);
        if (!wl)
            return nullptr;
        return std::make_unique<OffsetWorkload>(std::move(wl), offset,
                                                &st.gen_ns, &st.gen_count);
    };
    BenchParams params = runnerParams(st, dir);

    if (traced)
        traceOn(catBit(TraceCat::Tile), 16,
                st.work_dir + "/trace-regen.json");
    std::uint64_t since = traced ? traceNowNs() : 0;
    double cold_ms = 0.0;
    BatchOutcome cold;
    SweepStats cs;
    {
        ExperimentRunner runner(factory, params);
        auto t0 = Clock::now();
        cold = runner.runAllChecked(plan);
        cold_ms = msSince(t0);
        cs = runner.sweepStats();
    }
    if (traced) {
        // The frame loop, where there is one, gives the gpu layers.
        const bool gpu = st.spec.loop_passes == 0;
        st.traced.addTotals(gpu);
        if (gpu)
            st.traced.addEvents(since, false);
        traceOff(gpu);
    }
    const double f = st.cal.point();

    std::vector<bool> present = st.checker.checkFailures(cold);
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (!present[i])
            continue;
        const RunResult &r = cold.results[i];
        st.checker.check(digestKey(plan[i].alias, plan[i].config,
                                   params.frames, params.warmup, offset),
                         r);
        st.job_ms.push_back(r.sim_wall_ms);
        if (!traced)
            st.job_frame_ms[i].push_back(
                r.sim_wall_ms / (params.frames + params.warmup) / f);
        frames += static_cast<std::uint64_t>(r.frames);
    }
    st.checker.checkImages(plan, cold.results, present);
    st.cold_s.push_back(cold_ms / 1e3 / f);
    st.cold_frames += frames;
    if (traced) {
        st.traced_cold_s += cold_ms / 1e3 / f;
        st.traced_cold_frames += frames;
    } else {
        st.untraced_cold_s += cold_ms / 1e3 / f;
        st.untraced_cold_frames += frames;
    }
    st.concurrency.push_back(ratio(cs.sim_wall_ms, cold_ms));
    st.simulated = cs.simulated;
    st.retries += cs.retries;
    st.runner_failed += cs.failed;
    if (st.results.empty()) {
        st.results = cold.results;
    }

    for (int w = 0; w < st.spec.warm_passes; ++w) {
        ExperimentRunner runner(factory, params);
        auto t0 = Clock::now();
        BatchOutcome warm = runner.runAllChecked(plan);
        double warm_ms = msSince(t0);
        SweepStats ws = runner.sweepStats();
        st.warm_ms.push_back(warm_ms);
        st.disk_hits = ws.disk_hits;
        st.retries += ws.retries;
        st.runner_failed += ws.failed;
        st.checker.checkWarm(plan, cold, warm, ws.simulated);
    }
    std::filesystem::remove_all(dir);
}

/** One frame-loop pass: every pair renders its window, each frame
 *  timed. */
void
framePass(RunState &st, bool traced)
{
    const WorkloadSpec &spec = st.spec;
    const int offset = st.seed.offset;
    std::vector<RunResult> results(spec.plan.size());
    std::vector<bool> present(spec.plan.size(), true);
    double setup_ms = 0.0; // not a set-up sample: the frame loop's
                           // allocations leave the heap in another state
    double pass_loop_ms = 0.0;
    std::uint64_t pass_frames = 0;
    // Untraced frames' times, calibrated when the pass is over.
    struct Timed {
        std::size_t slot;
        double render_ms, total_ms;
    };
    std::vector<Timed> timed;
    if (traced)
        traceOn(catBit(TraceCat::Stage) | catBit(TraceCat::Tile), 1,
                st.work_dir + "/trace-" + spec.name + ".json");

    for (std::size_t idx : st.seed.order) {
        const RunRequest &req = spec.plan[idx];
        Instance in = setUp(st, req, setup_ms);
        Workload &wl = *in.workload;
        GpuSimulator &sim = *in.sim;

        int f = offset;
        for (int k = 0; k < spec.loop_warmup; ++k, ++f) {
            std::uint64_t since = traced ? traceNowNs() : 0;
            FrameStats fs = sim.renderFrame(wl.frame(f));
            if (traced) {
                st.traced_fragments += fs.fragments_generated;
                st.traced_bin_pairs += fs.bin_tile_pairs;
                st.traced.addEvents(since, true);
            }
        }
        sim.resetTotals();
        for (int k = 0; k < spec.loop_frames; ++k, ++f) {
            std::uint64_t since = traced ? traceNowNs() : 0;
            auto g0 = Clock::now();
            Scene scene = wl.frame(f);
            auto g1 = Clock::now();
            FrameStats fs = sim.renderFrame(scene);
            auto g2 = Clock::now();
            double total =
                std::chrono::duration<double, std::milli>(g2 - g0).count();
            st.gen_us.push_back(
                std::chrono::duration<double, std::micro>(g1 - g0).count());
            if (!traced)
                timed.push_back(
                    {idx * spec.loop_frames + k,
                     std::chrono::duration<double, std::milli>(g2 - g1).count(),
                     total});
            pass_loop_ms += total;
            ++pass_frames;
            if (traced) {
                st.traced_fragments += fs.fragments_generated;
                st.traced_bin_pairs += fs.bin_tile_pairs;
                st.traced.addEvents(since, true);
            }
        }

        RunResult r;
        r.workload = req.alias;
        r.config = req.config.name;
        r.frames = spec.loop_frames;
        r.width = kWidth;
        r.height = kHeight;
        r.totals = sim.totals();
        r.energy = sim.energyOf(sim.totals());
        r.image_crc = sim.framebuffer().contentCrc();
        st.checker.check(digestKey(req.alias, req.config, spec.loop_frames,
                                   spec.loop_warmup, offset),
                         r);
        results[idx] = std::move(r);
    }
    if (traced) {
        st.traced.addTotals(true);
        traceOff(true);
    }
    const double f = st.cal.point();
    for (const Timed &t : timed) {
        st.render_ms[t.slot].push_back(t.render_ms / f);
        st.frame_total_ms[t.slot].push_back(t.total_ms / f);
    }
    pass_loop_ms /= f;
    st.checker.checkImages(spec.plan, results, present);
    if (traced) {
        st.traced_loop_s += pass_loop_ms / 1e3;
        st.traced_frames += pass_frames;
    } else {
        st.untraced_loop_s += pass_loop_ms / 1e3;
        st.untraced_frames += pass_frames;
    }
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

Json
hostFingerprint()
{
    Json h = Json::object();
    h.set("cpu", cpuModel());
    h.set("nproc", hostThreads());
#if defined(__clang__)
    h.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    h.set("compiler", std::string("gcc ") + __VERSION__);
#else
    h.set("compiler", "unknown");
#endif
    h.set("build_type", SIMBENCH_BUILD_TYPE);
    h.set("cxx_flags", SIMBENCH_CXX_FLAGS);
#ifdef SIMBENCH_HAS_SIMD_KERNELS
    switch (rasterKernels().level) {
    case SimdLevel::Scalar:
        h.set("simd", "scalar");
        break;
    case SimdLevel::Avx2:
        h.set("simd", "avx2");
        break;
    case SimdLevel::Neon:
        h.set("simd", "neon");
        break;
    }
#else
    h.set("simd", "none (no SIMD kernels in this build)");
#endif
    return h;
}

std::vector<Metric>
endToEnd(RunState &st)
{
    std::vector<Metric> m;
    const bool loop = st.spec.loop_passes > 0;
    const double cold_s = median(st.cold_s);
    std::vector<double> lat = RunState::slotMedians(st.job_frame_ms);
    double fps = ratio(static_cast<double>(st.cold_frames) / st.cold_s.size(),
                       cold_s);
    std::size_t fps_samples = st.cold_frames;
    if (loop) {
        lat = RunState::slotMedians(st.render_ms);
        double total_ms = 0.0;
        for (double v : RunState::slotMedians(st.frame_total_ms))
            total_ms += v;
        fps = ratio(static_cast<double>(lat.size()), total_ms / 1e3);
        fps_samples = lat.size();
    }
    std::optional<double> p90 = tailPercentile(lat, 90.0);
    if (!p90)
        std::fprintf(stderr,
                     "simbench: %zu latency samples are too few for p90\n",
                     lat.size());
    m.push_back({"frames_per_s", fps, "1/s", fps_samples});
    m.push_back({"frame_ms_p50", median(lat), "ms", lat.size()});
    m.push_back({"frame_ms_p90", p90.value_or(0.0), "ms", lat.size()});
    m.push_back({"regen_cold_s", cold_s, "s", st.cold_s.size()});
    m.push_back({"setup_s", median(st.setup_s), "s", st.setup_s.size()});
    m.push_back({"peak_rss_mb", peakRssMb(), "MB", 1});
    Reductions red = reductions(st.spec.plan, st.results);
    m.push_back({"sim_time_reduction", red.time, "ratio", st.spec.plan.size()});
    m.push_back(
        {"sim_energy_reduction", red.energy, "ratio", st.spec.plan.size()});
    return m;
}

std::vector<Metric>
perLayer(RunState &st)
{
    std::vector<Metric> m;
    const TraceData &t = st.traced;
    const bool loop = st.spec.loop_passes > 0;
    double frames = static_cast<double>(t.frames);
    auto nf = static_cast<std::size_t>(t.frames);
    // Regeneration counts only measured frames' fragments; warm-up
    // frames are assumed to cost the same.
    double frag = static_cast<double>(st.traced_fragments);
    double bins = static_cast<double>(st.traced_bin_pairs);
    if (!loop) {
        double scale = static_cast<double>(st.spec.regen_frames +
                                           st.spec.regen_warmup) /
                       st.spec.regen_frames;
        const std::vector<RunResult> &r = st.results;
        frag = bins = 0.0;
        for (const RunResult &x : r) {
            frag += static_cast<double>(x.totals.fragments_generated);
            bins += static_cast<double>(x.totals.bin_tile_pairs);
        }
        frag *= scale;
        bins *= scale;
    }
    double stages = t.geometry_ns + t.raster_ns + t.re_end_ns + t.audit_ns;
    m.push_back({"gpu.raster_ms", ratio(t.raster_ns / 1e6, frames), "ms/frame",
                 nf});
    m.push_back({"gpu.raster_share", ratio(t.raster_ns, t.frame_ns), "ratio",
                 nf});
    m.push_back({"gpu.ns_per_fragment", ratio(t.raster_ns, frag), "ns", nf});
    m.push_back({"gpu.geometry_ms", ratio(t.geometry_ns / 1e6, frames),
                 "ms/frame", nf});
    m.push_back({"gpu.geometry_share", ratio(t.geometry_ns, t.frame_ns),
                 "ratio", nf});
    m.push_back({"gpu.ns_per_bin_tile_pair", ratio(t.geometry_ns, bins), "ns",
                 nf});
    m.push_back({"gpu.tile_parallel_efficiency",
                 ratio(t.tile_ns, t.raster_ns * st.spec.tile_jobs), "ratio",
                 nf});
    m.push_back({"gpu.tile_us_p50", median(t.tile_us), "us", t.tile_us.size()});
    m.push_back({"gpu.tile_us_p99", tailPercentile(t.tile_us, 99.0).value_or(0.0),
                 "us", t.tile_us.size()});
    m.push_back({"gpu.raster_uncovered_ms",
                 loop ? ratio(t.raster_uncovered_ns / 1e6, frames)
                      : ratio((t.raster_ns - t.tile_ns) / 1e6, frames),
                 "ms/frame", nf});
    m.push_back({"gpu.frame_self_ms", ratio((t.frame_ns - stages) / 1e6, frames),
                 "ms/frame", nf});
    m.push_back({"re.frame_end_us", ratio(t.re_end_ns / 1e3, frames),
                 "us/frame", nf});

    // Frame generation: each call in the frame loop; on regen the mean
    // over the runner's calls, timed by OffsetWorkload.
    const double gen_count = static_cast<double>(st.gen_count.load());
    m.push_back({"workloads.frame_gen_us",
                 loop ? median(st.gen_us)
                      : ratio(static_cast<double>(st.gen_ns.load()) / 1e3,
                              gen_count),
                 "us",
                 loop ? st.gen_us.size() : static_cast<std::size_t>(gen_count)});
    m.push_back({"workloads.make_ms", median(st.make_ms), "ms",
                 st.make_ms.size()});
    m.push_back({"driver.setup_ms", median(st.construct_ms), "ms",
                 st.construct_ms.size()});
    m.push_back({"driver.concurrency", median(st.concurrency), "ratio",
                 st.concurrency.size()});
    double job_max =
        st.job_ms.empty() ? 0.0 : *std::max_element(st.job_ms.begin(),
                                                    st.job_ms.end());
    m.push_back({"driver.job_ms_p50", median(st.job_ms), "ms", st.job_ms.size()});
    m.push_back({"driver.job_ms_max", job_max, "ms", st.job_ms.size()});
    m.push_back({"driver.job_overhead_ms",
                 ratio((t.job_ns - t.simulate_ns) / 1e6,
                       static_cast<double>(t.jobs)),
                 "ms/job", static_cast<std::size_t>(t.jobs)});
    m.push_back({"driver.simulated", static_cast<double>(st.simulated), "count",
                 1});
    m.push_back({"driver.disk_hits", static_cast<double>(st.disk_hits), "count",
                 1});
    m.push_back({"driver.retries", static_cast<double>(st.retries), "count", 1});
    m.push_back({"driver.failed", static_cast<double>(st.runner_failed),
                 "count", 1});
    m.push_back({"driver.warm_pass_ms", median(st.warm_ms), "ms",
                 st.warm_ms.size()});
    m.push_back({"driver.cache_read_ms_per_entry",
                 ratio(median(st.warm_ms),
                       static_cast<double>(st.spec.plan.size())),
                 "ms", st.warm_ms.size()});

    addSimulatedMetrics(foldCounts(st.spec.plan, st.results), m);
    m.push_back({"failed_ratio", st.checker.tally.failedRatio(), "ratio",
                 static_cast<std::size_t>(st.checker.tally.attempted)});

    double fps_off =
        loop ? ratio(static_cast<double>(st.untraced_frames), st.untraced_loop_s)
             : ratio(static_cast<double>(st.untraced_cold_frames),
                     st.untraced_cold_s);
    double fps_on =
        loop ? ratio(static_cast<double>(st.traced_frames), st.traced_loop_s)
             : ratio(static_cast<double>(st.traced_cold_frames),
                     st.traced_cold_s);
    m.push_back({"host.calibration_ms", median(st.cal.largeSamples()), "ms",
                 st.cal.largeSamples().size()});
    m.push_back({"host.calibration_small_ms", median(st.cal.smallSamples()),
                 "ms", st.cal.smallSamples().size()});
    m.push_back({"trace.overhead_fps", fps_off - fps_on, "1/s", 2});
    m.push_back({"trace.overhead_share", ratio(fps_off - fps_on, fps_off),
                 "ratio", 2});
    return m;
}

// ------------------------------------------------------------- main

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string write_digests;
    std::string work_dir = ".bench_build/simbench-run";
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --digests <file> "
                 "[--work-dir <dir>]\n       simbench --write-digests <file> "
                 "[--work-dir <dir>]\n",
                 msg);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--digests")
                o.digests = v;
            else if (a == "--write-digests")
                o.write_digests = v;
            else if (a == "--work-dir")
                o.work_dir = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return true;
}

/** Simulate every reference-seed window of every workload and write the
 *  digest table. */
int
writeDigests(const Options &o)
{
    Json digests = Json::object();
    for (const char *name : {"sim-3d", "sim-2d", "regen"}) {
        WorkloadSpec spec;
        makeSpec(name, spec);
        spec.warm_passes = 0;
        RunState st(spec, kReferenceSeed, o.work_dir, nullptr);
        regenPass(st, 0, false);
        if (spec.loop_passes > 0)
            framePass(st, false);
        if (st.checker.tally.failed > 0) {
            for (const std::string &r : st.checker.tally.reasons)
                std::fprintf(stderr, "simbench: %s\n", r.c_str());
            return 1;
        }
        for (const auto &[key, d] : st.checker.produced)
            digests.set(key, d);
    }
    Json doc = Json::object();
    doc.set("seed", static_cast<int>(kReferenceSeed));
    doc.set("digests", std::move(digests));
    std::filesystem::remove_all(o.work_dir);
    std::ofstream out(o.write_digests);
    out << doc.dump(1) << "\n";
    return out.good() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return usage("bad arguments");
    setLogLevel(LogLevel::Quiet);
    std::filesystem::create_directories(o.work_dir);
    if (!o.write_digests.empty())
        return writeDigests(o);

    WorkloadSpec spec;
    if (!makeSpec(o.workload, spec))
        return usage("unknown workload");
    DigestTable reference;
    if (!loadDigests(o.digests, reference))
        return usage("cannot read the reference digests");
    const bool use_reference = o.seed == kReferenceSeed;
    RunState st(spec, o.seed, o.work_dir,
                use_reference ? &reference : nullptr);

    auto start = Clock::now();
    auto elapsed_s = [&] { return msSince(start) / 1e3; };
    st.cal.point(); // opens the first phase

    // Rounds interleave the phases, so a slow spell of the host spreads
    // over every metric's samples instead of landing on one phase. Each
    // round repeats the same work, so each frame gets one sample per
    // round. In a traced run, rounds alternate untraced and traced.
    const int min_rounds = o.trace ? 2 : kMinRounds;
    int round = 0;
    double last = 0.0;
    do {
        auto t0 = Clock::now();
        const bool traced = o.trace && round % 2 == 1;
        setupPhase(st, round > 0);
        for (int c = 0; c < spec.cold_passes; ++c)
            regenPass(st, round * spec.cold_passes + c, traced);
        for (int l = 0; l < spec.loop_passes; ++l)
            framePass(st, traced);
        last = msSince(t0) / 1e3;
        ++round;
    } while (round < min_rounds || elapsed_s() + last <= o.seconds);
    double measured_s = elapsed_s();

    std::vector<Metric> metrics = o.trace ? perLayer(st) : endToEnd(st);
    const Tally &tally = st.checker.tally;
    for (const std::string &r : tally.reasons)
        std::fprintf(stderr, "simbench: FAILED %s\n", r.c_str());

    std::printf("simbench %s seed=%llu offset=%d trace=%d measured=%.1fs\n",
                spec.name.c_str(), static_cast<unsigned long long>(o.seed),
                st.seed.offset, o.trace ? 1 : 0, measured_s);
    std::printf("host %s\n", hostFingerprint().dump().c_str());
    Json out_metrics = Json::object();
    for (const Metric &m : metrics) {
        std::printf("  %-32s %14.6g %-9s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        out_metrics.set(m.name, std::move(v));
    }
    std::printf("  latency percentile with >=%zu samples beyond it: p%g\n",
                kMinTailSamples,
                highestReportablePercentile(spec.loop_passes > 0
                                                ? st.render_ms.size()
                                                : st.job_frame_ms.size()));
    Json result = Json::object();
    result.set("correct", tally.failed == 0);
    result.set("attempted", tally.attempted);
    result.set("failed", tally.failed);
    result.set("metrics", std::move(out_metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    std::filesystem::remove_all(o.work_dir);
    return tally.failed == 0 ? 0 : 1;
}
