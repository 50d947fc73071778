/**
 * @file
 * Byte pins of the placement paths the frozen reference in
 * planner_equivalence_test cannot see (it implements only
 * ContiguousRuns windows): IslandAware bands and cross-island extras,
 * the extras' link-class fast path, exact-comm extras on fabrics with
 * per-pair island links, and the memory-first fallback under
 * IslandAware windows. Every pin is the placementDigest() of the
 * plan, recorded before the placement sweep was split into stages,
 * and must hold at any planner thread count.
 *
 * A second group pins the same paths at cluster sizes where the
 * placement view collapses runs of untouched islands (see
 * placement.h): IslandAware windows at 4096 GPUs, a partial
 * memory-first fallback past a replayed prefix, and mixed island
 * sizes, where only equal-size neighbours collapse. Each case
 * asserts that some entry is placed beside a collapsed run, so it
 * cannot pass vacuously; the digests were recorded before the view
 * existed. Two hand-built plans pin the view's cut widths where the
 * seed workloads cannot: a winning window that enters a touched
 * island from a cut run's last island, and an unaligned winner on an
 * untouched cluster (negative island penalty), each compared with
 * the same plan on a cluster too small to cut.
 *
 * The file also holds the death tests of the sweep's checks on
 * custom generator output: out-of-range or non-ascending positions,
 * and bands longer than the packed link-class counters can count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::heteroIslandConfig;
using testutil::placementDigest;
using testutil::stripedIslandConfig;

/** CLIP-7's fabric: hetero{12,4,12,4} with two per-pair overrides,
 *  so the sweep prices every window with the exact flow oracle. */
ClusterConfig
overriddenLinksConfig()
{
    ClusterConfig cfg = heteroIslandConfig({12, 4, 12, 4});
    cfg.islandLinks.push_back(
        {0, 3, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});
    cfg.islandLinks.push_back({1, 2, {100 * kGiga, 5 * kMicro}, {}});
    return cfg;
}

/** 16 islands alternating 12 and 4 devices (128 GPUs). */
ClusterConfig
alternatingIslandsConfig()
{
    std::vector<std::uint32_t> sizes;
    for (int i = 0; i < 8; ++i) {
        sizes.push_back(12);
        sizes.push_back(4);
    }
    return heteroIslandConfig(sizes);
}

PlannerOutput
planIslandAware(const HardwareModel &hw, const MetaGraph &meta,
                std::uint32_t threads)
{
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    options.threads = threads;
    return ExecutionPlanner(hw, options).plan(meta);
}

TEST(PlacementStages, IslandAwarePlansMatchRecordedBytes)
{
    struct Case
    {
        const char *name;
        ComputationGraph graph;
        ClusterConfig cluster;
        std::uint64_t recorded;
    };
    const Case cases[] = {
        {"fig3/hetero{6,10}", testutil::fig3Workload(),
         heteroIslandConfig({6, 10}), 0x9dd517f09a291f1bull},
        {"CLIP-4/striped2x8", buildMultitaskClip({.numTasks = 4}),
         stripedIslandConfig(2, 8), 0x402fd24eb203b650ull},
        {"CLIP-10/hetero{12,4,12,4}",
         buildMultitaskClip({.numTasks = 10}),
         heteroIslandConfig({12, 4, 12, 4}), 0x73b6c2cdb6b92654ull},
        {"OFASys-7/striped4x8", buildOfasys({.numTasks = 7}),
         stripedIslandConfig(4, 8), 0xae19badaccdf5229ull},
        {"CLIP-7/hetero{12,4,12,4}+islandLinks",
         buildMultitaskClip({.numTasks = 7}), overriddenLinksConfig(),
         0x7e0f36d1840cb818ull},
        {"CLIP-10/16 alternating 12/4 islands",
         buildMultitaskClip({.numTasks = 10}), alternatingIslandsConfig(),
         0x52255f06c0d19b52ull},
    };
    for (const Case &c : cases) {
        const MetaGraph meta = contractGraph(c.graph);
        ClusterTopology topo(c.cluster);
        HardwareModel hw(topo);
        for (std::uint32_t threads : {1u, 8u}) {
            SCOPED_TRACE(strCat(c.name, " threads=", threads));
            const PlannerOutput out = planIslandAware(hw, meta, threads);
            out.plan.validate(meta);
            EXPECT_FALSE(out.placement.usedMemoryFallback);
            EXPECT_EQ(placementDigest(out), c.recorded)
                << std::hex << "0x" << placementDigest(out);
        }
    }
}

TEST(PlacementStages, IslandAwareMemoryFallbackMatchesRecordedBytes)
{
    // CLIP-4 on hetero{6,10} with 85% of its roomy peak: comm-first
    // placement fails mid-plan, and the memory-first pass resumes
    // past a replayed prefix.
    const ComputationGraph graph = buildMultitaskClip({.numTasks = 4});
    const MetaGraph meta = contractGraph(graph);
    ClusterConfig cfg = heteroIslandConfig({6, 10});
    double peak = 0;
    {
        ClusterTopology roomy(cfg);
        HardwareModel hw(roomy);
        for (double b :
             planIslandAware(hw, meta, 1).placement.peakBytes)
            peak = std::max(peak, b);
    }
    cfg.device.memoryBytes = 0.85 * peak / PlacementOptions{}.memorySlack;
    ClusterTopology tight(cfg);
    HardwareModel hw(tight);
    for (std::uint32_t threads : {1u, 8u}) {
        SCOPED_TRACE(strCat("threads=", threads));
        const PlannerOutput out = planIslandAware(hw, meta, threads);
        out.plan.validate(meta);
        EXPECT_TRUE(out.placement.usedMemoryFallback);
        EXPECT_GT(out.placement.fallbackRestartWave, 0u);
        EXPECT_EQ(placementDigest(out), 0xc92bb41aabeaec97ull)
            << std::hex << "0x" << placementDigest(out);
    }
}

// ===================================================================
// Pins where the placement view collapses untouched islands
// ===================================================================

/** Plan @p graph on @p cluster at threads {1, 8}; expect the recorded
 *  placementDigest and a placement beside a collapsed run. */
void
expectCollapsedPin(const ComputationGraph &graph, const ClusterConfig &cluster,
                   PlannerOptions options, std::uint64_t recorded,
                   bool fallback = false)
{
    const MetaGraph meta = contractGraph(graph);
    ClusterTopology topo(cluster);
    HardwareModel hw(topo);
    for (std::uint32_t threads : {1u, 8u}) {
        SCOPED_TRACE(strCat("threads=", threads));
        options.threads = threads;
        const PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
        out.plan.validate(meta);
        EXPECT_EQ(out.placement.usedMemoryFallback, fallback);
        if (fallback) {
            EXPECT_GT(out.placement.fallbackRestartWave, 0u);
        }
        EXPECT_TRUE(testutil::placesBesideCollapsedRun(out.plan, topo));
        EXPECT_EQ(placementDigest(out), recorded)
            << std::hex << "0x" << placementDigest(out);
    }
}

ClusterConfig
shorthandCluster(std::uint32_t nodes)
{
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.gpusPerNode = 8;
    return cfg;
}

TEST(PlacementStages, IslandAwareAt4096GpusMatchesRecordedBytes)
{
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    expectCollapsedPin(buildMultitaskClip({.numTasks = 3}),
                       shorthandCluster(512), options, 0xed40aaa98976df10ull);
}

TEST(PlacementStages, PartialFallbackBesideUntouchedIslandsMatchesRecordedBytes)
{
    // OFASys-7 on 512 GPUs at 95% of its roomy peak: comm-first
    // placement, which collapses untouched islands in its early waves,
    // fails at wave 5; the memory-first pass replays that prefix and
    // resumes there.
    const ComputationGraph graph = buildOfasys({.numTasks = 7});
    ClusterConfig cfg = shorthandCluster(64);
    double peak = 0;
    {
        ClusterTopology roomy(cfg);
        HardwareModel hw(roomy);
        const MetaGraph meta = contractGraph(graph);
        for (double b : ExecutionPlanner(hw, PlannerOptions{})
                            .plan(meta)
                            .placement.peakBytes)
            peak = std::max(peak, b);
    }
    cfg.device.memoryBytes = 0.95 * peak / PlacementOptions{}.memorySlack;
    expectCollapsedPin(graph, cfg, PlannerOptions{}, 0x9fe4012b4a6de834ull,
                       /*fallback=*/true);
}

TEST(PlacementStages, MixedIslandSizesCollapseOnlyEqualNeighbours)
{
    // 48 islands of 8 GPUs, then 16 of 16: equal-size neighbours form
    // one run each, and the size change ends the first.
    std::vector<std::uint32_t> sizes(48, 8);
    sizes.resize(64, 16);
    const ClusterConfig cfg = heteroIslandConfig(sizes);
    const ComputationGraph graph = buildMultitaskClip({.numTasks = 10});
    for (WindowPolicy windows :
         {WindowPolicy::ContiguousRuns, WindowPolicy::IslandAware}) {
        SCOPED_TRACE(strCat("island-aware=",
                            windows == WindowPolicy::IslandAware));
        PlannerOptions options;
        options.placement.windows = windows;
        expectCollapsedPin(graph, cfg, options,
                           windows == WindowPolicy::IslandAware
                               ? 0xf9a85aa699ffc9eaull
                               : 0xca66ac314dc4c34bull);
    }
}

// ===================================================================
// The view's cut widths, on hand-built plans
// ===================================================================

/**
 * Place one-entry waves of MetaOp 0 of @p graph (wave w runs member
 * operator w on @p sizes[w] devices) on @p cluster. Waves before
 * @p resume are replayed on the devices @p prefix_devices names.
 * Returns the devices of every wave.
 */
std::vector<DeviceSet>
placeOneEntryWaves(const ComputationGraph &graph, const ClusterConfig &cluster,
                   const std::vector<std::uint32_t> &sizes,
                   const std::vector<DeviceSet> &prefix_devices = {})
{
    const MetaGraph meta = contractGraph(graph);
    ClusterTopology topo(cluster);
    HardwareModel hw(topo);
    ExecutionPlan plan;
    plan.numDevices = topo.numDevices();
    std::vector<PlacementCommit> prefix;
    for (std::size_t w = 0; w < sizes.size(); ++w) {
        Wave wave;
        wave.index = static_cast<std::int32_t>(w);
        WaveEntry e;
        e.metaOp = 0;
        e.n = sizes[w];
        e.opBegin = static_cast<std::int64_t>(w);
        e.numOps = 1;
        if (w < prefix_devices.size()) {
            e.devices = prefix_devices[w];
            prefix.push_back({static_cast<std::uint32_t>(w), 0, 0, 0});
        }
        wave.entries.push_back(e);
        plan.waves.push_back(wave);
    }
    const MemoryModel mem;
    EXPECT_TRUE(DevicePlacement(topo, hw, mem)
                    .place(meta, plan, prefix_devices.size(), prefix)
                    .has_value());
    std::vector<DeviceSet> out;
    for (const Wave &w : plan.waves)
        out.push_back(w.entries.front().devices);
    return out;
}

/** @p devices shifted down by @p base. */
DeviceSet
relativeTo(const DeviceSet &devices, DeviceId base)
{
    DeviceSet out;
    for (DeviceId d : devices)
        out.push_back(d - base);
    return out;
}

TEST(PlacementStages, WindowIntoATouchedIslandKeepsTheRunsLastIslands)
{
    // A run of 8-GPU islands ends at a 16-GPU island that holds the
    // previous slice (replayed). The next 4-device slice ties on every
    // window holding one of its devices, so the flat sweep takes the
    // first: three devices of the run's last island plus one of the
    // 16-GPU island. With 40 islands in the run the view cuts it, and
    // must keep its last islands for that window to exist.
    const ComputationGraph graph = testutil::fig3Workload();
    std::vector<DeviceSet> rel;
    for (std::uint32_t run : {3u, 40u}) {
        SCOPED_TRACE(strCat("run=", run));
        std::vector<std::uint32_t> sizes(run, 8);
        sizes.push_back(16);
        const DeviceId big = run * 8;
        DeviceSet big_island(16);
        std::iota(big_island.begin(), big_island.end(), big);
        const std::vector<DeviceSet> placed = placeOneEntryWaves(
            graph, heteroIslandConfig(sizes), {16, 4}, {big_island});
        rel.push_back(relativeTo(placed[1], big - 8));
    }
    EXPECT_EQ(rel[0], (DeviceSet{5, 6, 7, 8}));
    EXPECT_EQ(rel[1], rel[0]);
}

TEST(PlacementStages, UnalignedPristineWinnerFitsTheRunsFirstIslands)
{
    // Batch 1 leaves tensor parallelism as the only split, and an
    // inter-island fabric faster than the intra-island one (bandwidth
    // and latency) makes the island penalty negative: on an untouched cluster the flat sweep
    // takes the first window that crosses an island boundary, at
    // offset 5 of island 0. The view's first K islands must hold it
    // whole (K = ceil(n / s) + 1, not ceil(n / s)).
    const ComputationGraph graph = testutil::fig3Workload(1);
    std::vector<DeviceSet> placed;
    for (std::uint32_t nodes : {2u, 40u}) {
        SCOPED_TRACE(strCat("nodes=", nodes));
        ClusterConfig cluster = shorthandCluster(nodes);
        cluster.intraIsland = {40 * kGiga, 3 * kMicro};
        cluster.interIsland = {100 * kGiga, 1 * kMicro};
        placed.push_back(placeOneEntryWaves(graph, cluster, {4}).front());
    }
    EXPECT_EQ(placed[0], (DeviceSet{5, 6, 7, 8}));
    EXPECT_EQ(placed[1], placed[0]);
}

// ===================================================================
// Checks on custom generator output
// ===================================================================

enum class Flaw
{
    BandOutOfRange,
    ExtraOutOfRange,
    BandNotAscending,
    ExtraNotAscending,
    BandTooLong,
};

/** Test generator: one band over the whole free list, plus one extra
 *  (the first n positions), with the configured flaw. */
class FlawedGenerator final : public WindowGenerator
{
  public:
    explicit FlawedGenerator(Flaw flaw) : flaw_(flaw) {}

    const char *name() const override { return "FlawedGenerator"; }

    void
    generate(const WindowGenContext &ctx,
             CandidateWindows &out) const override
    {
        out.clear();
        const auto free = static_cast<std::uint32_t>(ctx.free.size());
        std::vector<std::uint32_t> band(free);
        std::iota(band.begin(), band.end(), 0u);
        std::vector<std::uint32_t> extra(band.begin(),
                                         band.begin() + ctx.n);
        switch (flaw_) {
        case Flaw::BandOutOfRange:
            band.back() = free;
            break;
        case Flaw::ExtraOutOfRange:
            extra.back() = free;
            break;
        case Flaw::BandNotAscending:
            std::swap(band[0], band[1]);
            break;
        case Flaw::ExtraNotAscending:
            extra.back() = extra.front();
            break;
        case Flaw::BandTooLong:
            band.resize(std::size_t{1} << 21);
            std::iota(band.begin(), band.end(), 0u);
            break;
        }
        out.bands.push_back(std::move(band));
        out.extras.push_back(std::move(extra));
    }

  private:
    Flaw flaw_;
};

void
planWithGenerator(Flaw flaw)
{
    const ComputationGraph graph = testutil::fig3Workload();
    const MetaGraph meta = contractGraph(graph);
    ClusterTopology topo = testutil::smallCluster(2);
    HardwareModel hw(topo);
    FlawedGenerator generator(flaw);
    PlannerOptions options;
    options.placement.generator = &generator;
    options.threads = 1;
    ExecutionPlanner(hw, options).plan(meta);
}

TEST(PlacementStagesDeathTest, BandPositionOutOfRange)
{
    EXPECT_DEATH(planWithGenerator(Flaw::BandOutOfRange),
                 "band position .* out of range");
}

TEST(PlacementStagesDeathTest, ExtraPositionOutOfRange)
{
    EXPECT_DEATH(planWithGenerator(Flaw::ExtraOutOfRange),
                 "extra position .* out of range");
}

TEST(PlacementStagesDeathTest, BandPositionsNotAscending)
{
    EXPECT_DEATH(planWithGenerator(Flaw::BandNotAscending),
                 "band positions do not ascend");
}

TEST(PlacementStagesDeathTest, ExtraPositionsNotAscending)
{
    EXPECT_DEATH(planWithGenerator(Flaw::ExtraNotAscending),
                 "extra positions do not ascend");
}

TEST(PlacementStagesDeathTest, BandTooLongForClassCounters)
{
    EXPECT_DEATH(planWithGenerator(Flaw::BandTooLong),
                 "band of 2097152 positions");
}

} // namespace
} // namespace spindle
