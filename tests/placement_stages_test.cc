/**
 * @file
 * Byte pins of the placement paths the frozen reference in
 * planner_equivalence_test cannot see (it implements only
 * ContiguousRuns windows): IslandAware bands and cross-island extras,
 * the extras' link-class fast path, exact-comm extras on fabrics with
 * per-pair island links, pairing-aware flow pricing, and the
 * memory-first fallback under IslandAware windows. Every pin is the
 * placementDigest() of the plan, recorded before the placement sweep
 * was split into stages, and must hold at any planner thread count.
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
                bool paired, std::uint32_t threads)
{
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    options.placement.pairingAwareFlowPricing = paired;
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
        std::uint64_t legacy; ///< pairingAwareFlowPricing off
        /** pairingAwareFlowPricing on; equals `legacy` where place()
         *  keeps the legacy pass. */
        std::uint64_t paired;
    };
    const Case cases[] = {
        {"fig3/hetero{6,10}", testutil::fig3Workload(),
         heteroIslandConfig({6, 10}), 0x9dd517f09a291f1bull,
         0x518d1638c34983ebull},
        {"CLIP-4/striped2x8", buildMultitaskClip({.numTasks = 4}),
         stripedIslandConfig(2, 8), 0x402fd24eb203b650ull,
         0x0a73ee6f98407a37ull},
        {"CLIP-10/hetero{12,4,12,4}",
         buildMultitaskClip({.numTasks = 10}),
         heteroIslandConfig({12, 4, 12, 4}), 0x73b6c2cdb6b92654ull,
         0x6ca1602bcc181870ull},
        {"OFASys-7/striped4x8", buildOfasys({.numTasks = 7}),
         stripedIslandConfig(4, 8), 0xae19badaccdf5229ull,
         0xae19badaccdf5229ull},
        {"CLIP-7/hetero{12,4,12,4}+islandLinks",
         buildMultitaskClip({.numTasks = 7}), overriddenLinksConfig(),
         0x7e0f36d1840cb818ull, 0x9cc94936205a8715ull},
        {"CLIP-10/16 alternating 12/4 islands",
         buildMultitaskClip({.numTasks = 10}), alternatingIslandsConfig(),
         0x52255f06c0d19b52ull, 0x52255f06c0d19b52ull},
    };
    for (const Case &c : cases) {
        const MetaGraph meta = contractGraph(c.graph);
        ClusterTopology topo(c.cluster);
        HardwareModel hw(topo);
        for (bool paired : {false, true}) {
            for (std::uint32_t threads : {1u, 8u}) {
                SCOPED_TRACE(strCat(c.name, " paired=", paired,
                                    " threads=", threads));
                const PlannerOutput out =
                    planIslandAware(hw, meta, paired, threads);
                out.plan.validate(meta);
                EXPECT_FALSE(out.placement.usedMemoryFallback);
                EXPECT_EQ(placementDigest(out),
                          paired ? c.paired : c.legacy)
                    << std::hex << "0x" << placementDigest(out);
            }
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
             planIslandAware(hw, meta, false, 1).placement.peakBytes)
            peak = std::max(peak, b);
    }
    cfg.device.memoryBytes = 0.85 * peak / PlacementOptions{}.memorySlack;
    ClusterTopology tight(cfg);
    HardwareModel hw(tight);
    for (std::uint32_t threads : {1u, 8u}) {
        SCOPED_TRACE(strCat("threads=", threads));
        const PlannerOutput out = planIslandAware(hw, meta, false, threads);
        out.plan.validate(meta);
        EXPECT_TRUE(out.placement.usedMemoryFallback);
        EXPECT_GT(out.placement.fallbackRestartWave, 0u);
        EXPECT_EQ(placementDigest(out), 0xc92bb41aabeaec97ull)
            << std::hex << "0x" << placementDigest(out);
    }
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
