/**
 * @file
 * Scale-out gates of the planner's sync-aware allocation
 * (syncPricedCurve) over {CLIP-10, OFASys-7} x {64, 256, 1024, 4096}
 * GPUs on 8-GPU nodes with the nominal fabric:
 *
 *  - monotonicity: the simulated iteration at N GPUs is at most
 *    kMonotonicSlack x the best at any N' <= N;
 *  - baselines: Spindle is faster than DeepSpeed at every point;
 *  - estimate fidelity: estimatedSpan / simulated iteration lies in
 *    [kEstimateLow, kEstimateHigh];
 *  - the simulated iteration is at least theoreticalOptimum.
 *
 * The sync-blind (compute-only) allocation, which the planner falls
 * back to when the priced plan does not fit memory, is pinned here by
 * digest to the plans the planner emitted before sync pricing. The
 * fallback itself is checked cold, replanned, served from the cache
 * and next to a prefix donor. The file also holds the
 * parameter-group fusion tests: fusion keeps the synced bytes, fuses
 * a pair only when the collective oracle prices the fused all-reduce
 * cheaper, and never exposes more sync than the subset-only pool,
 * for every collective and dispatch policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "planner/planner.h"
#include "runtime/sync_executor.h"
#include "runtime/transmission_executor.h"
#include "runtime/wave_dispatcher.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::planDigest;

constexpr double kMonotonicSlack = 1.10;
constexpr double kEstimateLow = 0.6;
constexpr double kEstimateHigh = 1.25;

constexpr std::uint32_t kSweep[] = {64, 256, 1024, 4096};

ComputationGraph
sweepWorkload(std::size_t w)
{
    return w == 0 ? buildMultitaskClip({.numTasks = 10})
                  : buildOfasys({.numTasks = 7});
}

const char *kSweepNames[] = {"CLIP-10", "OFASys-7"};

ClusterConfig
nodesOf(std::uint32_t gpus)
{
    ClusterConfig cfg;
    cfg.numNodes = gpus / 8;
    cfg.gpusPerNode = 8;
    return cfg;
}

/**
 * The sync-blind plan: the compute-only curves allocated, scheduled
 * and placed from scratch by the planner's stages with default
 * options, as the planner does when the priced plan does not fit.
 */
PlannerOutput
syncBlindPlan(const HardwareModel &hw, const MetaGraph &meta)
{
    const std::uint32_t n = hw.topology().numDevices();
    PlannerOutput out;
    out.curves = ScalabilityEstimator(hw).estimateAll(meta, n);
    std::vector<LevelAllocation> allocations =
        ResourceAllocator(meta, out.curves, n).allocateAll();
    out.plan.waves =
        WavefrontScheduler(meta, out.curves, n).scheduleAll(allocations);
    out.plan.numDevices = n;
    out.plan.allocations = std::move(allocations);
    for (const LevelAllocation &a : out.plan.allocations)
        out.plan.theoreticalOptimum += a.continuous.cStar;
    out.plan.estimatedSpan =
        out.plan.waves.back().start + out.plan.waves.back().duration;
    const MemoryModel mem;
    std::optional<PlacementResult> placed =
        DevicePlacement(hw.topology(), hw, mem).place(meta, out.plan);
    EXPECT_TRUE(placed.has_value());
    if (placed)
        out.placement = std::move(*placed);
    return out;
}

struct SweepPoint
{
    double sim = 0;
    double deepspeed = 0;
    double estimated = 0;
    double optimum = 0;
};

TEST(ScaleOut, SyncAwareSweepMeetsGates)
{
    for (std::size_t w = 0; w < 2; ++w) {
        SCOPED_TRACE(kSweepNames[w]);
        const ComputationGraph graph = sweepWorkload(w);
        const MetaGraph meta = contractGraph(graph);
        std::vector<SweepPoint> points;
        for (std::uint32_t gpus : kSweep) {
            SCOPED_TRACE(strCat(gpus, " GPUs"));
            ClusterTopology topo(nodesOf(gpus));
            HardwareModel hw(topo);
            const SpindleSystem spindle(hw);
            const SystemResult r = spindle.runIteration(meta);
            const SequentialSystem ds(hw, SequentialMode::DeepSpeed);
            const PlannerOutput out = ExecutionPlanner(hw).plan(meta);
            SweepPoint p{r.iterationSeconds,
                         ds.runIteration(meta).iterationSeconds,
                         out.plan.estimatedSpan,
                         out.plan.theoreticalOptimum};

            EXPECT_LT(p.sim, p.deepspeed);
            EXPECT_GE(p.estimated / p.sim, kEstimateLow);
            EXPECT_LE(p.estimated / p.sim, kEstimateHigh);
            EXPECT_GE(p.sim, p.optimum);
            double best = p.sim;
            for (const SweepPoint &q : points)
                best = std::min(best, q.sim);
            EXPECT_LE(p.sim, kMonotonicSlack * best);
            points.push_back(p);
        }
    }
}

TEST(ScaleOut, SyncBlindPlansMatchRecordedBytes)
{
    // Digests of the planner's plans recorded before it priced sync.
    const std::uint64_t recorded[2][4] = {
        {0x44edbabde88145c2ull, 0x4209a81f672e892aull,
         0xe34cf57db302837dull, 0x559981bde57a1399ull},
        {0x3a8d1bf62854121dull, 0x3d7691917614580dull,
         0x4a9f25a5ad77f56dull, 0x8d0578a3f95b593dull},
    };
    for (std::size_t w = 0; w < 2; ++w) {
        const ComputationGraph graph = sweepWorkload(w);
        const MetaGraph meta = contractGraph(graph);
        for (std::size_t i = 0; i < std::size(kSweep); ++i) {
            SCOPED_TRACE(strCat(kSweepNames[w], " on ", kSweep[i], " GPUs"));
            ClusterTopology topo(nodesOf(kSweep[i]));
            HardwareModel hw(topo);
            const PlannerOutput out = syncBlindPlan(hw, meta);
            EXPECT_EQ(planDigest(out), recorded[w][i])
                << std::hex << "0x" << planDigest(out);
        }
    }
}

TEST(ScaleOut, LargeClusterPlansDoNotDrift)
{
    // CLIP-10 uses the same devices at 1024, 4096 and 16384 GPUs:
    // the extra islands stay untouched, so the plan must not move
    // device for device. The frozen reference placer of
    // planner_equivalence_test is far too slow at 16384 GPUs, so this
    // guards the placement view (which keeps only the ends of
    // untouched runs) against a tie-break slip there.
    const ComputationGraph graph = buildMultitaskClip({.numTasks = 10});
    const MetaGraph meta = contractGraph(graph);
    std::optional<ExecutionPlan> first;
    for (std::uint32_t gpus : {1024u, 4096u, 16384u}) {
        SCOPED_TRACE(strCat("gpus=", gpus));
        ClusterTopology topo(nodesOf(gpus));
        HardwareModel hw(topo);
        const PlannerOutput out = ExecutionPlanner(hw, {}).plan(meta);
        if (!first) {
            first = out.plan;
            continue;
        }
        EXPECT_EQ(out.plan.estimatedSpan, first->estimatedSpan);
        ASSERT_EQ(out.plan.waves.size(), first->waves.size());
        for (std::size_t w = 0; w < first->waves.size(); ++w) {
            const std::vector<WaveEntry> &got = out.plan.waves[w].entries;
            const std::vector<WaveEntry> &want = first->waves[w].entries;
            ASSERT_EQ(got.size(), want.size()) << "wave " << w;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].metaOp, want[i].metaOp);
                EXPECT_EQ(got[i].devices, want[i].devices)
                    << "wave " << w << " entry " << i;
            }
        }
    }
}

TEST(ScaleOut, SyncBlindFallbackWhenPricedPlanDoesNotFit)
{
    // With a fraction of the priced plan's peak memory, the narrower
    // priced entries fit not even memory-first, the sync-blind
    // allocation does, and the planner emits exactly the sync-blind
    // plan: cold, replanned, and served from the cache. QWen-VAL 30B
    // is replanned after QWen-VAL 9B, which shares its first level and
    // fits priced: that donor's prefix is not what the emitted plan
    // was placed with, so no prefix reuse is reported.
    struct Case
    {
        const char *name;
        QwenValConfig workload;
        std::uint32_t gpus;
        double memoryFraction;
        std::optional<QwenValConfig> donor;
    };
    const Case cases[] = {
        {"QWen-VAL 9B on 512 GPUs", {}, 512, 0.8, std::nullopt},
        {"QWen-VAL 30B on 256 GPUs after 9B",
         {.size = QwenValConfig::Size::B30}, 256, 0.75, QwenValConfig{}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const ComputationGraph graph = buildQwenVal(c.workload);
        const MetaGraph meta = contractGraph(graph);
        ClusterConfig cfg = nodesOf(c.gpus);
        double peak = 0;
        {
            ClusterTopology roomy(cfg);
            HardwareModel hw(roomy);
            for (double b :
                 ExecutionPlanner(hw).plan(meta).placement.peakBytes)
                peak = std::max(peak, b);
        }
        cfg.device.memoryBytes =
            c.memoryFraction * peak / PlacementOptions{}.memorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        const PlannerOutput expected = syncBlindPlan(hw, meta);

        PlanCache cache;
        PlannerOptions options;
        options.cache = &cache;
        const ExecutionPlanner planner(hw, options);
        if (c.donor) {
            const ComputationGraph donor_graph = buildQwenVal(*c.donor);
            const MetaGraph donor = contractGraph(donor_graph);
            ASSERT_GT(
                signatureOf(donor).commonPrefixLevels(signatureOf(meta)),
                0u);
            const PlannerOutput d = planner.replan(donor);
            ASSERT_FALSE(d.syncBlindFallback);
            ASSERT_FALSE(d.placement.usedMemoryFallback);
        }
        const PlannerOutput cold = planner.plan(meta);
        const PlannerOutput miss = planner.replan(meta);
        const PlannerOutput hit = planner.replan(meta);
        for (const PlannerOutput *out : {&cold, &miss, &hit}) {
            EXPECT_TRUE(out->syncBlindFallback);
            EXPECT_EQ(planDigest(*out), planDigest(expected));
        }
        EXPECT_FALSE(miss.replan.fullHit);
        EXPECT_EQ(miss.replan.reusedLevels, 0u);
        EXPECT_EQ(miss.replan.prefixWaves, 0u);
        EXPECT_TRUE(hit.replan.fullHit);
        // Only the full hit reports reuse.
        EXPECT_EQ(cache.stats().fullHits, 1u);
        EXPECT_EQ(cache.stats().reusedLevels, meta.numLevels());
    }
}

// ===================================================================
// Parameter-group fusion
// ===================================================================

constexpr CollectiveKind kKinds[] = {
    CollectiveKind::FlatRing, CollectiveKind::Hierarchical,
    CollectiveKind::Auto, CollectiveKind::ShardedHierarchical};

constexpr DispatchPolicyKind kPolicies[] = {
    DispatchPolicyKind::StrictBarrier, DispatchPolicyKind::Overlap};

/**
 * Test-local copy of the subset-only pool: one group per distinct
 * device set of a parameter set, each folded into the first larger
 * group containing it.
 */
std::vector<ParamGroup>
subsetOnlyGroups(const MetaGraph &graph, const ExecutionPlan &plan)
{
    std::map<std::int64_t, std::pair<DeviceSet, double>> params;
    for (const Wave &w : plan.waves)
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const std::int64_t key =
                    op.paramKey != kNoParam
                        ? op.paramKey
                        : -(static_cast<std::int64_t>(op.id) + 2);
                auto &[devices, bytes] = params[key];
                devices = unionOf(devices, e.devices);
                bytes = std::max(bytes, op.paramBytes);
            }
        }
    std::map<DeviceSet, ParamGroup> by_set;
    for (const auto &[key, info] : params) {
        ParamGroup &g = by_set[info.first];
        g.devices = info.first;
        g.bytes += info.second;
        g.numParams += 1;
    }
    std::vector<ParamGroup> groups;
    for (auto &[devices, g] : by_set)
        groups.push_back(std::move(g));
    std::sort(groups.begin(), groups.end(),
              [](const ParamGroup &a, const ParamGroup &b) {
                  if (a.devices.size() != b.devices.size())
                      return a.devices.size() > b.devices.size();
                  return a.devices < b.devices;
              });
    std::vector<ParamGroup> out;
    for (ParamGroup &g : groups) {
        auto host = std::find_if(out.begin(), out.end(), [&](auto &h) {
            return std::includes(h.devices.begin(), h.devices.end(),
                                 g.devices.begin(), g.devices.end());
        });
        if (host == out.end()) {
            out.push_back(std::move(g));
        } else {
            host->bytes += g.bytes;
            host->numParams += g.numParams;
        }
    }
    return out;
}

/** The engine's iteration with @p pool as its parameter groups;
 *  returns the exposed sync. */
double
exposedSyncWith(const HardwareModel &hw, const MetaGraph &graph,
                const ExecutionPlan &plan, const EngineOptions &options,
                const ParameterGroupPool &pool)
{
    Simulator sim(plan.numDevices);
    const std::unique_ptr<DispatchPolicy> policy =
        makeDispatchPolicy(options.dispatch);
    const bool overlap =
        policy->kind() != DispatchPolicyKind::StrictBarrier;
    TransmissionExecutor trans(sim, hw.collectives(), graph, plan);
    WaveDispatcher dispatcher(sim, hw, graph, plan, options, trans,
                              *policy);
    SyncExecutor syncer(sim, hw.collectives(), pool, options);
    SyncStats stats;
    dispatcher.start(0.0, [&](const DispatchStats &st) {
        stats = syncer.execute(st.fwdEnd, st.bwdEnd, overlap);
    });
    sim.queue().run();
    return stats.exposedSync;
}

std::uint32_t
paramCount(const ParameterGroupPool &pool)
{
    std::uint32_t n = 0;
    for (const ParamGroup &g : pool.groups())
        n += g.numParams;
    return n;
}

/** Checks one placed plan: fused pool vs the subset-only one. */
void
expectFusionNeverHurts(const HardwareModel &hw, const MetaGraph &graph,
                       const ExecutionPlan &plan)
{
    // The subset-only pool (no topology) is the test-local copy.
    const ParameterGroupPool subset = ParameterGroupPool::build(graph, plan);
    const std::vector<ParamGroup> reference = subsetOnlyGroups(graph, plan);
    ASSERT_EQ(subset.groups().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(subset.groups()[i].devices, reference[i].devices);
        EXPECT_EQ(subset.groups()[i].bytes, reference[i].bytes);
        EXPECT_EQ(subset.groups()[i].numParams, reference[i].numParams);
    }

    for (CollectiveKind kind : kKinds) {
        SCOPED_TRACE(collectiveKindName(kind));
        const ParameterGroupPool fused = ParameterGroupPool::build(
            graph, plan, &hw.topology(), kind);
        EXPECT_LE(fused.groups().size(), subset.groups().size());
        EXPECT_NEAR(fused.totalSyncBytes(), subset.totalSyncBytes(),
                    1e-12 * subset.totalSyncBytes());
        EXPECT_EQ(paramCount(fused), paramCount(subset));

        for (DispatchPolicyKind policy : kPolicies) {
            SCOPED_TRACE(policy == DispatchPolicyKind::Overlap ? "overlap"
                                                               : "strict");
            EngineOptions options;
            options.collective = kind;
            options.dispatch = policy;
            const double engine =
                Engine(hw, MemoryParams{}, options).run(graph, plan)
                    .breakdown.sync;
            // The replica is the engine's iteration.
            EXPECT_EQ(exposedSyncWith(hw, graph, plan, options, fused),
                      engine);
            EXPECT_LE(engine,
                      exposedSyncWith(hw, graph, plan, options, subset));
        }
    }
}

TEST(ParamGroupFusion, NeverExposesMoreSyncOnSeedWorkloads)
{
    const std::pair<ComputationGraph, std::uint32_t> cases[] = {
        {testutil::fig3Workload(), 2},
        {buildMultitaskClip({.numTasks = 4}), 2},
        {buildMultitaskClip({.numTasks = 4}), 8},
        {buildOfasys({.numTasks = 7}), 4},
        {buildQwenVal({}), 2},
    };
    for (const auto &[graph, nodes] : cases) {
        const MetaGraph meta = contractGraph(graph);
        ClusterTopology topo = testutil::smallCluster(nodes);
        HardwareModel hw(topo);
        {
            SCOPED_TRACE(strCat(nodes, " nodes, sync-priced plan"));
            expectFusionNeverHurts(hw, meta,
                                   ExecutionPlanner(hw).plan(meta).plan);
        }
        {
            SCOPED_TRACE(strCat(nodes, " nodes, sync-blind plan"));
            expectFusionNeverHurts(hw, meta, syncBlindPlan(hw, meta).plan);
        }
    }
}

TEST(ParamGroupFusion, NeverExposesMoreSyncOnTheSweep)
{
    for (std::size_t w = 0; w < 2; ++w) {
        const ComputationGraph graph = sweepWorkload(w);
        const MetaGraph meta = contractGraph(graph);
        for (std::uint32_t gpus : kSweep) {
            SCOPED_TRACE(strCat(kSweepNames[w], " on ", gpus, " GPUs"));
            ClusterTopology topo(nodesOf(gpus));
            HardwareModel hw(topo);
            expectFusionNeverHurts(hw, meta,
                                   ExecutionPlanner(hw).plan(meta).plan);
        }
    }
}

TEST(ParamGroupFusion, FusesAPairOnlyWhenTheOracleSaysCheaper)
{
    // Two private parameter sets on overlapping, non-nested device
    // sets: {0..7} (island 0) and {4..11} (both islands).
    WorkloadBuilder b;
    const std::int32_t t = b.addTask("pair");
    const NodeRange first = b.addModule(
        t, transformerStack("first", OpType::Audio, 32, 229, 768, 3));
    const NodeRange second = b.addModule(
        t, transformerStack("second", OpType::Text, 32, 77, 768, 4));
    b.addFlow(first, second);
    const ComputationGraph graph = b.build();
    const MetaGraph meta = contractGraph(graph);
    ASSERT_EQ(meta.numLevels(), 2u);

    ExecutionPlan plan;
    plan.numDevices = 16;
    for (std::size_t k = 0; k < 2; ++k) {
        const MetaOpId id = meta.level(k).front();
        WaveEntry e;
        e.metaOp = id;
        e.numOps = meta.metaOp(id).numOps();
        for (DeviceId d = 0; d < 8; ++d)
            e.devices.push_back(d + static_cast<DeviceId>(4 * k));
        e.n = static_cast<std::uint32_t>(e.devices.size());
        Wave w;
        w.index = static_cast<std::int32_t>(k);
        w.level = static_cast<std::int32_t>(k);
        w.entries.push_back(std::move(e));
        plan.waves.push_back(std::move(w));
    }
    const ParameterGroupPool subset = ParameterGroupPool::build(meta, plan);
    ASSERT_EQ(subset.groups().size(), 2u);
    const ParamGroup &a = subset.groups()[0];
    const ParamGroup &c = subset.groups()[1];
    const DeviceSet both = unionOf(a.devices, c.devices);

    // The nominal fabric's collective class is faster than NVLink, so
    // one ring over both wins; a slow one makes island 0's bytes
    // cheaper on their own ring.
    bool seen_fused = false, seen_kept = false;
    for (double inter_bw : {400 * kGiga, 5 * kGiga}) {
        ClusterConfig cfg = testutil::contiguousIslandConfig(2, 8);
        cfg.interIslandCollective.bandwidth = inter_bw;
        ClusterTopology topo(cfg);
        const CollectiveModel coll(topo);
        for (CollectiveKind kind : kKinds) {
            SCOPED_TRACE(strCat(collectiveKindName(kind), " at ",
                                inter_bw / kGiga, " GB/s"));
            const bool cheaper =
                coll.allReduceTime(a.bytes + c.bytes, both, kind) <
                coll.allReduceTime(a.bytes, a.devices, kind) +
                    coll.allReduceTime(c.bytes, c.devices, kind);
            const ParameterGroupPool pool =
                ParameterGroupPool::build(meta, plan, &topo, kind);
            if (cheaper) {
                seen_fused = true;
                ASSERT_EQ(pool.groups().size(), 1u);
                EXPECT_EQ(pool.groups()[0].devices, both);
                EXPECT_EQ(pool.groups()[0].bytes, a.bytes + c.bytes);
                EXPECT_EQ(pool.groups()[0].numParams,
                          a.numParams + c.numParams);
            } else {
                seen_kept = true;
                ASSERT_EQ(pool.groups().size(), 2u);
                for (std::size_t i = 0; i < 2; ++i) {
                    EXPECT_EQ(pool.groups()[i].devices,
                              subset.groups()[i].devices);
                    EXPECT_EQ(pool.groups()[i].bytes,
                              subset.groups()[i].bytes);
                }
            }
        }
    }
    EXPECT_TRUE(seen_fused);
    EXPECT_TRUE(seen_kept);
}

} // namespace
} // namespace spindle
