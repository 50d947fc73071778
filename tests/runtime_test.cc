/**
 * @file
 * Unit tests for runtime/: transmission insertion, the parameter
 * device-group pool, the engine's wave-by-wave execution, and peak
 * memory accounting (§3.6).
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/math_util.h"
#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

struct RuntimeFixture : public ::testing::Test
{
    RuntimeFixture()
        : graph(fig3Workload()), meta(contractGraph(graph)),
          topo(smallCluster(2)), hw(topo), planner(hw),
          out(planner.plan(meta))
    {
    }

    ComputationGraph graph;
    MetaGraph meta;
    ClusterTopology topo;
    HardwareModel hw;
    ExecutionPlanner planner;
    PlannerOutput out;
};

TEST_F(RuntimeFixture, TransmissionsOnlyBetweenDistinctDeviceSets)
{
    CollectiveModel coll(topo);
    auto trans = buildTransmissions(meta, out.plan, coll);
    for (const TransmissionOp &t : trans) {
        EXPECT_NE(t.srcDevices, t.dstDevices);
        EXPECT_GT(t.bytes, 0);
        EXPECT_GE(t.seconds, 0);
        EXPECT_LT(t.srcWave, t.dstWave);
    }
}

TEST_F(RuntimeFixture, TransmissionBytesMatchFlowVolumes)
{
    CollectiveModel coll(topo);
    auto trans = buildTransmissions(meta, out.plan, coll);
    for (const TransmissionOp &t : trans) {
        const MetaOp &m = meta.metaOp(t.dstMeta);
        bool is_edge_volume = false;
        for (const MetaEdge &e : meta.edges())
            if (e.dst == t.dstMeta &&
                nearlyEqual(e.flowBytes, t.bytes))
                is_edge_volume = true;
        bool is_chain_volume = nearlyEqual(m.activationBytes, t.bytes);
        EXPECT_TRUE(is_edge_volume || is_chain_volume);
    }
}

TEST_F(RuntimeFixture, ParamPoolGroupsSharedParamsAcrossTasks)
{
    ParameterGroupPool pool = ParameterGroupPool::build(meta, out.plan);
    EXPECT_FALSE(pool.groups().empty());
    EXPECT_GT(pool.totalSyncBytes(), 0);
    // Shared text/LM parameters are hosted by both tasks, so at
    // least one group must span more than one device.
    bool multi = false;
    for (const ParamGroup &g : pool.groups())
        if (g.devices.size() > 1)
            multi = true;
    EXPECT_TRUE(multi);
}

TEST_F(RuntimeFixture, ParamPoolFusesSubsetGroups)
{
    ParameterGroupPool pool = ParameterGroupPool::build(meta, out.plan);
    // After bucket fusion no group's device set is contained in
    // another group's.
    const auto &groups = pool.groups();
    for (std::size_t i = 0; i < groups.size(); ++i) {
        for (std::size_t j = 0; j < groups.size(); ++j) {
            if (i == j)
                continue;
            EXPECT_FALSE(std::includes(groups[j].devices.begin(),
                                       groups[j].devices.end(),
                                       groups[i].devices.begin(),
                                       groups[i].devices.end()))
                << "group " << i << " fusible into " << j;
        }
    }
}

TEST_F(RuntimeFixture, EngineProducesConsistentBreakdown)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.iterationSeconds, 0);
    EXPECT_GT(r.breakdown.fwdBwd, 0);
    EXPECT_GE(r.breakdown.sync, 0);
    EXPECT_GE(r.breakdown.sendRecv, 0);
    EXPECT_NEAR(r.breakdown.total(), r.iterationSeconds,
                1e-9 * r.iterationSeconds);
}

TEST_F(RuntimeFixture, ForwardAndBackwardDominateIteration)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    // The paper reports fwd+bwd at 80-95% of MT MM iterations.
    EXPECT_GT(r.breakdown.fwdBwd, 0.5 * r.iterationSeconds);
}

TEST_F(RuntimeFixture, EngineIsDeterministic)
{
    Engine engine(hw);
    IterationResult a = engine.run(meta, out.plan);
    IterationResult b = engine.run(meta, out.plan);
    EXPECT_DOUBLE_EQ(a.iterationSeconds, b.iterationSeconds);
    EXPECT_DOUBLE_EQ(a.breakdown.sync, b.breakdown.sync);
    EXPECT_EQ(a.timeline.records().size(), b.timeline.records().size());
}

TEST_F(RuntimeFixture, TimelineCoversComputeAndSync)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.timeline.totalDeviceSeconds(ExecKind::Compute), 0);
    EXPECT_GT(r.timeline.totalDeviceSeconds(ExecKind::Sync), 0);
    EXPECT_GT(r.timeline.totalFlops(),
              meta.base().totalFlopsFwd() * 2.9); // fwd + ~2x bwd
}

TEST_F(RuntimeFixture, EngineMatchesPlanEstimateLoosely)
{
    // The estimated compute span and the simulated fwd+bwd phase
    // should agree within a modest factor (estimation error +
    // transmissions + barriers).
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.breakdown.fwdBwd, 0.6 * out.plan.estimatedSpan);
    EXPECT_LT(r.breakdown.fwdBwd, 1.6 * out.plan.estimatedSpan);
}

TEST_F(RuntimeFixture, PeakMemoryDedupsSharedParameters)
{
    MemoryModel mem;
    auto peak = peakMemoryPerDevice(meta, out.plan, hw, mem);
    ASSERT_EQ(peak.size(), topo.numDevices());
    for (double b : peak)
        EXPECT_GE(b, 0);
    // Total hosted parameter state cannot exceed a full replica per
    // device (the decoupled upper bound).
    double replica =
        graph.totalUniqueParamBytes() * (1 + mem.params().optimizerFactor);
    for (double b : peak)
        EXPECT_LE(b, replica);
}

/**
 * Reference peak-memory accounting, one parameter map per device:
 * the key's device group is the union of the devices hosting it,
 * and each device sums its map in bucket order after its
 * activations.
 */
std::vector<double>
perDevicePeakMemory(const MetaGraph &graph, const ExecutionPlan &plan,
                    const HardwareModel &hw, const MemoryModel &mem)
{
    auto key_of = [](const OperatorDesc &op) {
        return op.paramKey != kNoParam
                   ? static_cast<std::int64_t>(op.paramKey)
                   : -(static_cast<std::int64_t>(op.id) + 2);
    };
    std::map<std::int64_t, DeviceSet> group_of;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes > 0)
                    group_of[key_of(op)] =
                        unionOf(group_of[key_of(op)], e.devices);
            }
        }
    }
    std::vector<std::unordered_map<std::int64_t, double>> params(
        plan.numDevices);
    std::vector<double> act(plan.numDevices, 0.0);
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            const ParallelConfig cfg = hw.bestConfig(memberDesc(m), e.n);
            const double act_share =
                mem.activationBytesPerDevice(m, e.numOps, cfg);
            for (DeviceId d : e.devices) {
                act[d] += act_share;
                for (std::int64_t i = 0; i < e.numOps; ++i) {
                    const OperatorDesc &op =
                        graph.base().op(m.ops[e.opBegin + i]);
                    if (op.paramBytes <= 0)
                        continue;
                    const std::int64_t key = key_of(op);
                    const double shard =
                        op.paramBytes / cfg.tp /
                        (mem.params().zeroShardParams ? cfg.dp : 1.0);
                    const double share =
                        shard +
                        op.paramBytes * mem.params().optimizerFactor /
                            (mem.params().zeroShardOptimizer
                                 ? static_cast<double>(
                                       group_of[key].size())
                                 : cfg.tp);
                    auto [it, inserted] = params[d].emplace(key, share);
                    if (!inserted && share > it->second)
                        it->second = share;
                }
            }
        }
    }
    std::vector<double> peak(plan.numDevices, 0.0);
    for (std::uint32_t d = 0; d < plan.numDevices; ++d) {
        peak[d] = act[d];
        for (const auto &[key, bytes] : params[d])
            peak[d] += bytes;
    }
    return peak;
}

TEST(PeakMemory, MatchesPerDeviceReferenceBitForBit)
{
    struct Case
    {
        ComputationGraph graph;
        std::uint32_t nodes;
    };
    Case cases[] = {
        {fig3Workload(), 2},
        {buildMultitaskClip({.numTasks = 4}), 8},
        {buildMultitaskClip({.numTasks = 10}), 64},
        {buildOfasys({.numTasks = 5}), 8},
    };
    for (const Case &c : cases) {
        const MetaGraph meta = contractGraph(c.graph);
        const ClusterTopology topo = smallCluster(c.nodes);
        const HardwareModel hw(topo);
        ExecutionPlanner planner(hw);
        const PlannerOutput out = planner.plan(meta);
        for (int zero = 0; zero < 4; ++zero) {
            MemoryParams params;
            params.zeroShardOptimizer = (zero & 1) != 0;
            params.zeroShardParams = (zero & 2) != 0;
            const MemoryModel mem(params);
            SCOPED_TRACE(strCat(c.nodes, " nodes, zero flags ", zero));
            EXPECT_EQ(peakMemoryPerDevice(meta, out.plan, hw, mem),
                      perDevicePeakMemory(meta, out.plan, hw, mem));
        }
    }
}

TEST_F(RuntimeFixture, SyncOverlapReducesExposedCost)
{
    EngineOptions no_overlap;
    no_overlap.syncOverlapFraction = 0.0;
    no_overlap.minSyncFraction = 1.0;
    Engine raw(hw, MemoryParams{}, no_overlap);
    Engine overlapped(hw);
    double t_raw = raw.run(meta, out.plan).breakdown.sync;
    double t_ovl = overlapped.run(meta, out.plan).breakdown.sync;
    EXPECT_LE(t_ovl, t_raw);
}

TEST_F(RuntimeFixture, OverlapPolicyBreakdownIsConsistent)
{
    EngineOptions options;
    options.dispatch = DispatchPolicyKind::Overlap;
    Engine engine(hw, MemoryParams{}, options);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.iterationSeconds, 0);
    EXPECT_GT(r.breakdown.fwdBwd, 0);
    EXPECT_GE(r.breakdown.sync, 0);
    EXPECT_GE(r.breakdown.sendRecv, 0);
    EXPECT_NEAR(r.breakdown.total(), r.iterationSeconds,
                1e-9 * r.iterationSeconds);
}

TEST(Runtime, EmptyPlanYieldsZeroIteration)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    Engine engine(hw);
    ExecutionPlan plan;
    plan.numDevices = 8;
    IterationResult r = engine.run(meta, plan);
    EXPECT_DOUBLE_EQ(r.iterationSeconds, 0.0);
}

} // namespace
} // namespace spindle
