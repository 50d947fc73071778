/**
 * @file
 * Shared fixtures for the Spindle test suite.
 */

#ifndef SPINDLE_TESTS_TEST_UTIL_H
#define SPINDLE_TESTS_TEST_UTIL_H

#include <bit>

#include "spindle/spindle.h"

namespace spindle::testutil {

/** A 2-node x 8-GPU cluster with default link classes. */
inline ClusterTopology
smallCluster(std::uint32_t num_nodes = 2)
{
    ClusterConfig cfg;
    cfg.numNodes = num_nodes;
    cfg.gpusPerNode = 8;
    return ClusterTopology(cfg);
}

/**
 * The paper's Fig. 3 style workload: an audio-language and a
 * vision-language task sharing a text encoder and an LM.
 */
inline ComputationGraph
fig3Workload(std::int64_t batch = 32)
{
    WorkloadBuilder b;
    SharedModule text = b.declareShared(
        transformerStack("text", OpType::Text, batch, 77, 768, 4));
    SharedModule lm = b.declareShared(
        transformerStack("lm", OpType::LM, batch, 512, 1024, 6));

    std::int32_t t0 = b.addTask("audio-language");
    NodeRange a0 = b.addModule(
        t0, transformerStack("t0.audio", OpType::Audio, batch, 229, 768, 3));
    NodeRange x0 = b.addModule(
        t0, transformerStack("t0.text", OpType::Text, batch, 77, 768, 4),
        &text);
    NodeRange l0 = b.addModule(
        t0, transformerStack("t0.lm", OpType::LM, batch, 512, 1024, 6),
        &lm);
    b.addFlow(a0, l0);
    b.addFlow(x0, l0);

    std::int32_t t1 = b.addTask("vision-language");
    NodeRange v1 = b.addModule(
        t1, transformerStack("t1.vision", OpType::Vision, batch, 257, 1024,
                             5));
    NodeRange x1 = b.addModule(
        t1, transformerStack("t1.text", OpType::Text, batch, 77, 768, 4),
        &text);
    NodeRange l1 = b.addModule(
        t1, transformerStack("t1.lm", OpType::LM, batch, 512, 1024, 6),
        &lm);
    b.addFlow(v1, l1);
    b.addFlow(x1, l1);
    return b.build();
}

/**
 * The striping relabel pi(d) = (d % size) * islands + d / size:
 * contiguous island k (ids [k*size, (k+1)*size)) becomes the striped
 * island k ({k, k + islands, k + 2*islands, ...}). Island order and
 * the relative id order inside each island are both preserved, so
 * pi is an isomorphism of the island graph — the renumbering and
 * collective-invariance tests both build on it.
 */
struct StripeRelabel
{
    std::uint32_t islands;
    std::uint32_t size;

    DeviceId
    operator()(DeviceId d) const
    {
        return (d % size) * islands + d / size;
    }

    DeviceSet
    image(const DeviceSet &devices) const
    {
        DeviceSet out;
        out.reserve(devices.size());
        for (DeviceId d : devices)
            out.push_back((*this)(d));
        canonicalize(out);
        return out;
    }
};

/** Homogeneous islands x size cluster with contiguous id islands. */
inline ClusterConfig
contiguousIslandConfig(std::uint32_t islands = 2, std::uint32_t size = 8)
{
    ClusterConfig cfg;
    cfg.numNodes = islands;
    cfg.gpusPerNode = size;
    return cfg;
}

/** The StripeRelabel image of contiguousIslandConfig(). */
inline ClusterConfig
stripedIslandConfig(std::uint32_t islands = 2, std::uint32_t size = 8)
{
    StripeRelabel pi{islands, size};
    ClusterConfig cfg;
    cfg.islands.resize(islands);
    for (std::uint32_t k = 0; k < islands; ++k)
        for (std::uint32_t j = 0; j < size; ++j)
            cfg.islands[k].devices.push_back(pi(k * size + j));
    return cfg;
}

/** Contiguous-id islands of the given (possibly mixed) sizes. */
inline ClusterConfig
heteroIslandConfig(const std::vector<std::uint32_t> &sizes)
{
    ClusterConfig cfg;
    std::uint32_t next = 0;
    for (std::uint32_t s : sizes) {
        IslandSpec island;
        for (std::uint32_t i = 0; i < s; ++i)
            island.devices.push_back(next++);
        cfg.islands.push_back(std::move(island));
    }
    return cfg;
}

/** FNV-1a digest of everything a plan and its placement carry. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of the plan (waves, entries, devices, allocations) plus the
 *  placement's estimatedCommSeconds and peakBytes. */
inline std::uint64_t
planDigest(const PlannerOutput &out)
{
    Digest d;
    const ExecutionPlan &plan = out.plan;
    d.add(std::uint64_t{plan.numDevices});
    d.add(plan.estimatedSpan);
    d.add(plan.theoreticalOptimum);
    for (const Wave &w : plan.waves) {
        d.add(std::int64_t{w.index});
        d.add(std::int64_t{w.level});
        d.add(w.start);
        d.add(w.duration);
        for (const WaveEntry &e : w.entries) {
            d.add(std::int64_t{e.metaOp});
            d.add(std::uint64_t{e.n});
            d.add(e.opBegin);
            d.add(e.numOps);
            d.add(e.duration);
            for (DeviceId dev : e.devices)
                d.add(std::uint64_t{dev});
        }
    }
    for (const LevelAllocation &a : plan.allocations) {
        d.add(a.continuous.cStar);
        for (const MetaOpAllocation &p : a.plans)
            for (const AslTuple &t : p.tuples) {
                d.add(std::uint64_t{t.n});
                d.add(t.l);
            }
    }
    d.add(out.placement.estimatedCommSeconds);
    for (double b : out.placement.peakBytes)
        d.add(b);
    return d.value();
}

/** planDigest() extended with the rest of the placement result:
 *  interIslandCommSeconds and the memory-fallback facts. */
inline std::uint64_t
placementDigest(const PlannerOutput &out)
{
    Digest d;
    d.add(planDigest(out));
    d.add(out.placement.interIslandCommSeconds);
    d.add(std::uint64_t{out.placement.usedMemoryFallback});
    d.add(std::uint64_t{out.placement.fallbackRestartWave});
    return d.value();
}

/**
 * Whether some entry of @p plan (of wave @p from_wave or later) is
 * placed while a run of more than 2K consecutive equal-size islands
 * (K = ceil(n / island size) + 1) holds no device of its wave or of an
 * earlier one: a run the placement view cuts to its ends. Conservative, as the devices counted include those
 * of entries placed after it in its wave. Assumes islands are
 * contiguous id ranges in index order (shorthand and
 * heteroIslandConfig() clusters).
 */
inline bool
placesBesideCollapsedRun(const ExecutionPlan &plan,
                         const ClusterTopology &topo,
                         std::size_t from_wave = 0)
{
    std::vector<char> used(topo.numIslands(), 0);
    for (std::size_t wi = 0; wi < plan.waves.size(); ++wi) {
        const Wave &w = plan.waves[wi];
        for (const WaveEntry &e : w.entries)
            for (DeviceId d : e.devices)
                used[topo.islandOf(d)] = 1;
        if (wi < from_wave)
            continue;
        for (const WaveEntry &e : w.entries) {
            std::uint32_t run = 0;
            for (std::uint32_t i = 0; i < topo.numIslands(); ++i) {
                const std::uint32_t size = topo.islandSizeOf(i);
                if (used[i])
                    run = 0;
                else if (run > 0 && size != topo.islandSizeOf(i - 1))
                    run = 1;
                else
                    ++run;
                if (run > 2 * ((e.n + size - 1) / size + 1))
                    return true;
            }
        }
    }
    return false;
}

/** One bare operator description for low-level hardware tests. */
inline OperatorDesc
plainOp(std::int64_t batch = 32, std::int64_t seq = 128,
        std::int64_t hidden = 1024, OpType type = OpType::Text)
{
    OperatorDesc op;
    op.name = "op";
    op.type = type;
    op.input = {batch, seq, hidden};
    op.flopsFwd = transformerFwdFlops(batch, seq, hidden);
    op.paramBytes = transformerParamBytes(hidden);
    op.activationBytes = activationBytesOf(op.input);
    return op;
}

} // namespace spindle::testutil

#endif // SPINDLE_TESTS_TEST_UTIL_H
