#include "workloads.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

using namespace spindle;

std::uint32_t
minTasks(Family)
{
    return 3;
}

std::uint32_t
maxTasks(Family family)
{
    return family == Family::Clip ? 10 : 7;
}

std::string
mixName(const Mix &mix)
{
    return strCat(mix.family == Family::Clip ? "CLIP-" : "OFASys-",
                  mix.tasks, "/b", mix.batchLevel);
}

ComputationGraph
buildMixGraph(const Mix &mix)
{
    if (mix.family == Family::Clip)
        return buildMultitaskClip({.numTasks = mix.tasks,
                                   .batchLight = kClipLight[mix.batchLevel],
                                   .batchHeavy = kClipHeavy[mix.batchLevel]});
    return buildOfasys(
        {.numTasks = mix.tasks, .batch = kOfasysBatch[mix.batchLevel]});
}

ClusterConfig
clusterConfig(std::uint32_t nodes, double fabric_scale)
{
    ClusterConfig config;
    config.numNodes = nodes;
    config.gpusPerNode = 8;
    config.interIslandCollective.bandwidth *= fabric_scale;
    return config;
}

double
drawFabricScale(Rng &rng)
{
    return 1.0 + 0.005 * (static_cast<double>(rng.below(9)) - 4.0);
}

Rng
streamFor(std::uint64_t seed, const char *purpose)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (const char *c = purpose; *c != '\0'; ++c)
        h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
    return Rng(seed ^ h);
}

ScaleInputs
generateScale(std::uint64_t seed)
{
    Rng rng = streamFor(seed, "scale-4096");
    return {drawFabricScale(rng)};
}

ServiceInputs
generateService(std::uint64_t seed)
{
    Rng rng = streamFor(seed, "service-mix");
    ServiceInputs out;
    out.fabricScale = drawFabricScale(rng);
    for (const std::uint32_t nodes : {8u, 32u}) {
        for (const Family f : {Family::Clip, Family::Ofasys}) {
            for (std::uint32_t t = minTasks(f); t <= maxTasks(f); ++t) {
                for (std::uint32_t b = 0; b < kBatchLevels; ++b)
                    out.pool.push_back({{f, t, b}, nodes});
            }
        }
    }
    // Zipf(1) popularity over a permutation of the pool that is the
    // same for every seed: the top few inputs take most requests, so
    // a seeded ranking made the medians a property of the seed.
    Rng order = streamFor(0, "service-mix popularity");
    std::vector<std::size_t> rank(out.pool.size());
    std::iota(rank.begin(), rank.end(), 0);
    for (std::size_t i = rank.size(); i > 1; --i)
        std::swap(rank[i - 1], rank[order.below(i)]);
    std::vector<double> weight(out.pool.size());
    for (std::size_t i = 0; i < rank.size(); ++i)
        weight[rank[i]] = 1.0 / static_cast<double>(i + 1);
    out.cdf.resize(weight.size());
    std::partial_sum(weight.begin(), weight.end(), out.cdf.begin());
    for (double &c : out.cdf)
        c /= out.cdf.back();
    return out;
}

std::uint32_t
RequestStream::next()
{
    const double u = rng_.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

double
dueTimeMs(std::size_t i, double rate)
{
    return 1000.0 * static_cast<double>(i) / rate;
}

OpenLoopSummary
summarizeOpenLoop(const std::vector<OpenLoopRecord> &records)
{
    OpenLoopSummary out;
    out.latencyMs.reserve(records.size());
    out.lagMs.reserve(records.size());
    for (const OpenLoopRecord &r : records) {
        out.latencyMs.push_back(r.doneMs - r.dueMs);
        out.lagMs.push_back(r.sentMs - r.dueMs);
    }
    return out;
}

} // namespace perfbench
