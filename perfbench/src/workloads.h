/**
 * @file
 * Seeded input generation for the workloads, the open-loop
 * latency accounting, and the workload entry points. Every input a
 * run feeds the library is a pure function of --seed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "spindle/spindle.h"
#include "stats.h"

namespace perfbench {

class WorkloadResult;

// ------------------------------------------------------------ inputs

enum class Family : std::uint8_t
{
    Clip,   ///< Multitask-CLIP, 3..10 tasks
    Ofasys, ///< OFASys, 3..7 tasks
};

/** One task mix: model family, task count and a batch level. */
struct Mix
{
    Family family = Family::Clip;
    std::uint32_t tasks = 10;
    std::uint32_t batchLevel = 1; ///< index into kBatchLevels

    auto operator<=>(const Mix &) const = default;
};

/** Batch levels: CLIP (light, heavy) batches and the OFASys batch.
 *  Level 1 is the models' default configuration. */
inline constexpr std::int64_t kClipLight[] = {48, 64, 80};
inline constexpr std::int64_t kClipHeavy[] = {32, 48, 64};
inline constexpr std::int64_t kOfasysBatch[] = {48, 64, 80};
inline constexpr std::uint32_t kBatchLevels = 3;

std::uint32_t minTasks(Family family);
std::uint32_t maxTasks(Family family);

/** "CLIP-7/b1", "OFASys-4/b0". */
std::string mixName(const Mix &mix);

spindle::ComputationGraph buildMixGraph(const Mix &mix);

/**
 * Homogeneous cluster of @p nodes x 8 GPUs whose inter-node
 * collective bandwidth is scaled by @p fabric_scale. The planner
 * never prices that link, so the scale moves the simulated sync time
 * smoothly without changing any plan.
 */
spindle::ClusterConfig clusterConfig(std::uint32_t nodes,
                                     double fabric_scale);

/** Seeded inter-node collective bandwidth scale: 1 + 0.005k for k
 *  in [-4, 4] — a calibration spread of +-2% around nominal. */
double drawFabricScale(Rng &rng);

/** Independent stream per (seed, workload, purpose). */
Rng streamFor(std::uint64_t seed, const char *purpose);

struct ScaleInputs
{
    double fabricScale = 1;
};

ScaleInputs generateScale(std::uint64_t seed);

/** One distinct service request input: a mix on a tenant cluster. */
struct ServiceInput
{
    Mix mix;
    std::uint32_t nodes = 8;
};

struct ServiceInputs
{
    double fabricScale = 1;

    /** Every (mix, cluster) a tenant may ask for. */
    std::vector<ServiceInput> pool;

    /** Cumulative request probability over the pool: Zipf(1) over a
     *  fixed permutation, so a few inputs are popular (full-hit
     *  dedupes) and a long tail keeps cold plans in the mix. The seed
     *  draws the request streams, not the popularity. */
    std::vector<double> cdf;
};

ServiceInputs generateService(std::uint64_t seed);

/** Seeded stream of pool indices drawn from ServiceInputs::cdf. */
class RequestStream
{
  public:
    RequestStream(const ServiceInputs &inputs, Rng rng)
        : cdf_(inputs.cdf), rng_(rng)
    {
    }

    std::uint32_t next();

  private:
    const std::vector<double> &cdf_;
    Rng rng_;
};

// ------------------------------------------------- open-loop accounting

/** Timestamps of one open-loop request, ms since the phase start. */
struct OpenLoopRecord
{
    double dueMs = 0;  ///< when the schedule said to send it
    double sentMs = 0; ///< when the generator actually submitted it
    double doneMs = 0; ///< when its completion was observed
};

/** Due time of request @p i at a fixed offered @p rate (1/s). */
double dueTimeMs(std::size_t i, double rate);

struct OpenLoopSummary
{
    /** done - due: a generator stall is charged to every request it
     *  delayed, not hidden by timing from the late send. */
    std::vector<double> latencyMs;

    /** sent - due: how late the generator ran. */
    std::vector<double> lagMs;
};

OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopRecord> &records);

// ----------------------------------------------------- entry points

struct RunOptions
{
    std::uint64_t seed = 0;
    double seconds = 1;
    bool trace = false;

    /** Chrome trace output path (traced runs only). */
    std::string traceFile;
};

/** Repetitions of the set-up phase per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 9;

WorkloadResult runScale4096(const RunOptions &options);
WorkloadResult runServiceMix(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
