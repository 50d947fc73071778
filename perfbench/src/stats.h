/**
 * @file
 * Timing, sample statistics and the seeded random stream the
 * benchmark's generators draw from.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
double msSince(Clock::time_point t0);

/**
 * One nearest-rank percentile with the sample count behind it: a
 * tail percentile is only trustworthy with at least ten samples
 * beyond it, so the count travels with the value.
 */
struct Percentile
{
    double p = 0;
    double value = 0;
    std::size_t samples = 0;

    /** Samples strictly ranked above the reported one. */
    std::size_t beyond = 0;

    /** A tail percentile needs ten samples beyond it. */
    bool resolved() const { return p <= 0.5 || beyond >= 10; }
};

/** Nearest-rank percentile @p p in (0, 1] of @p samples (value 0
 *  and no samples when empty). */
Percentile percentile(std::vector<double> samples, double p);

/** Durations of one timed op, as measured and scaled to the
 *  reference host speed (see hostspeed.h). */
struct Timings
{
    std::vector<double> measured, scaled;

    void add(double duration, double factor)
    {
        measured.push_back(duration);
        scaled.push_back(duration * factor);
    }
};

double mean(const std::vector<double> &samples);

/** Ops per second of a closed loop whose op latencies (ms) are
 *  @p samples: their count over their summed time. */
double throughput(const std::vector<double> &samples_ms);

/**
 * splitmix64 stream. Defined here rather than taken from <random>
 * because the standard distributions are implementation-defined:
 * one seed must give the same inputs with every standard library.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform integer in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform double in [0, 1). */
    double uniform();

  private:
    std::uint64_t state_;
};

/** Peak resident set size of this process, MB (VmHWM). */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_H
