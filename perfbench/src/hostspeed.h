/**
 * @file
 * Host-speed calibration of wall-clock metrics.
 *
 * On a shared virtual machine the same deterministic op runs at
 * different speeds: with the co-tenants' load the core clock moves
 * (1.15x), and so do the latency of the shared L3 (1.2-1.45x) and
 * the cost of allocating and filling fresh memory (1.5x). A cold
 * 4096-GPU plan took 26 ms in one run and 47 ms in another, in slow
 * and fast stretches lasting seconds to minutes, which a median over
 * one run cannot remove. So the benchmark times a fixed probe, which
 * never changes with the library, between its timed stretches while
 * the program is idle, and scales each stretch's durations to the
 * probe's reference speed:
 *
 *     reported = measured * (f_before + f_after) / 2,
 *     f        = (chain_ref / chain) * sqrt((chase_ref / chase) *
 *                                           (map_ref / map))
 *
 * chain: a dependent multiply-add chain (the core clock). chase: a
 * random pointer chase over a 1 MB buffer just evicted from the
 * core's L2 (the L3 latency). map: a 20k-entry hash map built,
 * searched and freed on the process heap (allocation and fresh
 * memory, what the planner and the engine spend most time on). Of
 * the probes tried, this mix tracked the plan and iteration times
 * best across both kinds of slow stretch seen. The references are
 * the probe's times on a quiet 4-vCPU Xeon VM, so there f is about 1
 * and the reported values are the measured ones.
 */

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class HostSpeed
{
  public:
    HostSpeed();

    /** Time the probe once and return its f. Call it only while the
     *  program does no work, or the probe measures the program too. */
    double sample();

    /** Probe again and return the factor of the stretch since the
     *  previous probe: the mean f of the two. */
    double endStretch();

    /** Median f over the run, with the probe's median times. */
    double factor() const;
    std::string describe() const;

  private:
    std::vector<std::uint32_t> next_; ///< one random cycle
    std::vector<std::uint64_t> evict_;
    std::vector<double> chainMs_, chaseMs_, mapMs_, factors_;
    std::uint64_t state_ = 1;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
