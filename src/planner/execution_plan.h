/**
 * @file
 * The Spindle execution plan: a sequence of waves (paper §3.4,
 * Fig. 5b). A wave is the smallest scheduling unit — one concurrent
 * execution of sliced MetaOps on disjoint, fixed device groups.
 * Data flows are transmitted only between waves.
 */

#ifndef SPINDLE_PLANNER_EXECUTION_PLAN_H
#define SPINDLE_PLANNER_EXECUTION_PLAN_H

#include <string>
#include <vector>

#include "hardware/device.h"
#include "planner/allocation.h"

namespace spindle {

/** One sliced MetaOp execution inside a wave. */
struct WaveEntry
{
    MetaOpId metaOp = -1;

    /** Devices allocated (n of the ASL-tuple slice). */
    std::uint32_t n = 0;

    /** Index of the first member operator executed in this wave. */
    std::int64_t opBegin = 0;

    /** Number of consecutive member operators executed. */
    std::int64_t numOps = 0;

    /** Estimated execution time of the slice (curve-based). */
    double duration = 0;

    /** Concrete devices; filled in by device placement (§3.5). */
    DeviceSet devices;
};

/** One wave: concurrent entries on disjoint device groups. */
struct Wave
{
    std::int32_t index = -1;

    /** MetaLevel this wave belongs to. */
    std::int32_t level = -1;

    /**
     * Execution stream. Waves of one stream execute strictly in
     * order; waves of different streams are independent (used by the
     * task-parallel Spindle-Optimus baseline; Spindle itself emits a
     * single stream because waves are global barriers).
     */
    std::int32_t stream = 0;

    /**
     * Readiness edges (§3.6 event-driven dispatch): indices of the
     * waves that must complete before this wave may be admitted.
     * Sorted, unique, strictly smaller than this wave's index.
     *
     * The edges cover (a) transmission producers and consumers — the
     * waves that produced each entry's inputs (predecessor MetaOps'
     * final slices, or the same MetaOp's previous slice); (b) the
     * previous wave of the same stream (program order); and (c) per
     * device-group wave predecessors — once the plan is placed, the
     * latest earlier wave sharing any device.
     *
     * Empty on plans that were never annotated (see
     * annotateWaveReadiness()); the runtime then derives the edges
     * itself.
     */
    std::vector<std::int32_t> predecessors;

    /** Estimated start time within the plan (compute span only). */
    double start = 0;

    /** Estimated duration = max over entries. */
    double duration = 0;

    std::vector<WaveEntry> entries;

    /** Total devices allocated across entries. */
    std::uint32_t devicesAllocated() const;
};

/**
 * Full execution plan for one training iteration.
 */
struct ExecutionPlan
{
    std::vector<Wave> waves;
    std::uint32_t numDevices = 0;

    /** Estimated span (sum of wave durations). The durations price
     *  each entry's share of its predicted gradient-sync tail
     *  (syncPricedCurve), so the span includes it. */
    double estimatedSpan = 0;

    /** Sum of per-level continuous optima C~* (Fig. 11 bound), over
     *  the curves the allocator read: the sync-priced grid (the
     *  compute-only one on PlannerOutput::syncBlindFallback). */
    double theoreticalOptimum = 0;

    /** Per-level allocator output (kept for analysis/tests). */
    std::vector<LevelAllocation> allocations;

    /**
     * Check the structural invariants the paper's formulation
     * demands; panic()s with a description on violation:
     *  - every wave's entries allocate <= numDevices in total;
     *  - a MetaOp appears at most once per wave (Eq. 6: intervals
     *    of the same MetaOp are disjoint);
     *  - each MetaOp executes exactly L_m operators overall, in
     *    contiguous slices (Eq. 7);
     *  - a MetaOp's first slice starts only after every predecessor
     *    MetaOp has fully executed in earlier waves (Eq. 3);
     *  - placed entries within a wave occupy disjoint device sets
     *    of the declared size;
     *  - when readiness edges are annotated, every predecessor index
     *    is in range and strictly earlier, the lists are sorted and
     *    unique, and every data producer (transmission producer or
     *    previous slice) is covered by an edge.
     */
    void validate(const MetaGraph &graph) const;

    /**
     * Fill Wave::predecessors for every wave (see that field for the
     * edge kinds). Safe to call again after placement: device-group
     * predecessor edges are only derivable once entries are placed.
     */
    void annotateReadiness(const MetaGraph &graph);

    /** True when readiness edges were annotated (any wave carries
     *  predecessors). */
    bool hasReadiness() const;

    /** Human-readable wave-by-wave rendering (examples, debugging). */
    std::string str(const MetaGraph &graph) const;
};

/**
 * Compute the readiness edges of @p waves without storing them (the
 * adjacency the event-driven runtime dispatches on). Wave indices
 * must equal their positions. Device-group predecessor edges are
 * included only for placed entries.
 */
std::vector<std::vector<std::int32_t>>
computeWaveReadiness(const MetaGraph &graph,
                     const std::vector<Wave> &waves);

/** Store computeWaveReadiness() edges into @p waves in place. */
void annotateWaveReadiness(const MetaGraph &graph,
                           std::vector<Wave> &waves);

/** True when any wave of @p waves carries readiness predecessors. */
bool hasWaveReadiness(const std::vector<Wave> &waves);

} // namespace spindle

#endif // SPINDLE_PLANNER_EXECUTION_PLAN_H
