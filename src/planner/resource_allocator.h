/**
 * @file
 * Resource allocator (paper §3.3): per-MetaLevel device allocation.
 *
 * The level sub-problem (Eqs. 4-7) relaxes to a malleable project
 * scheduling problem (MPSP) when devices and operators are
 * continuously divisible. By Theorem 1, the relaxed optimum has all
 * MetaOps start together and finish together at C~*, found by a
 * bisection search over Eq. (9) (Appendix B, Alg. 2). The fractional
 * allocations n*_m are then reinstated as integers by the bi-point
 * discretization of Conds. (10a)/(10b), producing at most two
 * ASL-tuples per MetaOp (plus ignorable dummy allocations).
 */

#ifndef SPINDLE_PLANNER_RESOURCE_ALLOCATOR_H
#define SPINDLE_PLANNER_RESOURCE_ALLOCATOR_H

#include <vector>

#include "cost/scaling_curve.h"
#include "planner/allocation.h"

namespace spindle {

class ClusterTopology;
class ThreadPool;

/**
 * The curve the planner's allocator and scheduler read for MetaOp
 * @p m: T_m(n) + s_m(n) / L_m on @p compute's valid grid, truncated
 * at its argmin, where
 *
 *   s_m(n) = kMinSyncFraction x flat-ring all-reduce of
 *            L_m * paramBytesPerOp over w = min(N, n * sharing)
 *            devices on topo.ringLinkAtWidth(w)
 *
 * is the gradient-sync tail no bucketing hides (@p sharing: the
 * MetaOps holding m's ParamKeys, MetaGraph::paramSharingWidths).
 * Past the argmin, sync outweighs the compute a wider allocation
 * saves, so the grid stops there and devices may stay idle.
 */
ScalingCurve syncPricedCurve(const ScalingCurve &compute, const MetaOp &m,
                             std::uint32_t sharing,
                             const ClusterTopology &topo);

/**
 * Per-level resource allocator over estimated scaling curves.
 *
 * The allocator never touches the hardware oracle directly: like the
 * paper's planner it sees only the scaling curves from §3.2, whose
 * valid-allocation grids already encode the practical constraints
 * (DP divides batch, TP degree divisibility) — in the planner,
 * their syncPricedCurve() forms.
 */
class ResourceAllocator
{
  public:
    /**
     * @param graph contracted MetaGraph
     * @param curves scaling curve per MetaOp, indexed by MetaOpId
     * @param num_devices cluster size N
     */
    ResourceAllocator(const MetaGraph &graph,
                      const std::vector<ScalingCurve> &curves,
                      std::uint32_t num_devices);

    /**
     * Solve the continuous MPSP relaxation for one MetaLevel
     * (Appendix B, Alg. 2). nStar is aligned with @p level.
     */
    MpspSolution solveContinuous(const std::vector<MetaOpId> &level) const;

    /**
     * Full per-level allocation: continuous optimum plus bi-point
     * discretization and rounding of operator counts (§3.3).
     */
    LevelAllocation allocateLevel(const std::vector<MetaOpId> &level) const;

    /**
     * Allocate every MetaLevel of the graph, in level order. Levels
     * are data-independent (each bisects its own MPSP over the
     * shared read-only curves), so a non-null @p pool solves them in
     * parallel; each level lands at its own index, making the output
     * identical at any thread count.
     */
    std::vector<LevelAllocation>
    allocateAll(ThreadPool *pool = nullptr) const;

    /**
     * Theoretical lower bound on the iteration's execution span:
     * the sum of per-level continuous optima C~* (Fig. 11 baseline),
     * over whichever curves the allocator reads — in the planner,
     * the sync-priced grid.
     */
    double theoreticalOptimum() const;

    std::uint32_t numDevices() const { return num_devices_; }

  private:
    /** Discretize one MetaOp's fractional n* (Conds. 10a/10b). */
    MetaOpAllocation discretize(MetaOpId m, double n_star,
                                double c_star) const;

    const MetaGraph &graph_;
    const std::vector<ScalingCurve> &curves_;
    std::uint32_t num_devices_;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_RESOURCE_ALLOCATOR_H
