/**
 * @file
 * Parameter device-group pool (paper §3.6 step 3).
 *
 * Every parameter set W_j is activated by one or more wave entries,
 * possibly from different tasks (sub-model sharing). Before training,
 * Spindle scans the plan to determine the device group D_i on which
 * each W_j must be gradient-synchronized, then manages parameters
 * with identical groups collectively: the pool maps each distinct
 * device group to the total parameter bytes synchronized within it.
 * Groups run back to back on the devices they share, so nested
 * groups fold into the larger one and, priced by the engine's
 * collective, overlapping groups fuse over their union where that is
 * cheaper.
 */

#ifndef SPINDLE_RUNTIME_PARAM_GROUPS_H
#define SPINDLE_RUNTIME_PARAM_GROUPS_H

#include <map>
#include <vector>

#include "hardware/collective.h"
#include "planner/execution_plan.h"

namespace spindle {

/** One device group and the parameter bytes it synchronizes. */
struct ParamGroup
{
    DeviceSet devices;
    double bytes = 0;

    /** Number of distinct parameter sets managed by this group. */
    std::uint32_t numParams = 0;

    /**
     * Island decomposition of `devices`, cached at pool build when a
     * topology was supplied (the group set is frozen for the whole
     * training run, so the runtime's per-iteration collective
     * scheduling must not re-derive it). Carries everything the
     * sharded-hierarchical algorithm needs too — the smallest-slice
     * size capping its concurrent inter-island rings is a
     * GroupDecomposition query (minSliceSize()). Null without a
     * topology.
     */
    const GroupDecomposition *decomposition() const
    {
        return has_decomp ? &decomp : nullptr;
    }

    GroupDecomposition decomp;
    bool has_decomp = false;
};

/**
 * The global parameter device-group pool {D_i -> {W_j}}.
 */
class ParameterGroupPool
{
  public:
    /**
     * Scan a placed plan: for every parameter set (shared ParamKey
     * or per-operator private parameters), the group is the union of
     * the devices of every wave entry hosting it. Groups with equal
     * device sets are managed together, and a group nested in
     * another is folded into it.
     *
     * When @p topo is given, two overlapping, non-nested groups are
     * also fused into one group over their union whenever @p kind
     * (the engine's collective) prices one all-reduce of both
     * groups' bytes over the union below the two run back to back,
     * as they must be on their shared devices. Fusion keeps
     * totalSyncBytes() and the parameter count. Each final group's
     * island decomposition is computed once and cached on it.
     */
    static ParameterGroupPool
    build(const MetaGraph &graph, const ExecutionPlan &plan,
          const ClusterTopology *topo = nullptr,
          CollectiveKind kind = CollectiveKind::FlatRing);

    const std::vector<ParamGroup> &groups() const { return groups_; }

    /** Bytes needing cross-device sync (groups of size > 1). */
    double totalSyncBytes() const;

  private:
    std::vector<ParamGroup> groups_;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_PARAM_GROUPS_H
