/**
 * @file
 * The contracted MetaGraph G_M = (V_M, E_M) of paper §3.1.
 *
 * Each MetaOp m groups L_m consecutive operators of identical
 * workload (same operator type and input data size, linked by a
 * straight-line data flow). MetaOps are further decoupled into
 * MetaLevels: MetaOps of the same level have no dependencies among
 * each other, so the planner can allocate and schedule each level
 * individually (§3.3, §3.4).
 */

#ifndef SPINDLE_GRAPH_META_GRAPH_H
#define SPINDLE_GRAPH_META_GRAPH_H

#include <vector>

#include "graph/computation_graph.h"

namespace spindle {

/** Dense integer id of a MetaOp within one MetaGraph. */
using MetaOpId = std::int32_t;

/**
 * A fused run of L_m identical operators.
 *
 * Per-operator workload quantities (flopsFwdPerOp etc.) are shared by
 * all members; the paper's execution-time function T_m(n) is the time
 * of *one* member operator on n devices.
 */
struct MetaOp
{
    MetaOpId id = -1;
    std::string name;
    OpType type = OpType::Custom;
    TensorShape input;

    /** Member operator ids, in chain (execution) order. */
    std::vector<OpId> ops;

    std::int32_t taskId = 0;

    /** MetaLevel (BFS depth); assigned by contraction. */
    std::int32_t level = -1;

    /** Forward FLOPs of one member operator. */
    double flopsFwdPerOp = 0;

    /** Parameter bytes of one member operator. */
    double paramBytesPerOp = 0;

    /** Output activation bytes of one member operator. */
    double activationBytes = 0;

    /** Number of member operators, L_m. */
    std::int64_t numOps() const
    {
        return static_cast<std::int64_t>(ops.size());
    }
};

/**
 * Synthesize an OperatorDesc describing one member operator of
 * @p m (the workload the hardware model prices as T_m(n)).
 */
OperatorDesc memberDesc(const MetaOp &m);

/** Data flow between MetaOps with aggregated volume in bytes. */
struct MetaEdge
{
    MetaOpId src = -1;
    MetaOpId dst = -1;
    double flowBytes = 0;
};

/**
 * Frozen contracted graph. Produced by contractGraph() (§3.1); holds
 * a non-owning pointer to the base graph, which must outlive it.
 */
class MetaGraph
{
  public:
    MetaGraph(const ComputationGraph *base, std::vector<MetaOp> nodes,
              std::vector<MetaEdge> edges);

    const ComputationGraph &base() const { return *base_; }

    std::size_t numMetaOps() const { return nodes_.size(); }
    const MetaOp &metaOp(MetaOpId id) const;
    const std::vector<MetaOp> &metaOps() const { return nodes_; }
    const std::vector<MetaEdge> &edges() const { return edges_; }

    /** MetaOp id that contains base operator @p op. */
    MetaOpId metaOf(OpId op) const;

    const std::vector<MetaOpId> &successors(MetaOpId id) const;
    const std::vector<MetaOpId> &predecessors(MetaOpId id) const;

    /** Number of MetaLevels. */
    std::size_t numLevels() const { return levels_.size(); }

    /** MetaOp ids at level @p k (0-based, dependency depth order). */
    const std::vector<MetaOpId> &level(std::size_t k) const;

    /**
     * Per MetaOp, indexed by id: how many MetaOps hold at least one
     * of its shared ParamKeys, itself included (1 without shared
     * keys). A MetaOp on n devices syncs those gradients over up to
     * n times this many devices.
     */
    const std::vector<std::uint32_t> &paramSharingWidths() const
    {
        return param_sharing_;
    }

  private:
    const ComputationGraph *base_;
    std::vector<MetaOp> nodes_;
    std::vector<MetaEdge> edges_;
    std::vector<std::vector<MetaOpId>> succ_;
    std::vector<std::vector<MetaOpId>> pred_;
    std::vector<MetaOpId> op_to_meta_;
    std::vector<std::vector<MetaOpId>> levels_;
    std::vector<std::uint32_t> param_sharing_;
};

} // namespace spindle

#endif // SPINDLE_GRAPH_META_GRAPH_H
