#include "graph/meta_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

MetaGraph::MetaGraph(const ComputationGraph *base, std::vector<MetaOp> nodes,
                     std::vector<MetaEdge> edges)
    : base_(base), nodes_(std::move(nodes)), edges_(std::move(edges))
{
    panicIf(base_ == nullptr, "MetaGraph: null base graph");
    succ_.assign(nodes_.size(), {});
    pred_.assign(nodes_.size(), {});
    for (const MetaEdge &e : edges_) {
        succ_[e.src].push_back(e.dst);
        pred_[e.dst].push_back(e.src);
    }

    op_to_meta_.assign(base_->numOps(), -1);
    for (const MetaOp &m : nodes_)
        for (OpId op : m.ops)
            op_to_meta_[op] = m.id;
    for (std::size_t i = 0; i < op_to_meta_.size(); ++i)
        panicIf(op_to_meta_[i] < 0, "MetaGraph: base op ", i, " not covered");

    // Dependency depth: level(m) = 1 + max level over predecessors.
    // MetaOps sharing a level are therefore guaranteed independent
    // (§3.1 "Disentangling MetaOp Dependency with MetaLevels").
    std::int32_t max_level = -1;
    std::vector<std::size_t> in_deg(nodes_.size());
    std::vector<MetaOpId> order;
    order.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        in_deg[i] = pred_[i].size();
        if (in_deg[i] == 0)
            order.push_back(static_cast<MetaOpId>(i));
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        MetaOpId id = order[head];
        std::int32_t lvl = 0;
        for (MetaOpId p : pred_[id])
            lvl = std::max(lvl, nodes_[p].level + 1);
        nodes_[id].level = lvl;
        max_level = std::max(max_level, lvl);
        for (MetaOpId nxt : succ_[id]) {
            if (--in_deg[nxt] == 0)
                order.push_back(nxt);
        }
    }
    panicIf(order.size() != nodes_.size(), "MetaGraph: cyclic meta edges");

    levels_.assign(static_cast<std::size_t>(max_level + 1), {});
    for (const MetaOp &m : nodes_)
        levels_[m.level].push_back(m.id);

    // Sharing widths. (key, holder) pairs, sorted: each key's holders
    // form one run; a MetaOp counts the distinct holders over its
    // keys' runs, stamping each with its own id so none counts twice.
    std::vector<std::pair<ParamKey, MetaOpId>> held;
    for (const MetaOp &m : nodes_)
        for (OpId op : m.ops)
            if (const ParamKey key = base_->op(op).paramKey; key != kNoParam)
                held.emplace_back(key, m.id);
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    param_sharing_.assign(nodes_.size(), 1);
    std::vector<MetaOpId> stamp(nodes_.size(), -1);
    for (const MetaOp &m : nodes_) {
        stamp[m.id] = m.id;
        for (OpId op : m.ops) {
            const ParamKey key = base_->op(op).paramKey;
            if (key == kNoParam)
                continue;
            for (auto it = std::lower_bound(held.begin(), held.end(),
                                            std::pair{key, MetaOpId{0}});
                 it != held.end() && it->first == key; ++it)
                if (stamp[it->second] != m.id) {
                    stamp[it->second] = m.id;
                    ++param_sharing_[m.id];
                }
        }
    }
}

OperatorDesc
memberDesc(const MetaOp &m)
{
    OperatorDesc d;
    d.name = m.name;
    d.type = m.type;
    d.input = m.input;
    d.flopsFwd = m.flopsFwdPerOp;
    d.paramBytes = m.paramBytesPerOp;
    d.activationBytes = m.activationBytes;
    d.taskId = m.taskId;
    return d;
}

const MetaOp &
MetaGraph::metaOp(MetaOpId id) const
{
    // Guard-then-panic: keep the strCat off the happy path (this is
    // a planner hot-path accessor).
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        panic(strCat("metaOp: bad id ", id));
    return nodes_[id];
}

MetaOpId
MetaGraph::metaOf(OpId op) const
{
    panicIf(op < 0 || static_cast<std::size_t>(op) >= op_to_meta_.size(),
            "metaOf: bad op id ", op);
    return op_to_meta_[op];
}

const std::vector<MetaOpId> &
MetaGraph::successors(MetaOpId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= succ_.size(),
            "successors: bad id ", id);
    return succ_[id];
}

const std::vector<MetaOpId> &
MetaGraph::predecessors(MetaOpId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= pred_.size(),
            "predecessors: bad id ", id);
    return pred_[id];
}

const std::vector<MetaOpId> &
MetaGraph::level(std::size_t k) const
{
    panicIf(k >= levels_.size(), "level: bad index ", k);
    return levels_[k];
}

} // namespace spindle
