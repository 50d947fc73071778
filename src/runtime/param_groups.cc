#include "runtime/param_groups.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

namespace {

void
absorb(ParamGroup &host, const ParamGroup &g)
{
    host.bytes += g.bytes;
    host.numParams += g.numParams;
}

/**
 * Fuse overlapping, non-nested groups: two groups sharing a device
 * run their all-reduces back to back, so when one all-reduce of both
 * groups' bytes over their union is cheaper under @p kind, the pair
 * becomes that one group (the extra ranks contribute zero gradient,
 * as in subset fusion). A grown group meets every other group again,
 * and folds any group it now contains, as subset fusion does.
 */
void
fuseOverlapping(std::vector<ParamGroup> &groups, const CollectiveModel &coll,
                CollectiveKind kind)
{
    auto cost = [&](const ParamGroup &g) {
        return coll.allReduceTime(g.bytes, g.devices, kind);
    };
    std::vector<double> costs;
    costs.reserve(groups.size());
    for (const ParamGroup &g : groups)
        costs.push_back(cost(g));
    for (std::size_t i = 0; i < groups.size(); ++i) {
        for (std::size_t j = 0; j < groups.size(); ++j) {
            ParamGroup &a = groups[i];
            const ParamGroup &b = groups[j];
            if (j == i || !intersects(a.devices, b.devices))
                continue;
            DeviceSet u = unionOf(a.devices, b.devices);
            const bool nested = u.size() == a.devices.size() ||
                                u.size() == b.devices.size();
            if (!nested &&
                !(coll.allReduceTime(a.bytes + b.bytes, u, kind) <
                  costs[i] + costs[j]))
                continue;
            a.devices = std::move(u);
            absorb(a, b);
            costs[i] = cost(a);
            groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(j));
            costs.erase(costs.begin() + static_cast<std::ptrdiff_t>(j));
            if (j < i)
                --i;
            j = static_cast<std::size_t>(-1); // rescan from the start
        }
    }
}

} // namespace

ParameterGroupPool
ParameterGroupPool::build(const MetaGraph &graph,
                          const ExecutionPlan &plan,
                          const ClusterTopology *topo, CollectiveKind kind)
{
    // Parameter identity: shared keys map to themselves, private
    // operator parameters get a unique negative id.
    struct ParamInfo
    {
        DeviceSet devices;
        double bytes = 0;
    };
    std::map<std::int64_t, ParamInfo> params;

    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            panicIf(e.devices.empty(),
                    "ParameterGroupPool: plan is not placed");
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const std::int64_t key =
                    op.paramKey != kNoParam
                        ? static_cast<std::int64_t>(op.paramKey)
                        : -(static_cast<std::int64_t>(op.id) + 2);
                ParamInfo &info = params[key];
                info.devices = unionOf(info.devices, e.devices);
                info.bytes = std::max(info.bytes, op.paramBytes);
            }
        }
    }

    // Manage parameters with identical device groups collectively;
    // additionally, bucket-fuse any group whose device set is a
    // subset of another group into the superset (the extra ranks
    // contribute zero gradient — a ring over g devices moves the
    // same bytes, and fusing removes a serialized collective).
    std::map<DeviceSet, ParamGroup> pool;
    for (const auto &[key, info] : params) {
        ParamGroup &g = pool[info.devices];
        g.devices = info.devices;
        g.bytes += info.bytes;
        g.numParams += 1;
    }

    std::vector<ParamGroup> groups;
    groups.reserve(pool.size());
    for (auto &[devices, group] : pool)
        groups.push_back(std::move(group));
    // Largest sets first; fold each group into the first earlier
    // group that contains it.
    std::sort(groups.begin(), groups.end(),
              [](const ParamGroup &a, const ParamGroup &b) {
                  if (a.devices.size() != b.devices.size())
                      return a.devices.size() > b.devices.size();
                  return a.devices < b.devices;
              });
    std::vector<ParamGroup> fused;
    for (ParamGroup &g : groups) {
        bool folded = false;
        for (ParamGroup &host : fused) {
            if (std::includes(host.devices.begin(), host.devices.end(),
                              g.devices.begin(), g.devices.end())) {
                absorb(host, g);
                folded = true;
                break;
            }
        }
        if (!folded)
            fused.push_back(std::move(g));
    }

    if (topo != nullptr) {
        fuseOverlapping(fused, CollectiveModel(*topo), kind);
        for (ParamGroup &g : fused) {
            g.decomp = decomposeByIsland(*topo, g.devices);
            g.has_decomp = true;
        }
    }

    ParameterGroupPool out;
    out.groups_ = std::move(fused);
    return out;
}

double
ParameterGroupPool::totalSyncBytes() const
{
    double total = 0;
    for (const ParamGroup &g : groups_)
        if (g.devices.size() > 1)
            total += g.bytes;
    return total;
}

} // namespace spindle
