#include "report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

using namespace spindle;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"plan_ms_p50", "ms"},
    {"plan_ms_p90", "ms"},
    {"iteration_wall_ms_p50", "ms"},
    {"iteration_wall_ms_p90", "ms"},
    {"plans_per_s", "1/s"},
    {"sim_iter_ms", "ms"},
    {"speedup_vs_deepspeed", "x"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"graph.contract_ms", "ms"},
    {"hardware.build_ms", "ms"},
    {"cost.estimation_ms", "ms"},
    {"planner.allocation_ms", "ms"},
    {"planner.scheduling_ms", "ms"},
    {"planner.placement_ms", "ms"},
    {"planner.diff_ms", "ms"},
    {"planner.validate_ms", "ms"},
    {"planner.waves", "count"},
    {"planner.entries", "count"},
    {"planner.estimate_ratio", "ratio"},
    {"plan_cache.full_hit_ratio", "ratio"},
    {"plan_cache.hit_ms", "ms"},
    {"plan_cache.miss_ms", "ms"},
    {"plan_cache.reused_level_ratio", "ratio"},
    {"plan_cache.curve_hit_ratio", "ratio"},
    {"plan_cache.alloc_hit_ratio", "ratio"},
    {"runtime.engine_run_ms", "ms"},
    {"runtime.transmissions_ms", "ms"},
    {"runtime.transmission_count", "count"},
    {"runtime.transmission_gb", "GB"},
    {"runtime.param_groups_ms", "ms"},
    {"runtime.sync_gb", "GB"},
    {"runtime.peak_memory_ms", "ms"},
    {"runtime.dispatch_residual_ms", "ms"},
    {"sim.timeline_records", "count"},
    {"sim.fwd_bwd_ms", "ms"},
    {"sim.send_recv_ms", "ms"},
    {"sim.sync_ms", "ms"},
    {"sim.idle_share", "ratio"},
    {"sim.peak_device_mem_gib", "GiB"},
    {"baselines.deepspeed_sim_iter_ms", "ms"},
    {"service.submit_ms_p90", "ms"},
    {"service.backlog_max", "count"},
    {"service.full_hit_ratio", "ratio"},
    {"service.generator_lag_ms_p90", "ms"},
    {"service.request_ms_p50", "ms"},
    {"service.request_ms_p90", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"host.speed_factor", "ratio"},
    {"graph.self_share", "ratio"},
    {"hardware.self_share", "ratio"},
    {"cost.self_share", "ratio"},
    {"planner.self_share", "ratio"},
    {"plan_cache.self_share", "ratio"},
    {"runtime.self_share", "ratio"},
    {"baselines.self_share", "ratio"},
    {"service.self_share", "ratio"},
};

const std::vector<std::string> kLayers = {
    "graph",      "hardware", "cost",      "planner",
    "plan_cache", "runtime",  "baselines", "service",
};

namespace {

bool
catalogued(const std::vector<MetricSpec> &list, const std::string &name)
{
    return std::any_of(list.begin(), list.end(),
                       [&](const MetricSpec &m) { return name == m.name; });
}

/** 17 significant digits: reads back as the same double. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
sampleNote(const Percentile &p)
{
    return strCat("n=", p.samples, ", ", p.beyond, " beyond",
                  p.resolved() ? "" : " (fewer than 10: unresolved)");
}

} // namespace

void
WorkloadResult::set(const std::string &name, double value,
                    const std::string &note)
{
    panicIf(!catalogued(kEndToEnd, name) && !catalogued(kPerLayer, name),
            "perfbench: metric '" + name + "' is not catalogued");
    values_[name] = {value, note};
}

void
WorkloadResult::set(const std::string &name, const Percentile &p)
{
    set(name, p.value, sampleNote(p));
}

void
WorkloadResult::setTime(const std::string &name, const Timings &t, double p)
{
    const Percentile scaled = percentile(t.scaled, p);
    set(name, scaled.value,
        strCat("measured ", percentile(t.measured, p).value, "; ",
               sampleNote(scaled)));
}

void
WorkloadResult::fail(const std::string &what)
{
    ++failed_;
    if (violations_.size() < 20)
        violations_.push_back(what);
}

void
WorkloadResult::print(std::ostream &out, bool trace) const
{
    auto table = [&](const char *title,
                     const std::vector<MetricSpec> &list) {
        out << title << "\n";
        for (const MetricSpec &m : list) {
            const auto it = values_.find(m.name);
            const Value v = it == values_.end() ? Value{} : it->second;
            char line[160];
            std::snprintf(line, sizeof(line), "  %-32s %14.6g %-6s",
                          m.name, v.value, m.unit);
            out << line << (v.note.empty() ? "" : "  " + v.note) << "\n";
        }
    };
    out << "== " << workload_ << (trace ? " (traced)" : "") << "\n";
    table("end-to-end", kEndToEnd);
    if (trace)
        table("per-layer", kPerLayer);
    const std::uint64_t failed = std::min(failed_, attempted_);
    out << "  failed_ratio = " << failed << " / " << attempted_ << "\n";
    for (const std::string &r : remarks_)
        out << "  " << r << "\n";
    for (const std::string &v : violations_)
        out << "  VIOLATION: " << v << "\n";

    out << "DETERMINISTIC {";
    bool first = true;
    for (const auto &[name, value] : deterministic_) {
        out << (first ? "" : ", ") << '"' << name << "\": " << exact(value);
        first = false;
    }
    out << "}\n";

    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
        << ", \"failed\": " << failed << ", \"metrics\": {";
    first = true;
    for (const MetricSpec &m : trace ? kPerLayer : kEndToEnd) {
        const auto it = values_.find(m.name);
        const double v = it == values_.end() ? 0.0 : it->second.value;
        out << (first ? "" : ", ") << '"' << m.name
            << "\": {\"value\": " << exact(v) << ", \"unit\": \"" << m.unit
            << "\"}";
        first = false;
    }
    out << "}}" << std::endl;
}

namespace {

template <typename T>
void
put(std::string &out, const T &value)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    out.append(buf, sizeof(T));
}

template <typename T>
void
putVector(std::string &out, const std::vector<T> &values)
{
    put(out, values.size());
    for (const T &v : values)
        put(out, v);
}

} // namespace

std::string
planBytes(const ExecutionPlan &plan, const PlacementResult &placement)
{
    std::string out;
    put(out, plan.numDevices);
    put(out, plan.estimatedSpan);
    put(out, plan.theoreticalOptimum);
    put(out, plan.waves.size());
    for (const Wave &w : plan.waves) {
        put(out, w.index);
        put(out, w.level);
        put(out, w.stream);
        putVector(out, w.predecessors);
        put(out, w.start);
        put(out, w.duration);
        put(out, w.entries.size());
        for (const WaveEntry &e : w.entries) {
            put(out, e.metaOp);
            put(out, e.n);
            put(out, e.opBegin);
            put(out, e.numOps);
            put(out, e.duration);
            putVector(out, e.devices);
        }
    }
    put(out, plan.allocations.size());
    for (const LevelAllocation &a : plan.allocations) {
        putVector(out, a.metaOps);
        put(out, a.continuous.cStar);
        put(out, a.plans.size());
        for (const MetaOpAllocation &p : a.plans) {
            put(out, p.metaOp);
            put(out, p.tuples.size());
            for (const AslTuple &t : p.tuples) {
                put(out, t.n);
                put(out, t.l);
            }
        }
    }
    putVector(out, placement.peakBytes);
    put(out, placement.estimatedCommSeconds);
    put(out, placement.interIslandCommSeconds);
    put(out, placement.usedMemoryFallback);
    return out;
}

std::string
planBytes(const PlannerOutput &out)
{
    return planBytes(out.plan, out.placement);
}

} // namespace perfbench
