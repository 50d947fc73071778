#include "probes.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

using namespace spindle;

void
reportSim(WorkloadResult &result, const std::vector<SimSample> &spindle,
          const std::vector<double> &deepspeed_ms)
{
    auto avg = [&](double SimSample::*field) {
        double sum = 0;
        for (const SimSample &s : spindle)
            sum += s.*field;
        return spindle.empty() ? 0.0 : sum / spindle.size();
    };
    const double iter = avg(&SimSample::iterMs);
    const double ds = mean(deepspeed_ms);
    const std::string base = strCat("mean over ", spindle.size(), " samples");
    auto both = [&](const std::string &name, double value,
                    const std::string &note = "") {
        result.set(name, value, note);
        result.deterministic(name, value);
    };
    both("sim_iter_ms", iter, base);
    both("speedup_vs_deepspeed", iter > 0 ? ds / iter : 0.0,
         strCat("DeepSpeed ", ds, " ms / Spindle ", iter, " ms"));
    both("sim.fwd_bwd_ms", avg(&SimSample::fwdBwdMs));
    both("sim.send_recv_ms", avg(&SimSample::sendRecvMs));
    both("sim.sync_ms", avg(&SimSample::syncMs));
    both("sim.idle_share", avg(&SimSample::idleShare));
    both("sim.timeline_records", avg(&SimSample::records));
    both("sim.peak_device_mem_gib", avg(&SimSample::peakMemGib));
    both("planner.waves", avg(&SimSample::waves));
    both("planner.entries", avg(&SimSample::entries));
    both("planner.estimate_ratio",
         iter > 0 ? avg(&SimSample::estimatedMs) / iter : 0.0,
         "estimatedSpan / simulated iteration");
    both("baselines.deepspeed_sim_iter_ms", ds);
}

void
CacheTally::add(const ReplanStats &stats, double ms)
{
    if (stats.fullHit) {
        hitMs_.push_back(ms);
        return;
    }
    missMs_.push_back(ms);
    levels_ += stats.totalLevels;
    reusedLevels_ += stats.reusedLevels;
    curveHits_ += static_cast<double>(stats.curveHits);
    curveLookups_ += static_cast<double>(stats.curveHits + stats.curveMisses);
    allocHits_ += static_cast<double>(stats.allocHits);
    allocLookups_ += static_cast<double>(stats.allocHits + stats.allocMisses);
}

void
CacheTally::report(WorkloadResult &result) const
{
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double lookups =
        static_cast<double>(hitMs_.size() + missMs_.size());
    result.set("plan_cache.full_hit_ratio",
               ratio(static_cast<double>(hitMs_.size()), lookups),
               strCat(hitMs_.size(), " of ", lookups, " lookups"));
    result.set("plan_cache.hit_ms", mean(hitMs_),
               strCat("mean of ", hitMs_.size()));
    result.set("plan_cache.miss_ms", mean(missMs_),
               strCat("mean of ", missMs_.size()));
    result.set("plan_cache.reused_level_ratio", ratio(reusedLevels_, levels_),
               strCat("of ", levels_, " levels in misses"));
    result.set("plan_cache.curve_hit_ratio", ratio(curveHits_, curveLookups_),
               strCat("of ", curveLookups_, " curve lookups in misses"));
    result.set("plan_cache.alloc_hit_ratio", ratio(allocHits_, allocLookups_),
               strCat("of ", allocLookups_, " level allocations in misses"));
}

void
PhaseTally::add(const PlannerPhaseSeconds &phases)
{
    sum_.estimation += phases.estimation;
    sum_.allocation += phases.allocation;
    sum_.scheduling += phases.scheduling;
    sum_.placement += phases.placement;
    sum_.diff += phases.diff;
    calls_ += 1;
}

void
PhaseTally::report(WorkloadResult &result) const
{
    const double scale = calls_ > 0 ? 1e3 / calls_ : 0.0;
    const std::string note = strCat("mean per call over ", calls_);
    result.set("cost.estimation_ms", sum_.estimation * scale, note);
    result.set("planner.allocation_ms", sum_.allocation * scale, note);
    result.set("planner.scheduling_ms", sum_.scheduling * scale, note);
    result.set("planner.placement_ms", sum_.placement * scale, note);
    result.set("planner.diff_ms", sum_.diff * scale, note);
}

void
addPhaseSpans(Tracer &tracer, int parent, const PlannerPhaseSeconds &phases,
              std::uint64_t request)
{
    if (parent < 0)
        return;
    // replan() probes the cache before any pipeline stage runs.
    const std::pair<const char *, double> order[] = {
        {"plan_cache.diff", phases.diff},
        {"cost.estimation", phases.estimation},
        {"planner.allocation", phases.allocation},
        {"planner.scheduling", phases.scheduling},
        {"planner.placement", phases.placement},
    };
    double t = tracer.spans()[parent].startMs;
    for (const auto &[name, seconds] : order) {
        if (seconds <= 0)
            continue;
        const std::string full = name;
        const std::size_t dot = full.find('.');
        tracer.add(full.substr(0, dot), full.substr(dot + 1), t,
                   t + seconds * 1e3, parent, request);
        t += seconds * 1e3;
    }
}

IterationResult
RuntimeProbe::engineRun(Tracer &tracer, const Engine &engine,
                        const MetaGraph &graph, const ExecutionPlan &plan,
                        std::uint64_t request)
{
    IterationResult out;
    engineMs_.push_back(timedSpan(tracer, "runtime", "engine_run", request,
                                  [&] { out = engine.run(graph, plan); }));
    return out;
}

void
RuntimeProbe::helpers(Tracer &tracer, const Engine &engine,
                      const MetaGraph &graph, const ExecutionPlan &plan,
                      std::uint64_t request)
{
    const HardwareModel &hw = engine.hardware();
    std::vector<TransmissionOp> ops;
    const double trans = timedSpan(tracer, "runtime", "transmissions", request, [&] {
        ops = buildTransmissions(graph, plan, hw.collectives());
    });
    double sync_bytes = 0;
    const double groups = timedSpan(tracer, "runtime", "param_groups", request, [&] {
        sync_bytes = ParameterGroupPool::build(graph, plan, &hw.topology())
                         .totalSyncBytes();
    });
    const double peak = timedSpan(tracer, "runtime", "peak_memory", request, [&] {
        peakMemoryPerDevice(graph, plan, hw, engine.memory());
    });
    transMs_.push_back(trans);
    groupsMs_.push_back(groups);
    peakMs_.push_back(peak);
    if (!engineMs_.empty())
        residualMs_.push_back(engineMs_.back() - trans - groups - peak);
    transCount_ += static_cast<double>(ops.size());
    transBytes_ += totalTransmissionBytes(ops);
    syncBytes_ += sync_bytes;
}

void
RuntimeProbe::report(WorkloadResult &result) const
{
    const double n = static_cast<double>(transMs_.size());
    auto per = [&](double total) { return n > 0 ? total / n : 0.0; };
    result.set("runtime.engine_run_ms", percentile(engineMs_, 0.5));
    result.set("runtime.transmissions_ms", percentile(transMs_, 0.5));
    result.set("runtime.param_groups_ms", percentile(groupsMs_, 0.5));
    result.set("runtime.peak_memory_ms", percentile(peakMs_, 0.5));
    result.set("runtime.dispatch_residual_ms", percentile(residualMs_, 0.5));
    result.set("runtime.transmission_count", per(transCount_), "mean per plan");
    result.set("runtime.transmission_gb", per(transBytes_) / 1e9,
               "mean per plan");
    result.set("runtime.sync_gb", per(syncBytes_) / 1e9, "mean per plan");
}

SystemResult
iterate(const SpindleSystem &sys, const MetaGraph &graph, PlanCache &cache,
        Tracer &tracer, RuntimeProbe &probe, CacheTally &cache_tally,
        std::uint64_t request, double *wall_ms)
{
    if (!tracer.enabled()) {
        const Clock::time_point t0 = Clock::now();
        SystemResult r = sys.runIteration(graph);
        *wall_ms = msSince(t0);
        return r;
    }
    // System::runIteration, step by step.
    SystemResult r;
    ExecutionPlan plan;
    const Engine engine(sys.hardware(), MemoryParams{}, sys.engineOptions());
    IterationResult iter;
    *wall_ms = timedSpan(tracer, "baselines", "run_iteration", request, [&] {
        const PlanCache::Stats before = cache.stats();
        const double build_ms =
            timedSpan(tracer, "baselines", "build_plan", request, [&] {
                plan = sys.buildPlan(graph);
                if (!plan.hasReadiness())
                    plan.annotateReadiness(graph);
            });
        ReplanStats stats;
        stats.attempted = true;
        stats.fullHit = cache.stats().fullHits > before.fullHits;
        cache_tally.add(stats, build_ms);
        timedSpan(tracer, "planner", "validate", request,
                  [&] { plan.validate(graph); });
        iter = probe.engineRun(tracer, engine, graph, plan, request);
    });
    probe.helpers(tracer, engine, graph, plan, request);
    r.system = sys.name();
    r.iterationSeconds = iter.iterationSeconds;
    r.breakdown = iter.breakdown;
    r.peakMemoryBytes = std::move(iter.peakMemoryBytes);
    r.timeline = std::move(iter.timeline);
    r.theoreticalOptimum = plan.theoreticalOptimum;
    r.transmissionBytes = iter.transmissionBytes;
    r.syncBytes = iter.syncBytes;
    return r;
}

void
checkValid(WorkloadResult &result, const ExecutionPlan &plan,
           const MetaGraph &graph, const std::string &what)
{
    try {
        RecoverableScope scope;
        plan.validate(graph);
    } catch (const RecoverableError &e) {
        result.fail(what + ": " + e.what());
    }
}

void
reportTrace(WorkloadResult &result, const Tracer &tracer,
            double overhead_ratio, const std::string &trace_file)
{
    const std::map<std::string, double> self = layerSelfMs(tracer.spans());
    double total = 0;
    for (const auto &[layer, ms] : self)
        total += ms;
    for (const std::string &layer : kLayers) {
        const auto it = self.find(layer);
        const double ms = it == self.end() ? 0.0 : it->second;
        result.set(layer + ".self_share", total > 0 ? ms / total : 0.0,
                   strCat("self ", ms, " ms of ", total, " ms traced"));
    }
    result.set("trace.overhead_ratio", overhead_ratio,
               "traced / untraced p50 of the same ops");
    result.set("planner.validate_ms",
               percentile(tracer.durations("planner.validate"), 0.5));
    result.set("graph.contract_ms",
               percentile(tracer.durations("graph.contract"), 0.5));
    result.set("hardware.build_ms",
               percentile(tracer.durations("hardware.build"), 0.5));
    if (!trace_file.empty()) {
        std::ofstream out(trace_file);
        writeChromeTrace(out, tracer.spans());
        if (!out)
            result.fail("cannot write trace file " + trace_file);
    }
}

} // namespace perfbench
