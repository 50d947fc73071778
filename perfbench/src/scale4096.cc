/**
 * @file
 * scale-4096: one client, closed loop, CLIP-10 on 512 x 8 = 4096
 * homogeneous GPUs, planner threads = 1. Each loop step is one cold
 * ExecutionPlanner::plan() and one cached-plan
 * SpindleSystem::runIteration(); DeepSpeed runs once, in set-up, for
 * the speedup. Chosen because both of the largest open costs live
 * here: the placement sweep of a cold plan and the engine work of a
 * 4096-GPU iteration, while the cache and the service do almost
 * nothing.
 */

#include <memory>

#include "hostspeed.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace spindle;

namespace {

/** Everything built before the first timed op. */
struct Setup
{
    std::unique_ptr<ComputationGraph> graph;
    std::unique_ptr<MetaGraph> meta;
    std::unique_ptr<ClusterTopology> topo;
    std::unique_ptr<HardwareModel> hw;
    std::unique_ptr<ExecutionPlanner> planner;
    std::unique_ptr<PlanCache> cache;
    std::unique_ptr<SpindleSystem> sys;
    PlannerOutput cold;
    SystemResult first;
    double deepspeedMs = 0;
};

std::unique_ptr<Setup>
setUp(const ScaleInputs &in, Tracer &tracer, std::uint64_t request)
{
    auto owned = std::make_unique<Setup>();
    Setup &s = *owned;
    const Mix clip10{Family::Clip, 10, 1};
    timedSpan(tracer, "graph", "build_model", request, [&] {
        s.graph = std::make_unique<ComputationGraph>(buildMixGraph(clip10));
    });
    timedSpan(tracer, "graph", "contract", request, [&] {
        s.meta = std::make_unique<MetaGraph>(contractGraph(*s.graph));
    });
    timedSpan(tracer, "hardware", "build", request, [&] {
        s.topo = std::make_unique<ClusterTopology>(
            clusterConfig(512, in.fabricScale));
        s.hw = std::make_unique<HardwareModel>(*s.topo);
    });
    s.planner = std::make_unique<ExecutionPlanner>(*s.hw);
    s.cache = std::make_unique<PlanCache>();
    PlannerOptions options;
    options.cache = s.cache.get();
    s.sys = std::make_unique<SpindleSystem>(*s.hw, options);
    // Warm-up: the first plan and the first (cache-filling) iteration.
    timedSpan(tracer, "planner", "plan", request,
              [&] { s.cold = s.planner->plan(*s.meta); });
    timedSpan(tracer, "baselines", "run_iteration", request,
              [&] { s.first = s.sys->runIteration(*s.meta); });
    timedSpan(tracer, "baselines", "deepspeed", request, [&] {
        const SequentialSystem ds(*s.hw, SequentialMode::DeepSpeed);
        s.deepspeedMs = ds.runIteration(*s.meta).iterationSeconds * 1e3;
    });
    return owned;
}

} // namespace

WorkloadResult
runScale4096(const RunOptions &opt)
{
    WorkloadResult result("scale-4096");
    Tracer tracer(opt.trace);
    Tracer off(false);
    std::uint64_t request = 0;

    // Every timed stretch is bracketed by host-speed probes.
    HostSpeed host;
    Timings setup_s;
    std::unique_ptr<Setup> owned;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        owned.reset(); // each repetition starts from nothing
        host.sample();
        const Clock::time_point t0 = Clock::now();
        owned = setUp(generateScale(opt.seed), tracer, ++request);
        const double measured = msSince(t0) / 1e3;
        setup_s.add(measured, host.endStretch());
    }
    const Setup &s = *owned;
    const std::string cold_bytes = planBytes(s.cold);
    checkValid(result, s.cold.plan, *s.meta, "cold plan");
    result.check(s.first.iterationSeconds >= s.first.theoreticalOptimum,
                 "simulated iteration below theoreticalOptimum");

    // In a traced run every other op is traced; the untraced half
    // gives the baseline of trace.overhead_ratio.
    Timings plan_ms[2], iter_ms[2];
    PhaseTally phases;
    CacheTally cache_tally;
    RuntimeProbe probe;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t op = 0; msSince(start) < opt.seconds * 1e3; ++op) {
        const bool traced = opt.trace && op % 2 == 1;
        Tracer &t = traced ? tracer : off;

        PlannerOutput out;
        const std::uint64_t plan_req = ++request;
        const int span = t.begin("planner", "plan", plan_req);
        const Clock::time_point p0 = Clock::now();
        out = s.planner->plan(*s.meta);
        const double measured = msSince(p0);
        t.end(span);
        plan_ms[traced].add(measured, host.endStretch());
        addPhaseSpans(t, span, out.phaseSeconds, plan_req);
        phases.add(out.phaseSeconds);
        result.check(planBytes(out) == cold_bytes,
                     "cold plan differs from the first cold plan");

        double wall = 0;
        const SystemResult r = iterate(*s.sys, *s.meta, *s.cache, t, probe,
                                       cache_tally, ++request, &wall);
        iter_ms[traced].add(wall, host.endStretch());
        result.check(r.iterationSeconds == s.first.iterationSeconds,
                     "cached iteration simulated differently");
        result.attempt(2);
    }

    result.remark("host speed: " + host.describe());
    result.setTime("setup_s", setup_s, 0.5);
    result.setTime("plan_ms_p50", plan_ms[0], 0.5);
    result.setTime("plan_ms_p90", plan_ms[0], 0.9);
    result.setTime("iteration_wall_ms_p50", iter_ms[0], 0.5);
    result.setTime("iteration_wall_ms_p90", iter_ms[0], 0.9);
    result.set("plans_per_s", throughput(plan_ms[0].scaled),
               strCat("measured ", throughput(plan_ms[0].measured), "; ",
                      plan_ms[0].scaled.size(), " cold plans"));
    reportSim(result, {simSample(s.cold.plan, s.first)}, {s.deepspeedMs});
    result.set("peak_rss_mb", peakRssMb());

    if (opt.trace) {
        result.set("host.speed_factor", host.factor(), host.describe());
        phases.report(result);
        cache_tally.report(result);
        probe.report(result);
        const double traced = percentile(plan_ms[1].scaled, 0.5).value +
                              percentile(iter_ms[1].scaled, 0.5).value;
        const double untraced = percentile(plan_ms[0].scaled, 0.5).value +
                                percentile(iter_ms[0].scaled, 0.5).value;
        reportTrace(result, tracer, untraced > 0 ? traced / untraced : 0.0,
                    opt.traceFile);
    }
    return result;
}

} // namespace perfbench
