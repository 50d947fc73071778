/**
 * @file
 * Measurements shared by the workloads: the simulated-iteration
 * summary, plan-cache and planner-phase tallies, the traced runtime
 * decomposition of one iteration, and the traced-run report.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <algorithm>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

/** What one simulated iteration of one plan yields. */
struct SimSample
{
    double iterMs = 0;
    double fwdBwdMs = 0;
    double sendRecvMs = 0;
    double syncMs = 0;
    double idleShare = 0;
    double records = 0;
    double peakMemGib = 0;
    double estimatedMs = 0; ///< plan.estimatedSpan
    double waves = 0;
    double entries = 0;
};

/** Summary of one iteration (a SystemResult or an IterationResult)
 *  of @p plan. */
template <typename Iteration>
SimSample
simSample(const spindle::ExecutionPlan &plan, const Iteration &iteration)
{
    SimSample s;
    s.iterMs = iteration.iterationSeconds * 1e3;
    s.fwdBwdMs = iteration.breakdown.fwdBwd * 1e3;
    s.sendRecvMs = iteration.breakdown.sendRecv * 1e3;
    s.syncMs = iteration.breakdown.sync * 1e3;
    s.idleShare = std::max(
        0.0,
        1.0 - mean(iteration.timeline.deviceBusyFraction(plan.numDevices)));
    s.records = static_cast<double>(iteration.timeline.records().size());
    for (const double bytes : iteration.peakMemoryBytes)
        s.peakMemGib = std::max(s.peakMemGib, bytes / (1024.0 * 1024 * 1024));
    s.estimatedMs = plan.estimatedSpan * 1e3;
    s.waves = static_cast<double>(plan.waves.size());
    for (const spindle::Wave &w : plan.waves)
        s.entries += static_cast<double>(w.entries.size());
    return s;
}

/**
 * Report the simulated metrics over a workload's plans, each also
 * recorded as a deterministic value: sim_iter_ms (mean),
 * speedup_vs_deepspeed (mean DeepSpeed / mean Spindle, the paper's
 * Fig. 8 normalisation), the sim.* breakdown, the plan shape counts
 * and planner.estimate_ratio (sum of estimates / sum of simulated).
 */
void reportSim(WorkloadResult &result, const std::vector<SimSample> &spindle,
               const std::vector<double> &deepspeed_ms);

/** plan_cache.* metrics over planner calls that went through the
 *  cache. Ratios have the missed calls as their base. */
class CacheTally
{
  public:
    void add(const spindle::ReplanStats &stats, double ms);
    void report(WorkloadResult &result) const;

  private:
    std::vector<double> hitMs_, missMs_;
    double levels_ = 0, reusedLevels_ = 0;
    double curveHits_ = 0, curveLookups_ = 0;
    double allocHits_ = 0, allocLookups_ = 0;
};

/** Mean per-call planner phase times (cost.* and planner.*). */
class PhaseTally
{
  public:
    void add(const spindle::PlannerPhaseSeconds &phases);
    void report(WorkloadResult &result) const;

  private:
    spindle::PlannerPhaseSeconds sum_;
    double calls_ = 0;
};

/**
 * Add the phases of one planner call as child spans of @p parent,
 * laid end to end from its start: the library reports them as
 * durations only, so their placement inside the call is inferred.
 */
void addPhaseSpans(Tracer &tracer, int parent,
                   const spindle::PlannerPhaseSeconds &phases,
                   std::uint64_t request);

/**
 * Traced runtime decomposition: Engine::run under one span, then
 * each public runtime helper timed as its own call on the same plan
 * (buildTransmissions, ParameterGroupPool::build,
 * peakMemoryPerDevice). The engine's remaining work — dispatcher,
 * sync executor, simulator, timeline — is its time minus theirs.
 */
class RuntimeProbe
{
  public:
    spindle::IterationResult engineRun(Tracer &tracer,
                                       const spindle::Engine &engine,
                                       const spindle::MetaGraph &graph,
                                       const spindle::ExecutionPlan &plan,
                                       std::uint64_t request);

    void helpers(Tracer &tracer, const spindle::Engine &engine,
                 const spindle::MetaGraph &graph,
                 const spindle::ExecutionPlan &plan, std::uint64_t request);

    void report(WorkloadResult &result) const;

  private:
    std::vector<double> engineMs_, transMs_, groupsMs_, peakMs_,
        residualMs_;
    double transCount_ = 0, transBytes_ = 0, syncBytes_ = 0;
};

/**
 * One cached-plan iteration on @p sys. Untraced it is exactly
 * SpindleSystem::runIteration. Traced, the same steps are called one
 * by one under a baselines.run_iteration span — buildPlan (a cache
 * full hit), validate, Engine::run — and the runtime helpers follow
 * as their own spans. @p wall_ms gets the iteration's wall time.
 */
spindle::SystemResult iterate(const spindle::SpindleSystem &sys,
                              const spindle::MetaGraph &graph,
                              spindle::PlanCache &cache, Tracer &tracer,
                              RuntimeProbe &probe, CacheTally &cache_tally,
                              std::uint64_t request, double *wall_ms);

/** ExecutionPlan::validate inside a RecoverableScope, so a violated
 *  invariant is recorded as a failed check instead of ending the
 *  process. */
void checkValid(WorkloadResult &result, const spindle::ExecutionPlan &plan,
                const spindle::MetaGraph &graph, const std::string &what);

/** Layer self-time shares, trace.overhead_ratio and the span-timed
 *  set-up and validate metrics; writes the Chrome trace to
 *  @p trace_file. */
void reportTrace(WorkloadResult &result, const Tracer &tracer,
                 double overhead_ratio, const std::string &trace_file);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
