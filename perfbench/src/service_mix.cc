/**
 * @file
 * service-mix: a multi-tenant PlanService fed by one load generator
 * (generator + 3 workers = 4 threads). Tenants ask for CLIP/OFASys
 * mixes on 64- and 256-GPU clusters with Zipf popularity; the pool is
 * 2.4x what the per-tenant plan cache holds, so requests mix
 * whole-plan dedupes (about two thirds) with cold plans.
 *
 * First every input's serial plan() is made, validated and run
 * through Engine::run once for the simulated metrics; every response
 * is later byte-compared with it. Then the run is a series of rounds
 * of three stretches, each bracketed by host-speed probes (see
 * hostspeed.h); one service serves the first two for the whole run:
 *  - Open loop (40%): requests sent at a fixed offered rate. plan_ms is each response's planning time in
 *    its worker; the latency from the due send time to the observed
 *    completion is reported by the traced run (service.request_ms),
 *    unbounded: below a millisecond it is mostly thread wake-ups,
 *    whose cost on a shared VM moved its median 60-80% between runs.
 *  - Saturation (30%): the admission queue kept full; completions per
 *    second give the capacity.
 *  - Engine (30%): the 256-GPU serial plans run round-robin through
 *    Engine::run for the iteration wall time (pooling both cluster
 *    sizes would put its median in the gap between their two modes).
 * Each stretch ends with its queue drained, so the probes run while
 * the service is idle.
 * Chosen because it is the only workload with concurrent planners
 * sharing the striped PlanCache, admission-queue waits and ThreadPool
 * contention; the engine does no work while requests are served.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <thread>

#include "hostspeed.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace spindle;

namespace {

/** Offered rate of the open-loop phase, requests per second, frozen
 *  so every run and every commit is offered the same load: about a
 *  quarter of the saturation capacity measured on a shared 4-vCPU
 *  host. At half, queueing amplified the host's co-tenant slowdowns
 *  and the median latency swung up to 5x between runs. */
constexpr double kOfferedRate = 800;
constexpr std::uint32_t kWorkers = 3;

/**
 * Plans cached per tenant cluster, against 39 inputs each: about a
 * third of the requests miss, so the median falls among whole-plan
 * dedupes and the p90 among misses. With 4 cached, 70% missed and
 * the p90 swung 2x from run to run with which prefix donors the
 * concurrent misses happened to leave in the cache.
 */
constexpr std::size_t kPlansPerContext = 16;

/** Admission queue bound: ample for 3 workers, small enough that the
 *  responses alive at once (and so peak memory) stay bounded. */
constexpr std::size_t kQueueCapacity = 32;
constexpr std::size_t kWarmupRequests = 8;

/** Generator poll interval (see OpenLoop). */
constexpr int kPollUs = 50;

/** One round of the three stretches: short enough that its probes
 *  follow the host's slow stretches, which last seconds to minutes. */
constexpr double kRoundMs = 2000;
constexpr double kOpenShare = 0.4;
constexpr double kSaturationShare = 0.3; ///< the engine has the rest

struct Setup
{
    ServiceInputs in;
    std::vector<std::unique_ptr<ComputationGraph>> graphs;
    std::vector<std::unique_ptr<MetaGraph>> metas; ///< per pool input
    std::unique_ptr<ClusterTopology> topo64, topo256;
    std::unique_ptr<HardwareModel> hw64, hw256;
    std::vector<const HardwareModel *> hw; ///< per pool input
};

PlanServiceOptions
serviceOptions()
{
    PlanServiceOptions o;
    o.workers = kWorkers;
    o.maxPlansPerContext = kPlansPerContext;
    o.queueCapacity = kQueueCapacity;
    return o;
}

std::unique_ptr<Setup>
setUp(std::uint64_t seed, Tracer &tracer, std::uint64_t request)
{
    auto s = std::make_unique<Setup>();
    s->in = generateService(seed);
    timedSpan(tracer, "hardware", "build", request, [&] {
        s->topo64 = std::make_unique<ClusterTopology>(
            clusterConfig(8, s->in.fabricScale));
        s->hw64 = std::make_unique<HardwareModel>(*s->topo64);
    });
    timedSpan(tracer, "hardware", "build", request, [&] {
        s->topo256 = std::make_unique<ClusterTopology>(
            clusterConfig(32, s->in.fabricScale));
        s->hw256 = std::make_unique<HardwareModel>(*s->topo256);
    });
    for (const ServiceInput &input : s->in.pool) {
        timedSpan(tracer, "graph", "build_model", request, [&] {
            s->graphs.push_back(
                std::make_unique<ComputationGraph>(buildMixGraph(input.mix)));
        });
        timedSpan(tracer, "graph", "contract", request, [&] {
            s->metas.push_back(
                std::make_unique<MetaGraph>(contractGraph(*s->graphs.back())));
        });
        s->hw.push_back(input.nodes == 8 ? s->hw64.get() : s->hw256.get());
    }
    timedSpan(tracer, "service", "warmup", request, [&] {
        PlanService warm(*s->hw64, serviceOptions());
        for (std::size_t i = 0; i < kWarmupRequests; ++i)
            warm.submit(*s->metas[i], *s->hw[i]);
        warm.drain();
    });
    return s;
}

/** Byte-checks every response against the serial plan() of its
 *  input. */
struct ResponseCheck
{
    void add(WorkloadResult &result, const PlanJob &job,
             std::uint32_t input) const
    {
        if (job.status() != PlanJobState::Done) {
            result.fail(strCat("request ", job.id(), " ended ",
                               toString(job.status())));
            return;
        }
        result.check(planBytes(job.result()) == serial[input],
                     strCat("request ", job.id(),
                            ": response differs from a serial plan() of "
                            "its input"));
    }

    std::vector<std::string> serial; ///< per pool input
};

/**
 * The open loop: requests sent at kOfferedRate, in stretches. Between sends the generator
 * polls its outstanding jobs every kPollUs, so a completion is
 * observed within about that long of happening. It sleeps between
 * polls rather than spinning: a fourth always-busy thread left the
 * 4-vCPU host no slack, and any other runnable thread then stalled
 * one of the workers for a whole time slice.
 */
class OpenLoop
{
  public:
    OpenLoop(const Setup &s, const RunOptions &opt, PlanService &service,
             Tracer &tracer, WorkloadResult &result,
             const ResponseCheck &responses, PhaseTally &phases,
             CacheTally &cache_tally)
        : s_(s), opt_(opt), tracer_(tracer), result_(result),
          responses_(responses), phases_(phases), cacheTally_(cache_tally),
          service_(service), stream_(s.in, streamFor(opt.seed, "open-loop"))
    {
    }

    /** Send for @p stretch_ms, then wait for every response. Times are
     *  ms since the stretch's start. */
    void stretch(double stretch_ms, std::uint64_t &request)
    {
        const Clock::time_point start = Clock::now();
        const double trace_origin = tracer_.nowMs();
        for (std::size_t i = 0;; ++i) {
            const double due = dueTimeMs(i, kOfferedRate);
            if (due >= stretch_ms)
                break;
            for (double now = msSince(start); now < due;
                 now = msSince(start)) {
                poll(start, trace_origin);
                nap(due - now);
            }
            const std::uint32_t input = stream_.next();
            const double sent = msSince(start);
            PlanJobHandle job =
                service_.submit(*s_.metas[input], *s_.hw[input]);
            submitMs.push_back(msSince(start) - sent);
            records.push_back({due, sent, 0});
            planMs.push_back(0);
            traced.push_back(opt_.trace && records.size() % 2 == 0);
            pending_.push_back(
                {std::move(job), input, records.size() - 1, ++request});
            backlogMax = std::max(backlogMax, pending_.size());
        }
        while (!pending_.empty()) {
            poll(start, trace_origin);
            nap(kPollUs / 1e3);
        }
    }

    std::vector<OpenLoopRecord> records;
    std::vector<bool> traced;
    std::vector<double> submitMs;
    std::vector<double> planMs; ///< the worker's planning time, per record
    std::size_t backlogMax = 0;

  private:
    struct Pending
    {
        PlanJobHandle job;
        std::uint32_t input;
        std::size_t record;
        std::uint64_t request;
    };

    static void nap(double max_ms)
    {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(max_ms, kPollUs / 1e3)));
    }

    void poll(Clock::time_point start, double trace_origin)
    {
        for (std::size_t i = 0; i < pending_.size();) {
            const PlanJobState st = pending_[i].job->status();
            if (st == PlanJobState::Queued || st == PlanJobState::Running) {
                ++i;
                continue;
            }
            complete(pending_[i], st, start, trace_origin);
            pending_[i] = std::move(pending_.back());
            pending_.pop_back();
        }
    }

    void complete(const Pending &p, PlanJobState st, Clock::time_point start,
                  double trace_origin)
    {
        OpenLoopRecord &rec = records[p.record];
        rec.doneMs = msSince(start);
        responses_.add(result_, *p.job, p.input);
        if (st != PlanJobState::Done)
            return;
        const PlannerOutput &out = p.job->result();
        planMs[p.record] = out.planningSeconds * 1e3;
        phases_.add(out.phaseSeconds);
        cacheTally_.add(out.replan, out.planningSeconds * 1e3);
        if (!traced[p.record])
            return;
        // Spans from the generator's timestamps: the request from its
        // due time to its observed completion, its submit(), and the
        // worker's planning, placed to end at the completion.
        const double due = trace_origin + rec.dueMs;
        const double done = trace_origin + rec.doneMs;
        const double sent = trace_origin + rec.sentMs;
        const int root =
            tracer_.add("service", "request", due, done, -1, p.request);
        tracer_.add("service", "submit", sent, sent + submitMs[p.record],
                    root, p.request);
        const int plan = tracer_.add("planner", "replan",
                                     done - out.planningSeconds * 1e3, done,
                                     root, p.request);
        addPhaseSpans(tracer_, plan, out.phaseSeconds, p.request);
    }

    const Setup &s_;
    const RunOptions &opt_;
    Tracer &tracer_;
    WorkloadResult &result_;
    const ResponseCheck &responses_;
    PhaseTally &phases_;
    CacheTally &cacheTally_;
    PlanService &service_;
    RequestStream stream_;
    std::vector<Pending> pending_;
};

/** Saturation: the service's admission queue kept full, in
 *  stretches. */
class Saturation
{
  public:
    Saturation(const Setup &s, const RunOptions &opt, PlanService &service,
               WorkloadResult &result, const ResponseCheck &responses)
        : s_(s), result_(result), responses_(responses), service_(service),
          stream_(s.in, streamFor(opt.seed, "saturation"))
    {
    }

    /** Keep the queue full for @p stretch_ms, then drain it. Returns
     *  the ms the queue was kept full; completions counts the plans
     *  completed meanwhile. */
    double stretch(double stretch_ms)
    {
        const std::uint64_t before = service_.stats().completed;
        const Clock::time_point start = Clock::now();
        while (msSince(start) < stretch_ms) {
            const std::uint32_t input = stream_.next();
            // Blocks while the admission queue is full.
            pending_.emplace_back(
                service_.submit(*s_.metas[input], *s_.hw[input]), input);
            retire(false);
        }
        completions += service_.stats().completed - before;
        const double elapsed = msSince(start);
        retire(true);
        return elapsed;
    }

    std::uint64_t completions = 0;

  private:
    void retire(bool all)
    {
        while (!pending_.empty()) {
            const PlanJobState st = all ? pending_.front().first->wait()
                                        : pending_.front().first->status();
            if (st == PlanJobState::Queued || st == PlanJobState::Running)
                break;
            responses_.add(result_, *pending_.front().first,
                           pending_.front().second);
            pending_.pop_front();
        }
    }

    const Setup &s_;
    WorkloadResult &result_;
    const ResponseCheck &responses_;
    PlanService &service_;
    RequestStream stream_;
    std::deque<std::pair<PlanJobHandle, std::uint32_t>> pending_;
};

} // namespace

WorkloadResult
runServiceMix(const RunOptions &opt)
{
    WorkloadResult result("service-mix");
    Tracer tracer(opt.trace);
    Tracer off(false);
    std::uint64_t request = 0;
    // Default timer slack (50 us) would make every generator nap
    // overshoot.
    prctl(PR_SET_TIMERSLACK, 1000UL); // ns, this thread only

    // Every timed stretch is bracketed by host-speed probes.
    HostSpeed host;
    Timings setup_s;
    std::unique_ptr<Setup> owned;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        owned.reset();
        host.sample();
        const Clock::time_point t0 = Clock::now();
        owned = setUp(opt.seed, tracer, ++request);
        const double measured = msSince(t0) / 1e3;
        setup_s.add(measured, host.endStretch());
    }
    const Setup &s = *owned;
    PhaseTally phases;
    CacheTally cache_tally;
    RuntimeProbe probe;

    // Engine runs; in a traced run every other one is traced.
    std::uint64_t engine_op = 0;
    auto run_engine = [&](std::size_t i, const ExecutionPlan &plan,
                          std::uint64_t req, bool *traced) {
        *traced = opt.trace && engine_op++ % 2 == 1;
        Tracer &t = *traced ? tracer : off;
        const Engine engine(*s.hw[i]);
        IterationResult iter =
            probe.engineRun(t, engine, *s.metas[i], plan, req);
        if (*traced)
            probe.helpers(t, engine, *s.metas[i], plan, req);
        return iter;
    };

    // ---- serial references, single-threaded and untimed
    ResponseCheck responses;
    std::vector<SimSample> sims;
    std::vector<double> deepspeed_ms;
    std::vector<std::pair<std::size_t, PlannerOutput>> wall_plans;
    for (std::size_t i = 0; i < s.in.pool.size(); ++i) {
        const MetaGraph &meta = *s.metas[i];
        const HardwareModel &hw = *s.hw[i];
        PlannerOutput ref = ExecutionPlanner(hw).plan(meta);
        responses.serial.push_back(planBytes(ref));
        const std::uint64_t req = ++request;
        timedSpan(opt.trace ? tracer : off, "planner", "validate", req,
                  [&] { checkValid(result, ref.plan, meta, "serial plan"); });
        bool traced = false;
        const IterationResult iter = run_engine(i, ref.plan, req, &traced);
        sims.push_back(simSample(ref.plan, iter));
        result.check(iter.iterationSeconds >= ref.plan.theoreticalOptimum,
                     "simulated iteration below theoreticalOptimum");
        deepspeed_ms.push_back(
            SequentialSystem(hw, SequentialMode::DeepSpeed)
                .runIteration(meta)
                .iterationSeconds *
            1e3);
        if (s.in.pool[i].nodes == 32)
            wall_plans.emplace_back(i, std::move(ref));
    }

    // ---- rounds of open-loop, saturation and engine stretches
    PlanService service(*s.hw64, serviceOptions());
    OpenLoop open(s, opt, service, tracer, result, responses, phases,
                  cache_tally);
    Saturation saturation(s, opt, service, result, responses);
    Timings plan_ms[2], engine_ms[2];
    Timings ms_per_saturated_plan; ///< one sample per stretch
    std::size_t next_wall_plan = 0;
    host.sample();
    const Clock::time_point start = Clock::now();
    while (msSince(start) < opt.seconds * 1e3) {
        const std::size_t first = open.records.size();
        open.stretch(kOpenShare * kRoundMs, request);
        const double f_open = host.endStretch();
        for (std::size_t k = first; k < open.records.size(); ++k)
            plan_ms[open.traced[k]].add(open.planMs[k], f_open);

        const std::uint64_t done_before = saturation.completions;
        const double full_ms = saturation.stretch(kSaturationShare * kRoundMs);
        const double f_saturation = host.endStretch();
        ms_per_saturated_plan.add(
            full_ms / static_cast<double>(saturation.completions - done_before),
            f_saturation);

        std::vector<std::pair<double, bool>> walls;
        const Clock::time_point engine_start = Clock::now();
        const double engine_ms_left =
            (1 - kOpenShare - kSaturationShare) * kRoundMs;
        while (msSince(engine_start) < engine_ms_left) {
            const auto &[i, ref] = wall_plans[next_wall_plan++ %
                                              wall_plans.size()];
            bool traced = false;
            const Clock::time_point t0 = Clock::now();
            const IterationResult iter =
                run_engine(i, ref.plan, ++request, &traced);
            walls.emplace_back(msSince(t0), traced);
            result.check(iter.iterationSeconds * 1e3 == sims[i].iterMs,
                         "engine run simulated differently");
        }
        const double f_engine = host.endStretch();
        for (const auto &[ms, traced] : walls)
            engine_ms[traced].add(ms, f_engine);
        result.attempt(walls.size());
    }
    result.attempt(open.records.size() + saturation.completions);

    const OpenLoopSummary summary = summarizeOpenLoop(open.records);
    std::vector<double> latency[2];
    for (std::size_t i = 0; i < open.records.size(); ++i)
        latency[open.traced[i]].push_back(summary.latencyMs[i]);
    result.remark("host speed: " + host.describe());
    result.setTime("setup_s", setup_s, 0.5);
    result.setTime("plan_ms_p50", plan_ms[0], 0.5);
    result.setTime("plan_ms_p90", plan_ms[0], 0.9);
    result.setTime("iteration_wall_ms_p50", engine_ms[0], 0.5);
    result.setTime("iteration_wall_ms_p90", engine_ms[0], 0.9);
    // The median stretch's rate: a stretch disturbed by the host moves
    // it less than it moves the pooled rate.
    result.set(
        "plans_per_s",
        1e3 / percentile(ms_per_saturated_plan.scaled, 0.5).value,
        strCat("measured ",
               1e3 / percentile(ms_per_saturated_plan.measured, 0.5).value,
               "; median of ", ms_per_saturated_plan.scaled.size(),
               " stretches, ", saturation.completions,
               " plans at saturation; open loop offered ", kOfferedRate,
               "/s"));
    reportSim(result, sims, deepspeed_ms);
    result.set("peak_rss_mb", peakRssMb());

    if (opt.trace) {
        const PlanServiceStats stats = service.stats();
        result.set("host.speed_factor", host.factor(), host.describe());
        result.set("service.request_ms_p50", percentile(latency[0], 0.5));
        result.set("service.request_ms_p90", percentile(latency[0], 0.9));
        phases.report(result);
        cache_tally.report(result);
        probe.report(result);
        result.set("service.submit_ms_p90", percentile(open.submitMs, 0.9));
        result.set("service.backlog_max",
                   static_cast<double>(open.backlogMax));
        result.set("service.full_hit_ratio",
                   stats.completed == 0
                       ? 0.0
                       : static_cast<double>(stats.dedupedFullHits) /
                             static_cast<double>(stats.completed),
                   strCat(stats.dedupedFullHits, " of ", stats.completed,
                          " responses"));
        result.set("service.generator_lag_ms_p90",
                   percentile(summary.lagMs, 0.9));
        const double traced = percentile(latency[1], 0.5).value +
                              percentile(engine_ms[1].scaled, 0.5).value;
        const double untraced = percentile(latency[0], 0.5).value +
                                percentile(engine_ms[0].scaled, 0.5).value;
        reportTrace(result, tracer, untraced > 0 ? traced / untraced : 0.0,
                    opt.traceFile);
    }
    return result;
}

} // namespace perfbench
