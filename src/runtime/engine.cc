#include "runtime/engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "runtime/sync_executor.h"
#include "runtime/transmission_executor.h"
#include "runtime/wave_dispatcher.h"

namespace spindle {

namespace {

/** Warn about and clamp an out-of-range option fraction. */
void
clampFraction(double &value, const char *name)
{
    if (value >= 0 && value <= 1)
        return;
    const double clamped = std::clamp(value, 0.0, 1.0);
    warn(strCat("Engine: ", name, " = ", value,
                " is outside [0, 1]; clamping to ", clamped));
    value = clamped;
}

/**
 * Everything one plan needs to execute on a shared simulator. The
 * same bundle serves the base iteration and every mid-iteration
 * arrival, so all plans dispatch on an identical substrate.
 */
struct PlanExecution
{
    PlanExecution(Simulator &sim, const HardwareModel &hw,
                  const MetaGraph &graph, const ExecutionPlan &plan,
                  const EngineOptions &options,
                  const DispatchPolicy &policy)
        : trans(sim, hw.collectives(), graph, plan),
          pool(ParameterGroupPool::build(graph, plan, &hw.topology(),
                                         options.collective)),
          dispatcher(sim, hw, graph, plan, options, trans, policy),
          syncer(sim, hw.collectives(), pool, options)
    {
    }

    TransmissionExecutor trans;
    ParameterGroupPool pool;
    WaveDispatcher dispatcher;
    SyncExecutor syncer;

    DispatchStats stats;
    SyncStats sync;
    bool finished = false;
};

/** Dispatch fwd + bwd + sync of one plan, starting at @p earliest. */
void
startExecution(PlanExecution &exec, double earliest, bool overlap)
{
    exec.dispatcher.start(earliest, [&exec,
                                     overlap](const DispatchStats &st) {
        exec.stats = st;
        exec.sync = exec.syncer.execute(st.fwdEnd, st.bwdEnd, overlap);
        exec.finished = true;
    });
}

/** Every device a placed plan reserves, ascending. */
DeviceSet
planDevices(const ExecutionPlan &plan)
{
    std::vector<bool> used(plan.numDevices, false);
    for (const Wave &w : plan.waves)
        for (const WaveEntry &e : w.entries)
            for (DeviceId d : e.devices)
                used[d] = true;
    DeviceSet out;
    for (DeviceId d = 0; d < plan.numDevices; ++d)
        if (used[d])
            out.push_back(d);
    return out;
}

} // namespace

Engine::Engine(const HardwareModel &hw, MemoryParams mem_params,
               EngineOptions options)
    : hw_(hw), mem_(mem_params), options_(options)
{
    clampFraction(options_.syncOverlapFraction, "syncOverlapFraction");
    clampFraction(options_.minSyncFraction, "minSyncFraction");

    RecoveryOptions &rec = options_.recovery;
    if (rec.detectionSeconds < 0) {
        warn(strCat("Engine: recovery.detectionSeconds = ",
                    rec.detectionSeconds,
                    " is negative; clamping to 0"));
        rec.detectionSeconds = 0;
    }
    if (rec.restartSeconds < 0) {
        warn(strCat("Engine: recovery.restartSeconds = ",
                    rec.restartSeconds, " is negative; clamping to 0"));
        rec.restartSeconds = 0;
    }
    if (rec.maxReplanAttempts == 0) {
        warn("Engine: recovery.maxReplanAttempts = 0 — recovery needs "
             "at least one attempt; raising to 1");
        rec.maxReplanAttempts = 1;
    }
    if (rec.retryBackoff < 1) {
        warn(strCat("Engine: recovery.retryBackoff = ", rec.retryBackoff,
                    " is below 1 (backoff must not shrink delays); "
                    "clamping to 1"));
        rec.retryBackoff = 1;
    }
}

IterationResult
Engine::run(const MetaGraph &graph, const ExecutionPlan &plan) const
{
    return runDynamic(graph, plan, {});
}

IterationResult
Engine::runDynamic(const MetaGraph &graph, const ExecutionPlan &plan,
                   const std::vector<TaskArrival> &arrivals,
                   std::vector<double> *arrival_end) const
{
    // Fault-free runs take the same path as faulted ones; with no
    // faults armed the injector never fires, so the result is
    // bit-identical to the pre-fault-injection dispatcher.
    return runWithFaults(graph, plan, {}, arrivals, arrival_end).result;
}

FaultedIterationResult
Engine::runWithFaults(const MetaGraph &graph, const ExecutionPlan &plan,
                      const std::vector<InjectedFault> &faults,
                      const std::vector<TaskArrival> &arrivals,
                      std::vector<double> *arrival_end) const
{
    FaultedIterationResult out;
    IterationResult &result = out.result;
    if (arrival_end)
        arrival_end->clear();
    if (plan.waves.empty()) {
        // Refuse to silently drop injected work: an empty base plan
        // has no simulator to dispatch the arrivals on.
        panicIf(!arrivals.empty(),
                "runDynamic: arrivals with an empty base plan");
        panicIf(!faults.empty(),
                "runWithFaults: faults with an empty base plan");
        return out;
    }

    Simulator sim(plan.numDevices);
    const std::unique_ptr<DispatchPolicy> policy =
        makeDispatchPolicy(options_.dispatch);
    const bool overlap =
        policy->kind() != DispatchPolicyKind::StrictBarrier;

    // The base iteration registers its events immediately...
    PlanExecution base(sim, hw_, graph, plan, options_, *policy);
    startExecution(base, 0.0, overlap);
    const DeviceSet base_devices = planDevices(plan);

    // Fault batches arm before the arrival events so that a fault
    // and an arrival at the same instant resolve deterministically
    // as fault-first: the arrival sees the dead devices and is
    // refused instead of starting on hardware that is already gone.
    std::vector<char> started(arrivals.size(), 0);
    std::vector<DeviceSet> arrival_devices(arrivals.size());
    std::vector<std::unique_ptr<PlanExecution>> injected(arrivals.size());
    FaultInjector injector(sim, faults);
    injector.arm([&](double time, const DeviceSet &dead) {
        // Halt only when in-flight work depends on a dead device;
        // work that already drained survives the failure, and an
        // idle-device loss lets the iteration keep running — only
        // future injections must route around it. `finished` alone
        // is not "drained": the dispatcher reserves the sync tail
        // synchronously when the last wave completes, so a fault can
        // land inside reserved-but-unfinished sync intervals — the
        // execution is in flight until its iteration end.
        const auto in_flight = [time](const PlanExecution &e) {
            return !e.finished || time < e.sync.iterationEnd;
        };
        bool hit = in_flight(base) && intersects(base_devices, dead);
        for (std::size_t i = 0; i < arrivals.size() && !hit; ++i)
            hit = started[i] && in_flight(*injected[i]) &&
                  intersects(arrival_devices[i], dead);
        if (hit && out.completed) {
            out.completed = false;
            out.failureTime = time;
        }
        return hit;
    });

    // ... and each arriving task is injected through the event
    // queue at its arrival time, contending for the same devices.
    // Arrivals may be supplied in any order: dispatch processes them
    // by arrival time (stable — equal-time arrivals keep their input
    // order), so event registration, and with it every equal-time
    // tie-break in the simulator, is independent of the caller's
    // ordering. Results are still reported in input order.
    std::vector<std::size_t> order(arrivals.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&arrivals](std::size_t a, std::size_t b) {
                         return arrivals[a].time < arrivals[b].time;
                     });

    for (std::size_t idx : order) {
        const TaskArrival &a = arrivals[idx];
        panicIf(a.graph == nullptr || a.plan == nullptr,
                "runDynamic: null arrival");
        panicIf(a.time < 0, "runDynamic: negative arrival time");
        panicIf(a.plan->numDevices != plan.numDevices,
                "runDynamic: arrival targets a different cluster");
        panicIf(a.plan->waves.empty(), "runDynamic: empty arrival plan");
        arrival_devices[idx] = planDevices(*a.plan);
        injected[idx] = std::make_unique<PlanExecution>(
            sim, hw_, *a.graph, *a.plan, options_, *policy);
        PlanExecution *exec = injected[idx].get();
        const double at = a.time;
        sim.queue().schedule(at, [&out, &sim, &started, &arrival_devices,
                                  exec, idx, at, overlap] {
            if (sim.anyFailed(arrival_devices[idx])) {
                // The task's placement predates the failure; refuse
                // injection with a structured error the caller can
                // act on (replan the task on the survivors) instead
                // of tripping the simulator's dead-device panic.
                DeviceSet lost;
                for (DeviceId d : arrival_devices[idx])
                    if (sim.isFailed(d))
                        lost.push_back(d);
                out.arrivalErrors.push_back(
                    {idx, strCat("arrival ", idx, " at t=", at,
                                 " is placed on failed device(s) ",
                                 deviceSetStr(lost),
                                 "; replan it on the surviving "
                                 "topology before injecting")});
                return;
            }
            started[idx] = 1;
            startExecution(*exec, at, overlap);
        });
    }

    sim.queue().run();
    out.failedDevices = sim.failedDevices();
    result.peakMemoryBytes = peakMemoryPerDevice(graph, plan, hw_, mem_);

    if (!out.completed) {
        // A fault aborted the iteration: every started interval is
        // invalidated (the recovery path restarts the iteration from
        // scratch on the survivors), so all progress before the
        // failure counts as lost work. The reported timeline is
        // truncated at the failure instant — what the cluster
        // actually executed, not what the plan promised.
        const double t_f = out.failureTime;
        Timeline clipped;
        for (const ExecRecord &r : sim.timeline().records()) {
            out.lostWorkSeconds +=
                std::min(r.end, t_f) - std::min(r.start, t_f);
            if (r.end > t_f)
                ++out.abortedReservations;
            ExecRecord c = r;
            c.start = std::min(r.start, t_f);
            c.end = std::min(r.end, t_f);
            if (c.end > c.start)
                clipped.record(std::move(c));
        }
        result.timeline = std::move(clipped);
        result.iterationSeconds = t_f;
        return out;
    }

    panicIf(!base.finished, "runDynamic: base iteration never drained");
    result.iterationSeconds = base.sync.iterationEnd;
    result.breakdown.sync = base.sync.exposedSync;
    result.breakdown.sendRecv = base.stats.exposedSendRecv;
    result.breakdown.fwdBwd = result.iterationSeconds -
                              result.breakdown.sync -
                              result.breakdown.sendRecv;
    result.transmissionBytes = base.trans.totalBytes();
    result.syncBytes = base.pool.totalSyncBytes();
    for (std::size_t idx = 0; idx < injected.size(); ++idx) {
        const auto &exec = injected[idx];
        if (!started[idx]) {
            // Refused above (queue drained, so every arrival event
            // fired); its error is in arrivalErrors and its end slot
            // reads -1 to keep input-order alignment.
            if (arrival_end)
                arrival_end->push_back(-1.0);
            continue;
        }
        panicIf(!exec->finished, "runDynamic: arrival never drained");
        result.iterationSeconds =
            std::max(result.iterationSeconds, exec->sync.iterationEnd);
        result.transmissionBytes += exec->trans.totalBytes();
        result.syncBytes += exec->pool.totalSyncBytes();
        if (arrival_end)
            arrival_end->push_back(exec->sync.iterationEnd);
    }

    // Runtime memory validation: a placed plan promising more bytes
    // than a device's HBM would OOM on real hardware. The planner's
    // placement never commits such a plan, but hand-built and
    // baseline plans (whole-cluster replication) can; surface the
    // worst offender once instead of failing the simulation.
    const double hbm = hw_.topology().device().memoryBytes;
    std::size_t worst = result.peakMemoryBytes.size();
    for (std::size_t d = 0; d < result.peakMemoryBytes.size(); ++d) {
        if (result.peakMemoryBytes[d] > hbm &&
            (worst == result.peakMemoryBytes.size() ||
             result.peakMemoryBytes[d] > result.peakMemoryBytes[worst]))
            worst = d;
    }
    if (worst != result.peakMemoryBytes.size())
        warn(strCat("Engine: placed plan oversubscribes device ", worst,
                    " (", result.peakMemoryBytes[worst] / GiB,
                    " GiB peak vs ", hbm / GiB, " GiB HBM)"));

    result.timeline = sim.takeTimeline();
    return out;
}

std::vector<double>
peakMemoryPerDevice(const MetaGraph &graph, const ExecutionPlan &plan,
                    const HardwareModel &hw, const MemoryModel &mem)
{
    auto key_of = [](const OperatorDesc &op) {
        return op.paramKey != kNoParam
                   ? static_cast<std::int64_t>(op.paramKey)
                   : -(static_cast<std::int64_t>(op.id) + 2);
    };

    // Devices that sit in exactly the same entries receive the same
    // sequence of keys and shares, so they build identical
    // parameter maps (bucket layout included) and reach the same
    // peak bit for bit. Refine the devices into such classes, one
    // entry at a time, and account each class once: tens of classes
    // instead of thousands of devices on a large cluster. Entries
    // list each device once (canonical sets).
    std::vector<std::uint32_t> class_of(plan.numDevices, 0);
    std::vector<std::pair<std::size_t, std::uint32_t>> split_into(
        1, {~std::size_t{0}, 0}); // per class: (entry, new class)
    std::size_t entry_no = 0;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            panicIf(e.devices.empty(),
                    "peakMemoryPerDevice: plan is not placed");
            for (DeviceId d : e.devices) {
                if (split_into[class_of[d]].first != entry_no) {
                    const auto fresh =
                        static_cast<std::uint32_t>(split_into.size());
                    split_into[class_of[d]] = {entry_no, fresh};
                    split_into.push_back({~std::size_t{0}, 0});
                }
                class_of[d] = split_into[class_of[d]].second;
            }
            ++entry_no;
        }
    }
    std::vector<std::uint32_t> class_size(split_into.size(), 0);
    for (std::uint32_t c : class_of)
        ++class_size[c];

    // The classes of every entry, in entry order. A class lies wholly
    // inside or outside each entry, so one device stands for it.
    std::vector<std::vector<std::uint32_t>> entry_classes;
    std::vector<std::size_t> seen(split_into.size(), ~std::size_t{0});
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            auto &classes = entry_classes.emplace_back();
            for (DeviceId d : e.devices) {
                if (seen[class_of[d]] != entry_classes.size()) {
                    seen[class_of[d]] = entry_classes.size();
                    classes.push_back(class_of[d]);
                }
            }
        }
    }

    // Pass 1: the size of every key's parameter device group (the
    // union of devices hosting it, §3.6 step 3) — ZeRO shards
    // optimizer state across the *group*, not just one entry's DP
    // width. A class joins the group when its map first receives
    // the key. The maps are built in the per-device insertion order
    // of the shares below, which fixes their bucket layout and so
    // the order of the final sums.
    std::vector<std::unordered_map<std::int64_t, double>> params(
        split_into.size());
    std::unordered_map<std::int64_t, std::uint32_t> group_size;
    constexpr double kNoShare = -std::numeric_limits<double>::infinity();
    entry_no = 0;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::uint32_t c : entry_classes[entry_no++]) {
                for (std::int64_t i = 0; i < e.numOps; ++i) {
                    const OperatorDesc &op =
                        graph.base().op(m.ops[e.opBegin + i]);
                    if (op.paramBytes <= 0)
                        continue;
                    const std::int64_t key = key_of(op);
                    if (params[c].try_emplace(key, kNoShare).second)
                        group_size[key] += class_size[c];
                }
            }
        }
    }

    // Pass 2: per class, parameter state deduplicated by key (the
    // largest share any entry assigns it) plus all activations
    // stashed until the backward pass.
    std::vector<double> act(split_into.size(), 0.0);
    entry_no = 0;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const std::vector<std::uint32_t> &classes =
                entry_classes[entry_no++];
            const MetaOp &m = graph.metaOp(e.metaOp);
            const ParallelConfig cfg = hw.bestConfig(memberDesc(m), e.n);
            const double act_share =
                mem.activationBytesPerDevice(m, e.numOps, cfg);
            for (std::uint32_t c : classes)
                act[c] += act_share;
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const std::int64_t key = key_of(op);
                const double shard =
                    op.paramBytes / cfg.tp /
                    (mem.params().zeroShardParams ? cfg.dp : 1.0);
                const double share =
                    shard + op.paramBytes * mem.params().optimizerFactor /
                                (mem.params().zeroShardOptimizer
                                     ? static_cast<double>(
                                           group_size.at(key))
                                     : cfg.tp);
                for (std::uint32_t c : classes) {
                    double &held = params[c].find(key)->second;
                    if (share > held)
                        held = share;
                }
            }
        }
    }

    std::vector<double> class_peak(split_into.size(), 0.0);
    for (std::size_t c = 0; c < split_into.size(); ++c) {
        if (class_size[c] == 0)
            continue;
        class_peak[c] = act[c];
        for (const auto &[key, bytes] : params[c])
            class_peak[c] += bytes;
    }
    std::vector<double> peak(plan.numDevices);
    for (std::uint32_t d = 0; d < plan.numDevices; ++d)
        peak[d] = class_peak[class_of[d]];
    return peak;
}

} // namespace spindle
