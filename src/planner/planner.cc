#include "planner/planner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "runtime/memory_model.h"

namespace spindle {

namespace {

using clock_type = std::chrono::steady_clock;

double
secondsBetween(clock_type::time_point a, clock_type::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

std::uint64_t
mix(std::uint64_t h, double v)
{
    return mix(h, std::bit_cast<std::uint64_t>(v));
}

/**
 * Fingerprint of every option that can change planned bytes.
 * `threads` is deliberately excluded (plans are byte-identical at
 * any thread count), as are `cache` (bookkeeping, not behavior) and
 * `placement.generator` (an opaque pointer: replan() bypasses the
 * cache when one is installed).
 */
std::uint64_t
optionsFingerprint(const PlannerOptions &o)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = mix(h, static_cast<std::uint64_t>(o.estimator.piecewise));
    h = mix(h, static_cast<std::uint64_t>(o.scheduler.extendResources));
    h = mix(h, static_cast<std::uint64_t>(o.placement.strategy));
    h = mix(h, static_cast<std::uint64_t>(o.placement.windows));
    h = mix(h,
            static_cast<std::uint64_t>(o.placement.partialFallbackRestart));
    h = mix(h, o.placement.memorySlack);
    h = mix(h, o.placement.memoryWeight);
    h = mix(h, o.memory.optimizerFactor);
    h = mix(h, static_cast<std::uint64_t>(o.memory.zeroShardOptimizer));
    h = mix(h, static_cast<std::uint64_t>(o.memory.zeroShardParams));
    h = mix(h, o.memory.activationFactor);
    return h;
}

/** Curve-memo key of one MetaOp (§3.2 reads nothing else from it). */
PlanCache::CurveKey
curveKeyOf(const MetaOp &m, std::uint32_t max_devices)
{
    return {m.type,          m.input,           m.flopsFwdPerOp,
            m.paramBytesPerOp, m.activationBytes, max_devices};
}

/** §3.2 memo: one scaling curve per MetaOp workload shape. */
struct CurveMemo
{
    using Key = PlanCache::CurveKey;

    PlanCache *cache;
    std::uint64_t ctx;
    const MetaGraph &graph;
    std::uint32_t n;

    Key key(std::size_t id) const
    {
        return curveKeyOf(graph.metaOps()[id], n);
    }
    std::optional<ScalingCurve> find(const Key &key) const
    {
        return cache->findCurve(ctx, key);
    }
    void store(const Key &key, const ScalingCurve &curve) const
    {
        cache->storeCurve(ctx, key, curve);
    }
    ScalingCurve adopt(ScalingCurve curve, std::size_t) const
    {
        return curve;
    }
};

/** §3.3 memo: one allocation per level key. Values are stored
 *  positionally and adopted onto the probing level's MetaOp ids. */
struct LevelMemo
{
    using Key = PlanCache::LevelKey;

    PlanCache *cache;
    std::uint64_t ctx;
    const MetaGraph &graph;
    std::uint32_t n;

    Key key(std::size_t level) const
    {
        Key key;
        key.ops.reserve(graph.level(level).size());
        for (MetaOpId id : graph.level(level)) {
            const MetaOp &m = graph.metaOp(id);
            key.ops.push_back({curveKeyOf(m, n), m.numOps(),
                               graph.paramSharingWidths()[id]});
        }
        return key;
    }
    std::optional<LevelAllocation> find(const Key &key) const
    {
        return cache->findLevelAlloc(ctx, key);
    }
    void store(const Key &key, const LevelAllocation &alloc) const
    {
        cache->storeLevelAlloc(ctx, key, alloc);
    }
    LevelAllocation adopt(LevelAllocation alloc, std::size_t level) const
    {
        const std::vector<MetaOpId> &ids = graph.level(level);
        alloc.metaOps = ids;
        panicIf(alloc.plans.size() != ids.size(),
                "replan: cached allocation shape mismatch");
        for (std::size_t i = 0; i < ids.size(); ++i)
            alloc.plans[i].metaOp = ids[i];
        return alloc;
    }
};

/**
 * One stage over @p count independent items (MetaOps for §3.2,
 * levels for §3.3): item i gets compute(i), computed on @p pool.
 *
 * With a @p memo, keys are probed serially in item order first. A
 * value the memo holds, or one an earlier item of this call computes,
 * is a hit; only the misses are computed — in parallel — and stored
 * back. A repeated key therefore counts as a hit after its first
 * miss, exactly what a serial probe-compute-store loop counts, so
 * @p hits / @p misses do not depend on the thread count. Without a
 * memo no key is built.
 */
template <typename Value, typename Memo, typename Compute>
std::vector<Value>
memoizedStage(std::size_t count, ThreadPool *pool, const Memo *memo,
              const Compute &compute, std::uint64_t &hits,
              std::uint64_t &misses)
{
    std::vector<std::optional<Value>> slots(count);
    std::vector<std::size_t> todo; // items to compute, ascending
    std::vector<typename Memo::Key> keys;
    std::vector<std::size_t> repeats; // item -> earlier miss, or count
    if (memo == nullptr) {
        todo.resize(count);
        std::iota(todo.begin(), todo.end(), std::size_t{0});
    } else {
        keys.reserve(count);
        repeats.assign(count, count);
        for (std::size_t i = 0; i < count; ++i) {
            keys.push_back(memo->key(i));
            const auto first =
                std::find_if(todo.begin(), todo.end(), [&](std::size_t j) {
                    return keys[j] == keys[i];
                });
            if (first != todo.end()) {
                repeats[i] = *first;
                ++hits;
            } else if (std::optional<Value> hit = memo->find(keys[i])) {
                slots[i].emplace(memo->adopt(std::move(*hit), i));
                ++hits;
            } else {
                todo.push_back(i);
                ++misses;
            }
        }
    }

    maybeParallelFor(pool, /*parallel=*/true, 0, todo.size(), 1,
                     [&](std::size_t t) {
                         slots[todo[t]].emplace(compute(todo[t]));
                     });

    if (memo != nullptr) {
        for (std::size_t i : todo)
            memo->store(keys[i], *slots[i]);
        for (std::size_t i = 0; i < count; ++i)
            if (repeats[i] != count)
                slots[i].emplace(memo->adopt(*slots[repeats[i]], i));
    }

    std::vector<Value> out;
    out.reserve(count);
    for (std::optional<Value> &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

/** Combined fingerprint of every cost-model parameter: the scaling
 *  curves, and so every planned byte, depend on all of them. */
std::uint64_t
paramsFingerprint(const HardwareParams &p)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = mix(h, p.bwdFlopsFactor);
    h = mix(h, p.kernelLaunch);
    h = mix(h, p.halfEffFlops);
    h = mix(h, p.smallKernelFlops);
    h = mix(h, p.smallKernelFactor);
    h = mix(h, p.tinyKernelFlops);
    h = mix(h, p.tinyKernelFactor);
    h = mix(h, p.minEfficiency);
    h = mix(h, static_cast<std::uint64_t>(p.maxTpDegree));
    return h;
}

/**
 * Copy the device sets of @p donor's waves over its leading
 * @p donor_levels levels into @p plan; returns the wave index
 * placement resumes at.
 */
std::size_t
replayDonorPrefix(const PlanCache::CachedPlan &donor,
                  std::size_t donor_levels, ExecutionPlan &plan)
{
    std::size_t resume_wave = 0;
    while (resume_wave < plan.waves.size() &&
           plan.waves[resume_wave].level <
               static_cast<std::int32_t>(donor_levels))
        ++resume_wave;
    panicIf(resume_wave > donor.plan.waves.size(),
            "replan: donor prefix shorter than matched levels");
    for (std::size_t w = 0; w < resume_wave; ++w) {
        Wave &dst = plan.waves[w];
        const Wave &src = donor.plan.waves[w];
        // The matched levels are value-identical, so the waves the
        // (deterministic) scheduler crafted for them must agree shape
        // for shape.
        panicIf(src.level != dst.level ||
                    src.entries.size() != dst.entries.size(),
                "replan: donor prefix wave shape mismatch");
        for (std::size_t i = 0; i < dst.entries.size(); ++i) {
            const WaveEntry &from = src.entries[i];
            WaveEntry &to = dst.entries[i];
            panicIf(from.n != to.n || from.opBegin != to.opBegin ||
                        from.numOps != to.numOps,
                    "replan: donor prefix entry mismatch");
            to.devices = from.devices;
        }
    }
    return resume_wave;
}

} // namespace

ExecutionPlanner::ExecutionPlanner(const HardwareModel &hw,
                                   PlannerOptions options)
    : hw_(hw), options_(options),
      threads_(resolveThreadCount(options.threads))
{
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);
    cache_context_ =
        mix(mix(hw.topology().fingerprint(), optionsFingerprint(options_)),
            paramsFingerprint(hw.params()));
}

PlannerOutput
ExecutionPlanner::plan(const MetaGraph &graph) const
{
    return runPipeline(graph, nullptr);
}

PlannerOutput
ExecutionPlanner::replan(const MetaGraph &graph) const
{
    // Value transparency needs a fingerprintable placement
    // configuration, and a custom generator is an opaque pointer.
    if (options_.placement.generator != nullptr)
        return plan(graph);
    return runPipeline(graph, &planCache());
}

PlanCache &
ExecutionPlanner::planCache() const
{
    if (options_.cache != nullptr)
        return *options_.cache;
    if (owned_cache_ == nullptr)
        owned_cache_ = std::make_unique<PlanCache>();
    return *owned_cache_;
}

void
ExecutionPlanner::remapCachedPlan(const PlanCache::CachedPlan &hit,
                                  const MetaGraph &graph,
                                  PlannerOutput &out) const
{
    out.plan = hit.plan;
    out.placement = hit.placement;
    out.syncBlindFallback = hit.syncBlindFallback;
    out.curves = hit.curves;

    // Positional id map: donor (level, pos) id -> this graph's id.
    // MetaOp ids are dense in both graphs and the signatures match
    // level by level, so the map is a permutation.
    bool identity = true;
    std::vector<MetaOpId> remap(graph.numMetaOps(), -1);
    for (std::size_t k = 0; k < hit.levelIds.size(); ++k) {
        const std::vector<MetaOpId> &ids = graph.level(k);
        panicIf(hit.levelIds[k].size() != ids.size(),
                "replan: cached level shape mismatch");
        for (std::size_t p = 0; p < ids.size(); ++p) {
            remap[hit.levelIds[k][p]] = ids[p];
            identity = identity && hit.levelIds[k][p] == ids[p];
        }
    }
    if (identity)
        return;

    std::vector<ScalingCurve> curves = hit.curves;
    for (std::size_t old_id = 0; old_id < remap.size(); ++old_id)
        curves[static_cast<std::size_t>(remap[old_id])] =
            hit.curves[old_id];
    out.curves = std::move(curves);

    for (Wave &wave : out.plan.waves)
        for (WaveEntry &entry : wave.entries)
            entry.metaOp = remap[entry.metaOp];
    for (LevelAllocation &alloc : out.plan.allocations) {
        for (MetaOpId &id : alloc.metaOps)
            id = remap[id];
        for (MetaOpAllocation &p : alloc.plans)
            p.metaOp = remap[p.metaOp];
    }
}

PlannerOutput
ExecutionPlanner::runPipeline(const MetaGraph &graph, PlanCache *cache) const
{
    auto seconds = secondsBetween;
    const auto t0 = clock_type::now();
    const std::uint32_t n = hw_.topology().numDevices();
    const std::uint64_t ctx = cache_context_;

    PlannerOutput out;
    GraphSignature sig;
    auto t_diffed = t0;
    if (cache != nullptr) {
        out.replan.attempted = true;
        out.replan.totalLevels =
            static_cast<std::uint32_t>(graph.numLevels());
        sig = signatureOf(graph);

        // Full hit: this exact workload value was planned before in
        // this context. Remap the cached plan's ids positionally; no
        // pipeline stage runs.
        if (const PlanCache::PlanPtr hit = cache->findPlan(ctx, sig)) {
            out.replan.fullHit = true;
            out.replan.reusedLevels = out.replan.totalLevels;
            out.replan.prefixWaves =
                static_cast<std::uint32_t>(hit->plan.waves.size());
            cache->addStats({.fullHits = 1,
                             .reusedLevels = graph.numLevels()});
            out.phaseSeconds.diff = seconds(t0, clock_type::now());
            remapCachedPlan(*hit, graph, out);
            // Cheap insurance on the remap: re-derive readiness on
            // the *new* graph and re-validate, keeping the
            // byte-identity claim falsifiable on every hit.
            out.plan.annotateReadiness(graph);
            out.plan.validate(graph);
            out.planningSeconds = seconds(t0, clock_type::now());
            return out;
        }
        cache->addStats({.misses = 1});
        t_diffed = clock_type::now();
        out.phaseSeconds.diff = seconds(t0, t_diffed);
    }

    // §3.2: profile the oracle and fit per-MetaOp scaling curves
    // (mutually independent — the misses run in parallel when
    // pooled). Curves depend only on the member workload shape and
    // the cluster, which is what the curve memo keys on.
    ScalabilityEstimator estimator(hw_, options_.estimator);
    const CurveMemo curve_memo{cache, ctx, graph, n};
    out.curves = memoizedStage<ScalingCurve>(
        graph.numMetaOps(), pool_.get(), cache ? &curve_memo : nullptr,
        [&](std::size_t id) {
            return estimator.estimate(graph.metaOps()[id], n);
        },
        out.replan.curveHits, out.replan.curveMisses);
    const auto t_estimated = clock_type::now();
    out.phaseSeconds.estimation = seconds(t_diffed, t_estimated);

    // §3.3 and §3.4 read each MetaOp's curve with its sync tail
    // folded in; out.curves stay compute-only.
    std::vector<ScalingCurve> curves;
    curves.reserve(graph.numMetaOps());
    for (const MetaOp &m : graph.metaOps())
        curves.push_back(syncPricedCurve(out.curves[m.id], m,
                                         graph.paramSharingWidths()[m.id],
                                         hw_.topology()));

    // §3.3: per-MetaLevel MPSP allocation + bi-point discretization
    // (levels are data-independent — parallel when pooled).
    ResourceAllocator allocator(graph, curves, n);
    const LevelMemo level_memo{cache, ctx, graph, n};
    std::vector<LevelAllocation> allocations =
        memoizedStage<LevelAllocation>(
            graph.numLevels(), pool_.get(), cache ? &level_memo : nullptr,
            [&](std::size_t k) {
                return allocator.allocateLevel(graph.level(k));
            },
            out.replan.allocHits, out.replan.allocMisses);
    if (cache != nullptr)
        cache->addStats({.curveHits = out.replan.curveHits,
                         .curveMisses = out.replan.curveMisses,
                         .allocHits = out.replan.allocHits,
                         .allocMisses = out.replan.allocMisses});
    const auto t_allocated = clock_type::now();
    out.phaseSeconds.allocation = seconds(t_estimated, t_allocated);

    // §3.4: craft waves level by level, then merge. Never memoized:
    // it is cheap and globally coupled (wave merging reads every
    // level). Wave durations come from the curves the allocator read,
    // so the estimated span includes the predicted sync.
    auto schedule = [&](const std::vector<ScalingCurve> &level_curves,
                        std::vector<LevelAllocation> level_allocs) {
        WavefrontScheduler scheduler(graph, level_curves, n,
                                     options_.scheduler);
        out.plan.waves = scheduler.scheduleAll(level_allocs);
        out.plan.numDevices = n;
        out.plan.allocations = std::move(level_allocs);
        out.plan.theoreticalOptimum = 0;
        for (const LevelAllocation &a : out.plan.allocations)
            out.plan.theoreticalOptimum += a.continuous.cStar;
        out.plan.estimatedSpan = out.plan.waves.empty()
            ? 0.0
            : out.plan.waves.back().start + out.plan.waves.back().duration;
    };
    schedule(curves, std::move(allocations));
    const auto t_scheduled = clock_type::now();
    out.phaseSeconds.scheduling = seconds(t_allocated, t_scheduled);

    // §3.5: map wave entries onto devices (the scoring sweep runs as
    // a deterministic parallel reduction when pooled). With a cache,
    // the committed prefix of the cached plan sharing the longest
    // level prefix with this workload is replayed and only the waves
    // of perturbed levels are scored. Prefix reuse relies on the
    // Spindle strategy's state being wave-local; Sequential threads
    // a device cursor through every wave, so it places from scratch
    // (full hits above still apply).
    MemoryModel mem(options_.memory);
    DevicePlacement placement(hw_.topology(), hw_, mem,
                              options_.placement, pool_.get());
    std::size_t resume_wave = 0;
    std::vector<PlacementCommit> prefix;
    std::vector<PlacementCommit> commit_log;
    if (cache != nullptr &&
        options_.placement.strategy == PlacementStrategy::Spindle) {
        std::size_t donor_levels = 0;
        const PlanCache::PlanPtr donor =
            cache->bestPrefixDonor(ctx, sig, &donor_levels);
        if (donor != nullptr && donor_levels > 0)
            resume_wave = replayDonorPrefix(*donor, donor_levels, out.plan);
        if (resume_wave > 0) {
            for (const PlacementCommit &rec : donor->commitLog)
                if (rec.wave < resume_wave)
                    prefix.push_back(rec);
            out.replan.reusedLevels =
                static_cast<std::uint32_t>(donor_levels);
            out.replan.prefixWaves = static_cast<std::uint32_t>(resume_wave);
        }
    }
    std::optional<PlacementResult> placed = placement.place(
        graph, out.plan, resume_wave, prefix, cache ? &commit_log : nullptr);
    if (!placed) {
        // Priced entries are narrower, so they concentrate parameter
        // memory on fewer devices. When even memory-first placement
        // cannot fit them, plan the sync-blind allocation, which
        // spreads it. It is placed from scratch (no donor prefix, so
        // no prefix reuse to report) and without a commit log: its
        // commits would not replay onto a priced plan.
        ResourceAllocator blind(graph, out.curves, n);
        schedule(out.curves, blind.allocateAll(pool_.get()));
        placed = placement.place(graph, out.plan);
        out.syncBlindFallback = true;
        out.replan.reusedLevels = 0;
        out.replan.prefixWaves = 0;
    }
    fatalIf(!placed, "DevicePlacement: workload does not fit device "
                     "memory even with memory-first placement");
    out.placement = std::move(*placed);
    if (cache != nullptr && out.replan.reusedLevels > 0)
        cache->addStats({.reusedLevels = out.replan.reusedLevels});
    const auto t_placed = clock_type::now();
    out.phaseSeconds.placement = seconds(t_scheduled, t_placed);

    // Re-annotate now that entries are placed: readiness gains the
    // per device-group predecessor edges event dispatch relies on.
    out.plan.annotateReadiness(graph);
    out.plan.validate(graph);

    // Cache the result for future arrivals. commit_log is empty by
    // construction when the memory-first fallback ran, which is what
    // disqualifies fallback plans as future prefix donors.
    if (cache != nullptr) {
        PlanCache::CachedPlan entry;
        entry.sig = std::move(sig);
        entry.plan = out.plan;
        entry.curves = out.curves;
        entry.placement = out.placement;
        entry.syncBlindFallback = out.syncBlindFallback;
        entry.levelIds.resize(graph.numLevels());
        for (std::size_t k = 0; k < graph.numLevels(); ++k)
            entry.levelIds[k] = graph.level(k);
        entry.commitLog = std::move(commit_log);
        cache->storePlan(ctx, std::move(entry));
    }

    out.planningSeconds = seconds(t0, clock_type::now());
    return out;
}

} // namespace spindle
