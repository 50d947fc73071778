/**
 * @file
 * Device placement (paper §3.5): map every wave entry onto concrete
 * devices, trading inter-wave communication against per-device
 * memory balance.
 *
 * Guidelines implemented, as in the paper:
 *  - intra-device-island placement is preferred for each entry and
 *    for the data flows between entries across waves;
 *  - when islands cannot hold everything, entries with higher
 *    communication volume get the better (intra-island) placement
 *    first;
 *  - per-device memory is tracked (parameters deduplicated by
 *    ParamKey, so parameter-sharing MetaOps landing on the same
 *    device store them once) and balanced; an entry that would
 *    exceed capacity triggers a restart of the placement with
 *    memory-first scoring — the constrained-depth backtracking of
 *    the paper collapsed into a two-phase search. By default the
 *    restart resumes from the first infeasible wave (committed
 *    earlier waves are replayed, not re-scored), keeping the
 *    fallback cheap at 512+ GPU scale; a full restart remains the
 *    last resort.
 *
 * Candidate generation is pluggable (see window_generator.h): the
 * placer scores whatever windows the configured WindowGenerator
 * emits, using incremental per-band state (link-class / residency /
 * island-change prefix counts and a sliding-window maximum over
 * per-device loads) so scoring stays O(1) per window after an
 * O(view) setup per entry (see "View" below). `ContiguousRuns`
 * reproduces the historical placer bit for bit
 * (planner_equivalence_test); `IslandAware` decouples window shape
 * from device numbering.
 *
 * **View: untouched runs cut to their ends.** A wave of a large
 * cluster uses few islands, so most of the free list is islands no
 * entry of the pass has touched, and every one of their windows
 * scores the same. Call an island *pristine* in a pass when none of
 * its devices has been committed in that pass (scored or replayed).
 * Two pristine islands are *interchangeable* when they have the same
 * size, consecutive indices and contiguous device ids, and the fabric
 * has uniform links (ClusterTopology::uniformLinks()). Per entry,
 * placement builds a view of the free list: every position outside
 * pristine runs, and of each maximal run of more than 2K
 * interchangeable pristine islands only the first K and the last K,
 * K = ceil(n / island size) + 1. The generator, the position pass,
 * the band prefixes, the sweep (pruning and parallel chunks included)
 * and materialise() all run on the view unchanged; commit compacts
 * the real free list. Plans are byte-identical to the flat sweep's:
 *  - every position in a pristine island has the same inputs: the
 *    same candidate total (zero load plus the all-miss base), the
 *    same link class per inflow (the island holds no source device,
 *    since sources are committed devices), no residency and no
 *    window equal to a source set. On a uniform fabric the exact flow
 *    oracle depends on the classes spanned, so it agrees. An
 *    all-pristine window's score bits therefore depend only on where
 *    island boundaries fall inside it: its start offset modulo the
 *    island size;
 *  - every such window has a same-offset twin inside the run's first
 *    K islands (an offset below s plus n positions fits in K
 *    islands), and the twin has a lower ordinal. betterThan() breaks
 *    equal (primary, secondary) by lower ordinal, so a dropped window
 *    never wins the flat sweep;
 *  - a view window that straddles a cut is all-pristine too, and its
 *    cut falls on an island boundary, so the same twin beats it;
 *  - windows that touch a run's ends are real, since K islands are
 *    kept on each side and no window reaches past K - 1 of them;
 *  - band minima, the pruning bound and sliding maxima see the same
 *    values, as the kept islands hold every value a dropped one does;
 *  - IslandAware: a dropped island's band, its unions and a greedy
 *    catch-all starting on it each tie with the same candidate on a
 *    kept island of its run, which the enumeration (island order for
 *    bands and unions, lexicographic for catch-alls) emits earlier;
 *    catch-alls from kept islands fill from at least K - 1 kept
 *    islands of a run before reaching a dropped one, so they never do.
 * So there is no tie-break difference to list. The free list is kept
 * as segments (one per island when islands are contiguous id ranges,
 * else one): a pristine segment is free whole and never materialised,
 * so building the view costs its size plus the classes it crosses,
 * and commit compacts only the window's segments. Where nothing
 * collapses, the view is the whole free list and building it is one
 * linear copy, in place of the flat list's per-entry compaction.
 *
 * **Incremental per-entry sweep (4096-GPU scaling).** The per-entry
 * setup itself is incremental across entries rather than a rescan:
 * the attempt state keeps, besides the per-device parameter maps, a
 * sorted flat mirror of each map (binary-search probes in the hot
 * loops, same stored doubles, so identical arithmetic) and a
 * reverse index from parameter key to the devices holding it. An
 * entry's would-be per-device load then splits into one shared
 * "all-miss" base — activation share plus every signature share,
 * accumulated once in the exact order the probe loop would have —
 * and sparse overrides for the *affected* devices (the union of the
 * holder lists of the entry's keys), the only devices where a probe
 * can hit. Commits dirty only the chosen window's devices, so
 * affected sets stay tiny and per-entry setup is O(free) + O(affected
 * · |sig|) instead of O(free · |sig|). Parameter residency follows
 * the same scheme: per residency row a sparse ascending list of
 * holder positions replaces the rows × free flag matrix.
 *
 * **Admissible band pruning**: before scoring a chunk of band
 * windows, the sweep derives an exact lower bound on every window's
 * primary score from the already-built prefix state — minimum load
 * along the band for the memory term, the cheapest link class present
 * anywhere in the chunk's position range per inflow, residency over
 * the whole range for the affinity term, and min(0, penalty) for the
 * island penalty. Each bound term is ≤ its counterpart and is
 * accumulated in the same structural order as the real score, so by
 * monotonicity of rounded addition the bound never exceeds any
 * window's primary. A chunk is skipped only when its bound is
 * *strictly* above an already-scored candidate's primary; the
 * selection tie-break (secondary, then serial enumeration ordinal)
 * only arbitrates between equal primaries, so a pruned chunk can
 * never contain the winner and the emitted plan is byte-identical to
 * an unpruned sweep's, at any thread count (pinned by
 * planner_equivalence_test, whose frozen reference never prunes).
 *
 * With a ThreadPool the per-entry sweep runs as a parallel reduction:
 * the position setup (per-device loads, link classes, residency
 * flags), the per-band prefix builds, and the window scoring are
 * chunked across lanes, and the winning window is selected by a
 * deterministic merge on (primary score, secondary score, candidate
 * ordinal) — the ordinal is the serial enumeration index, so the
 * emitted plan is byte-identical to the single-threaded sweep at any
 * thread count (pinned by planner_equivalence_test). Lanes share the
 * pruning bound through a relaxed atomic: a stale read only prunes
 * less, never differently, so pruning is also determinism-neutral
 * under concurrency.
 *
 * **Stages.** One pass (tryPlace) runs these named stages of its
 * private Pass state, per wave and entry:
 *  1. prefix replay (replayPrefix): a logged prefix is recommitted
 *     through the same device commit as a scored entry;
 *  2. entry order (entryOrder): precomputed sort keys per wave;
 *  3. entry signature (signEntry, scoringContext): the slice's
 *     parameter signature, distinct keys and commit working set,
 *     inflows, island penalty and residency rows;
 *  4. view (buildView): the free list with long pristine runs cut to
 *     their ends (see "View" above);
 *  5. position pass (positionPass, phase A): the generated windows,
 *     checked, and per view position the would-be load, island and
 *     link class per inflow;
 *  6. band prefixes (bandPrefixes, phase B);
 *  7. window sweep (windowSweep, phase C): pruning bound, band
 *     windows, extras, and the chunked, possibly parallel reduction;
 *  8. commit (commit): reverse index, device commit, inter-island
 *     attribution, commit log, compaction of the window's segments.
 * Every scoring term has one helper (affinity, exact-oracle window
 * pricing, class presence) shared by the bands, the extras, the
 * pruning bound and the Sequential strategy, which replaces stages
 * 4-7 with placeSequential. Whole-pass O(devices) setup (the device
 * state, the per-device epoch tables, peakBytes) runs once per pass,
 * never per entry or per wave.
 *
 * A Sequential strategy (each entry takes the next consecutive
 * device ids, no topology awareness — by design independent of the
 * island structure and of any renumbering) is provided for the
 * Fig. 10 ablation.
 */

#ifndef SPINDLE_PLANNER_PLACEMENT_H
#define SPINDLE_PLANNER_PLACEMENT_H

#include <optional>
#include <vector>

#include "planner/execution_plan.h"
#include "planner/window_generator.h"
#include "runtime/memory_model.h"

namespace spindle {

class ThreadPool;

/** Placement strategy selector. */
enum class PlacementStrategy : std::uint8_t
{
    Spindle,    ///< locality- and memory-aware greedy (§3.5)
    Sequential, ///< consecutive-devices baseline (Fig. 10 ablation)
};

/** Placement tunables. */
struct PlacementOptions
{
    PlacementStrategy strategy = PlacementStrategy::Spindle;

    /**
     * Candidate-window generation policy for the Spindle strategy.
     * ContiguousRuns is the historical default; IslandAware emits
     * per-island runs plus deliberate cross-island unions and is the
     * right choice on heterogeneous or permuted-numbering clusters.
     */
    WindowPolicy windows = WindowPolicy::ContiguousRuns;

    /**
     * Custom window generator (non-owning; must outlive placement).
     * Overrides `windows` when set. Its output is checked per entry:
     * a position out of the free list's range, positions that do not
     * strictly ascend, an extra of the wrong size or a band longer
     * than 2^21 - 1 positions panics.
     */
    const WindowGenerator *generator = nullptr;

    /**
     * Restart the memory-first fallback from the first infeasible
     * wave (replaying already-committed waves) instead of from wave
     * 0. Falls back to the historical full restart automatically if
     * the partial restart still cannot fit.
     */
    bool partialFallbackRestart = true;

    /** Usable fraction of device HBM before an entry is rejected. */
    double memorySlack = 0.92;

    /** Weight converting relative memory imbalance into seconds in
     *  the placement score (heuristic trade-off knob). */
    double memoryWeight = 1e-3;
};

/**
 * One committed wave entry of a placement pass: positional entry
 * coordinates plus the comm seconds the pass charged to it. A logged
 * comm-first pass can be replayed bit-identically from these records
 * — the partial fallback restart replays the feasible prefix of a
 * failed pass, and incremental replanning (planner/plan_cache.h)
 * replays the prefix of a previously cached plan whose leading
 * levels an arrival did not perturb.
 */
struct PlacementCommit
{
    std::uint32_t wave = 0;
    std::uint32_t entry = 0;
    double comm = 0;        ///< scored comm charged to the entry
    double interIsland = 0; ///< inter-island share of the above
};

/** Result of placing a plan. */
struct PlacementResult
{
    /** Peak bytes per device (params + optimizer + activations). */
    std::vector<double> peakBytes;

    /** Estimated total inter-wave transmission seconds. */
    double estimatedCommSeconds = 0;

    /**
     * Estimated seconds of comm crossing the inter-island fabric,
     * attributed shard by shard: each flow's seconds scaled by the
     * fraction of destination devices whose island holds no source
     * device, plus the intra-island preference penalties of TP
     * groups that straddle. Deliberately finer-grained than the
     * best-pair flowTime pricing of estimatedCommSeconds, which
     * cannot see the difference between an island-aligned window
     * and one that merely touches the source's island.
     */
    double interIslandCommSeconds = 0;

    /** True when the memory-first fallback pass was needed. */
    bool usedMemoryFallback = false;

    /** Wave index the fallback pass restarted from (0 = full
     *  restart; meaningful only when usedMemoryFallback). */
    std::size_t fallbackRestartWave = 0;
};

/**
 * Greedy wave-by-wave placer.
 */
class DevicePlacement
{
  public:
    /** @param pool optional planner pool for the parallel scoring
     *  sweep (non-owning; nullptr or a 1-thread pool run the
     *  historical serial sweep — same bytes either way). */
    DevicePlacement(const ClusterTopology &topo, const HardwareModel &hw,
                    const MemoryModel &mem, PlacementOptions options = {},
                    ThreadPool *pool = nullptr);

    /**
     * Fill WaveEntry::devices for every wave of @p plan. Returns
     * nullopt when even memory-first placement cannot fit (the
     * planner then tries another allocation; other callers fatal()).
     *
     * A from-scratch placement resumes at wave 0 with an empty
     * prefix. Otherwise waves before @p resume_wave must already
     * carry the device sets a comm-first pass committed, and
     * @p prefix must be that pass's commit records for those waves:
     * the prefix is replayed (state committed, never re-scored) and
     * scoring starts at @p resume_wave, so the filled plan is
     * byte-identical to a from-scratch placement. Incremental
     * replanning (ExecutionPlanner::replan()) resumes this way past
     * the prefix of a cached plan.
     *
     * The fallback cascade: a comm-first pass; on failure, a
     * memory-first pass from the first infeasible wave (when
     * PlacementOptions::partialFallbackRestart); then a full
     * memory-first restart.
     *
     * When @p commit_log is non-null it receives the commit records
     * of the successful comm-first pass (prefix included),
     * replayable as a placement prefix; it is left empty when the
     * memory-first fallback was needed (a fallback log would mix
     * scoring regimes).
     */
    std::optional<PlacementResult>
    place(const MetaGraph &graph, ExecutionPlan &plan,
          std::size_t resume_wave = 0,
          const std::vector<PlacementCommit> &prefix = {},
          std::vector<PlacementCommit> *commit_log = nullptr) const;

  private:
    /** One pass's state and its named stages (see the file comment). */
    struct Pass;

    /** Internal alias; see PlacementCommit. */
    using CommitRecord = PlacementCommit;

    /**
     * One placement pass, running the Pass stages in order. Waves
     * before @p resume_wave are replayed from @p replay (state
     * committed, no scoring); waves from @p resume_wave on are scored
     * (memory-first when @p memory_first). On failure, the index of
     * the first infeasible wave lands in @p fail_wave and committed
     * records (all passes log into @p log when non-null) describe the
     * feasible prefix.
     */
    bool tryPlace(const MetaGraph &graph, ExecutionPlan &plan,
                  bool memory_first, PlacementResult &result,
                  std::size_t resume_wave,
                  const std::vector<CommitRecord> *replay,
                  std::vector<CommitRecord> *log,
                  std::size_t *fail_wave) const;

    const WindowGenerator &generator() const;

    const ClusterTopology &topo_;
    const HardwareModel &hw_;
    const MemoryModel &mem_;
    PlacementOptions options_;
    ThreadPool *pool_ = nullptr;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_PLACEMENT_H
