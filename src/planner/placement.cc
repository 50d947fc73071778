#include "planner/placement.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace spindle {

namespace {

/** Dedup key for parameter storage: shared keys map to themselves,
 *  unshared operators get a unique negative key. */
std::int64_t
paramDedupKey(const OperatorDesc &op)
{
    if (op.paramKey != kNoParam)
        return op.paramKey;
    return -(static_cast<std::int64_t>(op.id) + 2);
}

/**
 * Parameter signature of one member operator of a slice: the dedup
 * key plus the per-device share and raw bytes the scoring loops
 * consume. Computed once per wave entry instead of re-deriving the
 * OperatorDesc and share inside every candidate window.
 */
struct SliceParam
{
    std::int64_t key = 0;
    double share = 0; ///< per-device param + optimizer share
    double bytes = 0; ///< raw parameter bytes (affinity scoring)
};

/** Number of link classes a (src set, device) pair can fall into. */
constexpr int kNumLinkClasses = 3;

/** Packed per-class prefix counters (BandState::inflowPref): each
 *  class owns a disjoint 21-bit field of one 64-bit word. */
constexpr unsigned kClsFieldBits = 21;
constexpr std::uint64_t kClsFieldMask = (std::uint64_t{1} << kClsFieldBits) - 1;
static_assert(kNumLinkClasses * kClsFieldBits <= 64,
              "packed class counters must fit one word");

/** Below this much estimated per-phase work (rough element-visit
 *  count) a parallel dispatch costs more than it saves; purely a
 *  performance threshold — both paths compute identical bytes. */
constexpr std::size_t kMinParallelWork = 1 << 12;

/** Smallest window-sweep chunk handed to a lane. */
constexpr std::size_t kMinSweepChunk = 128;

/**
 * Entry-wide per-inflow scoring context (uniform-fabric fast path):
 * the per-class flow times and, per free position, the fastest link
 * class the device has any pair with the source set in.
 */
struct InflowCtx
{
    double flowByClass[kNumLinkClasses] = {0, 0, 0};
    std::uint32_t srcSize = 0;
    std::vector<std::uint8_t> cls; ///< per free pos
    /** Per island: source devices it holds. Sized to the cluster once
     *  per pass and reset sparsely through srcIslands, so an entry
     *  pays for its source set, not for the island count. */
    std::vector<std::uint32_t> srcCountByIsland;
    std::vector<std::uint32_t> srcIslands; ///< islands counted above
    /** Per free pos: device is in the source set. Marked from the
     *  (small) source set, so the position pass needs no per-device
     *  binary search. */
    std::vector<char> inSrc;
    /**
     * Class a device resolves to, by [in source set][its island's
     * source count, capped at 2][source devices outside its island].
     * A device's class depends only on those three facts, so the
     * per-position work collapses to one table lookup.
     */
    std::uint8_t clsOf[2][3][2] = {};

    std::uint8_t
    classAt(bool in_src, std::uint32_t island) const
    {
        const std::uint32_t cnt = srcCountByIsland[island];
        return clsOf[in_src][std::min<std::uint32_t>(cnt, 2)][srcSize > cnt];
    }
};

/**
 * Per-band incremental scoring state: prefix counts that make every
 * length-n window of the band scoreable in O(1). Buffers only grow
 * (every element read this entry is written this entry), so bands
 * re-use capacity across entries without re-zeroing.
 */
struct BandState
{
    std::size_t ordinalBase = 0; ///< global ordinal of window w=0
    std::size_t numWindows = 0;  ///< B - n + 1, or 0 when B < n
    double minTotal = 0; ///< min candidate total along the band

    std::vector<std::uint32_t> chgPref; ///< island changes, size B
    /**
     * Sparse residency: per residency row, the ascending band
     * indices whose position holds the row's key (intersection of
     * the band with the row's holder-position list). The sweep
     * advances one pointer per row as the window slides — amortized
     * O(1) per window — and the pruning bound binary-searches a
     * chunk's whole range in one probe per row.
     */
    std::vector<std::vector<std::uint32_t>> resIdx;
    /**
     * Link-class counts, inflows x (B+1), the kNumLinkClasses
     * per-class counters packed into disjoint 21-bit fields of one
     * word (a band never exceeds 2^21 positions). One add per
     * position instead of kNumLinkClasses, and a window's class
     * presence is one subtraction — fields are individually
     * monotone, so the difference never borrows across them.
     */
    std::vector<std::uint64_t> inflowPref;
    std::vector<std::ptrdiff_t> eqWindow; ///< per inflow, -1 = none
};

/**
 * One scored candidate window. The placer's historical selection
 * rule — scan candidates in enumeration order, replace on strictly
 * better (primary, secondary) — equals a minimum under the
 * lexicographic order (primary, secondary, ordinal), which is what
 * makes the parallel sweep's merge deterministic and byte-identical
 * to the serial scan at any thread count.
 */
struct Candidate
{
    double primary = std::numeric_limits<double>::infinity();
    double secondary = std::numeric_limits<double>::infinity();
    double comm = 0;
    std::size_t ordinal = std::numeric_limits<std::size_t>::max();
    std::int32_t band = -1; ///< band index; -1 = explicit extra
    std::size_t start = 0;  ///< window start in band / extras index

    bool
    found() const
    {
        return ordinal != std::numeric_limits<std::size_t>::max();
    }
};

bool
betterThan(const Candidate &a, const Candidate &b)
{
    if (a.primary != b.primary)
        return a.primary < b.primary;
    if (a.secondary != b.secondary)
        return a.secondary < b.secondary;
    return a.ordinal < b.ordinal;
}

/** One chunk of the window sweep: a start range of one band, or
 *  (band < 0) a range of explicit extras. */
struct SweepTask
{
    std::int32_t band = -1;
    std::size_t lo = 0;
    std::size_t hi = 0;
};

/** Per-lane scratch of the window sweep (the serial sweep keeps one
 *  across entries; each parallel lane makes its own). */
struct LaneScratch
{
    DeviceSet win;                    ///< exact-comm window
    std::vector<std::size_t> dq;      ///< sliding-maximum deque
    std::vector<std::size_t> row_ptr; ///< per-row residency pointers
    std::vector<char> row_nonres;     ///< per-row non-resident flags
};

/** Whether link class @p c occurs in a window, given the difference
 *  of two packed prefix counters (see BandState::inflowPref). */
bool
classPresent(std::uint64_t diff, int c)
{
    return ((diff >> (kClsFieldBits * static_cast<unsigned>(c))) &
            kClsFieldMask) != 0;
}

/** Packed-counter increment of one position of link class @p c. */
std::uint64_t
classBit(unsigned c)
{
    return std::uint64_t{1} << (kClsFieldBits * c);
}

/**
 * Per-device parameter and activation state of one placement pass.
 *
 * Per-device totals are cached: the former deviceTotal() walked the
 * whole parameter map on every candidate window of every entry
 * (quadratic in practice). The cache is refreshed lazily after a
 * commit dirties a device, by replaying the exact walk the uncached
 * code performed — cached reads are bit-identical, and each device
 * is re-walked at most once per committed entry instead of once per
 * candidate window. The parallel position pass touches distinct
 * devices on distinct lanes, so the lazy refresh stays race-free.
 */
struct DeviceState
{
    /**
     * Per-device stored parameter state, deduplicated by key. The
     * map stays the owner: deviceTotal() walks it in bucket order,
     * and that accumulation order is pinned by the byte-identity
     * contract.
     */
    std::vector<std::unordered_map<std::int64_t, double>> params;

    /**
     * Sorted-by-key mirror of params, one vector per device, probed
     * by the candidate sweep with binary searches instead of map
     * lookups. The values are the exact doubles the map holds, so a
     * mirror probe feeds the scoring arithmetic the same bits a map
     * probe would. A device's parameter set changes only when an
     * entry commits to it, scored or replayed, and every commit
     * updates the mirror (mergeFlat), so it never lags the map.
     */
    std::vector<std::vector<std::pair<std::int64_t, double>>> flat;

    /**
     * Reverse index: parameter key -> devices holding it. Lists are
     * unsorted and append-only; a device is appended exactly once,
     * when the key first lands on it, so each list is exactly the
     * key's holder set. The sweep unions an entry's key lists into
     * the "affected" device set — the only devices whose candidate
     * total can differ from the shared all-miss base.
     */
    std::unordered_map<std::int64_t, std::vector<DeviceId>> holders;

    /** Per-device accumulated activation bytes. */
    std::vector<double> activations;

    /** Most recent device set of each MetaOp (last placed slice). */
    std::map<MetaOpId, DeviceSet> lastSlice;

    /** Lazily refreshed deviceTotal() cache (see class comment). */
    std::vector<double> total_cache;
    std::vector<char> total_dirty;

    void
    init(std::uint32_t num_devices)
    {
        params.assign(num_devices, {});
        flat.assign(num_devices, {});
        holders.clear();
        activations.assign(num_devices, 0.0);
        total_cache.assign(num_devices, 0.0);
        total_dirty.assign(num_devices, 1);
    }

    /**
     * Fold a committed slice into flat[d] incrementally: every key
     * of @p keys (sorted, deduplicated) takes its value from the
     * already-updated map — existing entries in place, new keys
     * appended (ascending, since @p keys ascend) and merged: O(K)
     * per device, sorted by key whatever the map's bucket order.
     */
    void
    mergeFlat(DeviceId d, const std::vector<std::int64_t> &keys,
              const std::vector<double> &shares)
    {
        auto &fv = flat[d];
        const std::size_t old = fv.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const auto begin = fv.begin();
            const auto it = std::lower_bound(
                begin, begin + static_cast<std::ptrdiff_t>(old),
                keys[i], [](const auto &a, std::int64_t k) {
                    return a.first < k;
                });
            // The committed value is the strict-max fold of the
            // existing share (exact in the mirror) with the
            // slice's maximum share — no map lookup needed.
            if (it != begin + static_cast<std::ptrdiff_t>(old) &&
                it->first == keys[i]) {
                if (shares[i] > it->second)
                    it->second = shares[i];
            } else {
                fv.emplace_back(keys[i], shares[i]);
            }
        }
        // Slice keys usually all sort above the device's existing
        // keys (fresh parameters get fresh dedup keys), leaving the
        // append already in order — skip the merge (and its internal
        // temp buffer) then.
        if (fv.size() == old || old == 0 ||
            fv[old - 1].first < fv[old].first)
            return;
        std::inplace_merge(
            fv.begin(), fv.begin() + static_cast<std::ptrdiff_t>(old),
            fv.end(), [](const auto &a, const auto &b) {
                return a.first < b.first;
            });
    }

    /** Binary-search flat[d] for @p key; nullptr when absent. */
    const double *
    findFlat(DeviceId d, std::int64_t key) const
    {
        const auto &fv = flat[d];
        const auto it = std::lower_bound(
            fv.begin(), fv.end(), key,
            [](const auto &a, std::int64_t k) { return a.first < k; });
        if (it == fv.end() || it->first != key)
            return nullptr;
        return &it->second;
    }

    double
    deviceTotal(DeviceId d)
    {
        if (total_dirty[d]) {
            double total = activations[d];
            for (const auto &[key, bytes] : params[d])
                total += bytes;
            total_cache[d] = total;
            total_dirty[d] = 0;
        }
        return total_cache[d];
    }
};

} // namespace

/**
 * One placement pass: its fixed context, the device state, the
 * current wave's free list and entry, and the stages tryPlace() runs
 * per entry (see placement.h). Scratch buffers are reused across
 * entries and only grow: the elements an entry reads are exactly the
 * elements it wrote, so stale capacity never leaks into scores.
 */
struct DevicePlacement::Pass
{
    // ---- Pass-wide context.
    const ClusterTopology &topo;
    const HardwareModel &hw;
    const MemoryModel &mem;
    const PlacementOptions &options;
    ThreadPool *const pool;
    const MetaGraph &graph;
    ExecutionPlan &plan;
    PlacementResult &result;
    std::vector<CommitRecord> *const log;
    const CollectiveModel &coll;
    const WindowGenerator &window_gen;
    const std::uint32_t num_devices;
    const bool memory_first;
    const double capacity;
    const bool use_pool;

    // The three *default* link classes a (src set, candidate device)
    // pair can use. CollectiveModel::flowTime maximizes bandwidth
    // over all (src, dst) pairs, so the sweep must (a) track, per
    // candidate device, *every* class it has a pair in — a device
    // sharing an island with one source device still has
    // inter-island pairs to the others — and (b) probe classes in
    // bandwidth order, not class-index order (a config may rank its
    // fabrics differently from the defaults). Two classes configured
    // to the exact same bandwidth but different latency are resolved
    // by flowTime's lower-latency tiebreak, which class-level
    // bandwidth bookkeeping cannot reproduce; such (pathological)
    // configs — and any topology whose islands override the default
    // classes (uniformLinks() false), where three classes cannot
    // describe the fabric at all — drop to scoring every window with
    // the flow oracle directly (exact_comm), keeping the
    // bit-identical contract unconditional.
    const LinkParams link_class[kNumLinkClasses];
    int class_by_bw[kNumLinkClasses] = {0, 1, 2};
    int rank_of_class[kNumLinkClasses] = {0, 1, 2};
    bool exact_comm = false;

    DeviceState state;
    std::uint32_t seq_cursor = 0; ///< Sequential strategy cursor

    // ---- Free list, kept as segments (see placement.h, "View").
    /** Device id range [lo, hi) of each segment, ascending and tiling
     *  the placeable devices: one segment per island when every island
     *  is a contiguous id range, else one segment over all devices. */
    std::vector<std::pair<DeviceId, DeviceId>> seg_range;
    /** One past the last segment of segment s's class: the maximal
     *  stretch of interchangeable islands holding s (s + 1 when s has
     *  no interchangeable neighbour). */
    std::vector<std::uint32_t> seg_class_end;
    std::vector<std::uint32_t> seg_of_island; ///< per island
    /** Per segment: some device of it was committed in this pass
     *  (scored or replayed) — the segment is no longer pristine. */
    std::vector<char> seg_touched;
    std::vector<std::uint32_t> touched; ///< touched segments, ascending
    /** Free devices of each touched segment in the current wave
     *  (pristine segments are free whole and never materialised). */
    std::vector<DeviceSet> seg_free;
    std::size_t free_count = 0; ///< current wave's free devices
    /** The entry's view of the free list: every free device outside
     *  pristine runs, and each long pristine run cut to its ends. */
    DeviceSet free;

    // ---- Entry signature (signEntry, scoringContext).
    ParallelConfig cfg;
    std::uint32_t n = 0;
    double act_share = 0;
    std::vector<SliceParam> sig;         ///< slice param signature
    std::vector<std::int64_t> uniq_keys; ///< distinct sig keys, sorted
    std::vector<double> uniq_vals;       ///< per uniq key: max share
    /** (key, max share) in first-occurrence sig order — the commit
     *  loop's working set. Multi-task slices repeat shared keys many
     *  times; committing each distinct key once with the strict-max
     *  share leaves the map byte-identical (same distinct-insertion
     *  sequence, so the same bucket layout deviceTotal() walks, and
     *  strict-max folding is order-independent selection). */
    std::vector<std::pair<std::int64_t, double>> commit_keys;
    std::vector<char> key_seen; ///< per uniq key
    /** Inter-wave data sources, in the edge order the score
     *  accumulates them. */
    std::vector<std::pair<double, const DeviceSet *>> inflows;
    double island_penalty = 0;
    std::vector<std::int32_t> sig_row; ///< sig index -> residency row
    std::vector<std::int64_t> row_key; ///< residency row -> param key
    std::unordered_map<std::int64_t, std::int32_t> row_of;
    std::size_t rows = 0;

    // ---- Position pass.
    CandidateWindows cand_windows;         ///< generator output
    std::vector<InflowCtx> inflow_ctx;     ///< per-inflow fast path
    std::vector<double> cand_total;        ///< per free pos: if placed
    std::vector<std::uint32_t> pos_island; ///< per free pos: island
    /** Per row: ascending free-list positions holding the key. */
    std::vector<std::vector<std::uint32_t>> row_pos;
    /** Affected-device epoch stamps: device d holds at least one of
     *  the current entry's keys iff affected_epoch[d] == entry_epoch.
     *  Stamping instead of clearing keeps the per-entry cost at the
     *  size of the holder lists, not the device count. */
    std::vector<std::uint64_t> affected_epoch;
    std::uint64_t entry_epoch = 0;
    /** Free-list position of each device this entry (valid iff
     *  pos_epoch[d] == entry_epoch — the stamp doubles as the
     *  free-membership test). Turns the holder-list -> row-position
     *  intersection into O(1) lookups. */
    std::vector<std::uint32_t> pos_of;
    std::vector<std::uint64_t> pos_epoch;

    // ---- Band prefixes.
    std::vector<BandState> band_states;
    std::size_t extras_base = 0;
    std::size_t total_candidates = 0;

    // ---- Window sweep.
    std::vector<SweepTask> sweep_tasks;
    LaneScratch serial_lane;
    /** Best primary score so far in the current entry's sweep,
     *  shared across lanes for admissible pruning. Relaxed is enough:
     *  a stale read only prunes less, and pruning decisions never
     *  change the winner (see placement.h). */
    std::atomic<double> prune_bound{
        std::numeric_limits<double>::infinity()};

    Pass(const DevicePlacement &placer, const MetaGraph &g, ExecutionPlan &p,
         bool memory_first_pass, PlacementResult &r,
         std::vector<CommitRecord> *commit_log)
        : topo(placer.topo_), hw(placer.hw_), mem(placer.mem_),
          options(placer.options_), pool(placer.pool_), graph(g), plan(p),
          result(r), log(commit_log), coll(hw.collectives()),
          window_gen(placer.generator()), num_devices(p.numDevices),
          memory_first(memory_first_pass),
          capacity(topo.device().memoryBytes * options.memorySlack),
          use_pool(pool != nullptr && pool->threads() > 1),
          link_class{
              {topo.device().copyBandwidth, 0.0}, // overlapping device
              topo.config().intraIsland,          // same island
              topo.config().interIsland,          // cross island
          },
          affected_epoch(num_devices, 0), pos_of(num_devices, 0),
          pos_epoch(num_devices, 0)
    {
        state.init(num_devices);
        std::stable_sort(class_by_bw, class_by_bw + kNumLinkClasses,
                         [&](int a, int b) {
                             return link_class[a].bandwidth >
                                    link_class[b].bandwidth;
                         });
        for (int r = 0; r < kNumLinkClasses; ++r)
            rank_of_class[class_by_bw[r]] = r;
        const bool tied_class_bandwidths =
            link_class[0].bandwidth == link_class[1].bandwidth ||
            link_class[0].bandwidth == link_class[2].bandwidth ||
            link_class[1].bandwidth == link_class[2].bandwidth;
        exact_comm = tied_class_bandwidths || !topo.uniformLinks();
        segmentFreeList();
    }

    /**
     * Free-list segments and their classes, once per pass. Two
     * neighbouring islands are interchangeable when they have the same
     * size, consecutive indices, and the fabric has uniform links; the
     * segments tile the device range, so their ids are then one
     * contiguous range.
     */
    void
    segmentFreeList()
    {
        const std::uint32_t num_isl = topo.numIslands();
        const DeviceId dev_end = std::min(topo.numDevices(), num_devices);
        std::vector<std::uint32_t> by_lo(num_isl);
        std::iota(by_lo.begin(), by_lo.end(), 0u);
        bool contiguous = true;
        for (std::uint32_t i = 0; i < num_isl; ++i) {
            const DeviceSet &devs = topo.islandDevices(i);
            contiguous &= devs.back() - devs.front() + 1 == devs.size();
        }
        std::sort(by_lo.begin(), by_lo.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return topo.islandDevices(a).front() <
                             topo.islandDevices(b).front();
                  });
        seg_of_island.assign(num_isl, 0); // the single segment's index
        std::vector<std::uint32_t> seg_island;
        if (!contiguous) {
            seg_range.push_back({0, dev_end});
        } else {
            for (std::uint32_t i : by_lo) {
                const DeviceSet &devs = topo.islandDevices(i);
                if (devs.front() >= dev_end)
                    continue;
                seg_of_island[i] =
                    static_cast<std::uint32_t>(seg_range.size());
                seg_range.push_back(
                    {devs.front(), std::min(devs.back() + 1, dev_end)});
                seg_island.push_back(i);
            }
        }
        const auto num_segs = static_cast<std::uint32_t>(seg_range.size());
        const auto whole = [&](std::uint32_t s) {
            return contiguous &&
                   segSize(s) == topo.islandSizeOf(seg_island[s]);
        };
        seg_class_end.assign(num_segs, 0);
        for (std::uint32_t s = num_segs; s-- > 0;) {
            const bool joins_next =
                s + 1 < num_segs && topo.uniformLinks() && whole(s) &&
                whole(s + 1) && segSize(s) == segSize(s + 1) &&
                seg_island[s + 1] == seg_island[s] + 1;
            seg_class_end[s] = joins_next ? seg_class_end[s + 1] : s + 1;
        }
        seg_touched.assign(num_segs, 0);
        seg_free.resize(num_segs);
    }

    std::uint32_t
    segSize(std::uint32_t s) const
    {
        return seg_range[s].second - seg_range[s].first;
    }

    std::uint32_t
    segmentOf(DeviceId d) const
    {
        return seg_of_island[topo.islandOf(d)];
    }

    /** Wave start: every device is free again. Only touched segments
     *  hold an explicit list, so this costs what the pass touched. */
    void
    resetFreeList()
    {
        for (std::uint32_t s : touched)
            fillSegment(s);
        free_count = seg_range.back().second;
    }

    void
    fillSegment(std::uint32_t s)
    {
        DeviceSet &list = seg_free[s];
        list.resize(segSize(s));
        std::iota(list.begin(), list.end(), seg_range[s].first);
    }

    /** Mark the segments of @p win touched (commit, scored or
     *  replayed); a newly touched segment materialises its free list. */
    void
    touchSegments(const DeviceSet &win)
    {
        std::uint32_t last = ~0u;
        for (DeviceId d : win) {
            const std::uint32_t s = segmentOf(d);
            if (s == last || seg_touched[s])
                continue;
            last = s;
            seg_touched[s] = 1;
            touched.insert(std::lower_bound(touched.begin(), touched.end(), s),
                           s);
            fillSegment(s);
        }
    }

    /**
     * View (see placement.h): the free list with every maximal run of
     * more than 2K interchangeable pristine islands cut to its first K
     * and last K islands, K = ceil(n / island size) + 1. Built from the
     * touched segments' lists and the pristine gaps between them, so
     * it costs the view's size plus the classes it crosses, not the
     * cluster's.
     */
    void
    buildView()
    {
        free.clear();
        std::uint32_t next = 0;
        for (std::uint32_t t : touched) {
            appendPristine(next, t);
            free.insert(free.end(), seg_free[t].begin(), seg_free[t].end());
            next = t + 1;
        }
        appendPristine(next, static_cast<std::uint32_t>(seg_range.size()));
    }

    /** Append pristine segments [a, b) to the view, collapsing runs. */
    void
    appendPristine(std::uint32_t a, std::uint32_t b)
    {
        const auto append = [&](std::uint32_t first, std::uint32_t last) {
            const DeviceId lo = seg_range[first].first;
            const DeviceId hi = seg_range[last].second;
            const std::size_t at = free.size();
            free.resize(at + (hi - lo));
            std::iota(free.begin() + static_cast<std::ptrdiff_t>(at),
                      free.end(), lo);
        };
        while (a < b) {
            const std::uint32_t e = std::min(seg_class_end[a], b);
            const std::uint32_t k = (n + segSize(a) - 1) / segSize(a) + 1;
            if (e - a > 2 * k) {
                append(a, a + k - 1);
                append(e - k, e - 1);
            } else {
                append(a, e - 1);
            }
            a = e;
        }
    }

    /**
     * Prefix replay: recommit the feasible prefix (device choices and
     * their logged comm) without re-scoring it, through the same device
     * commit a scored entry takes. The records replayed are exactly the
     * commits the failed pass made for waves before @p resume_wave, in
     * commit order, so the device state ends up bit-identical to that
     * pass's state at the start of the first infeasible wave.
     */
    void
    replayPrefix(const std::vector<CommitRecord> &replay,
                 std::size_t resume_wave)
    {
        for (const CommitRecord &rec : replay) {
            if (rec.wave >= resume_wave)
                continue;
            const WaveEntry &e = plan.waves[rec.wave].entries[rec.entry];
            signEntry(e);
            commitDevices(e.devices);
            state.lastSlice[e.metaOp] = e.devices;
            result.estimatedCommSeconds += rec.comm;
            result.interIslandCommSeconds += rec.interIsland;
        }
    }

    /**
     * Entry placement order: highest communication volume first (or
     * largest memory first in the fallback pass). Sort keys are
     * precomputed; the former comparator re-derived them on every
     * comparison (including a bestConfig search per probe in the
     * fallback pass).
     */
    std::vector<std::size_t>
    entryOrder(const Wave &wave) const
    {
        std::vector<std::size_t> order(wave.entries.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (options.strategy != PlacementStrategy::Spindle)
            return order;
        std::vector<double> sort_key(wave.entries.size());
        for (std::size_t i = 0; i < wave.entries.size(); ++i) {
            const WaveEntry &e = wave.entries[i];
            const MetaOp &m = graph.metaOp(e.metaOp);
            if (memory_first) {
                ParallelConfig config = hw.bestConfig(memberDesc(m), e.n);
                sort_key[i] = mem.sliceBytesPerDevice(m, e.numOps, config);
            } else {
                double vol = m.activationBytes; // outflow / chain
                if (e.opBegin == 0) {
                    for (const MetaEdge &edge : graph.edges())
                        if (edge.dst == e.metaOp)
                            vol += edge.flowBytes;
                }
                sort_key[i] = vol;
            }
        }
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (sort_key[a] != sort_key[b])
                          return sort_key[a] > sort_key[b];
                      return a < b;
                  });
        return order;
    }

    /** Per-op parameter share charged to each device of a slice. */
    double
    paramShare(const OperatorDesc &op) const
    {
        const double shard = op.paramBytes / cfg.tp /
                             (mem.params().zeroShardParams ? cfg.dp : 1.0);
        const double opt = op.paramBytes / cfg.tp *
                           mem.params().optimizerFactor /
                           (mem.params().zeroShardOptimizer ? cfg.dp : 1.0);
        return shard + opt;
    }

    /**
     * Entry signature, the part a replayed entry needs too: parallel
     * config, activation share, the slice parameter signature, its
     * distinct keys with their maximum shares, and the commit loop's
     * working set.
     */
    void
    signEntry(const WaveEntry &e)
    {
        const MetaOp &m = graph.metaOp(e.metaOp);
        cfg = hw.bestConfig(memberDesc(m), e.n);
        n = e.n;
        act_share = mem.activationBytesPerDevice(m, e.numOps, cfg);

        sig.clear();
        sig.reserve(static_cast<std::size_t>(e.numOps));
        for (std::int64_t i = 0; i < e.numOps; ++i) {
            const OperatorDesc &op = graph.base().op(m.ops[e.opBegin + i]);
            sig.push_back({paramDedupKey(op), paramShare(op), op.paramBytes});
        }

        // Distinct keys of the slice (affected-set derivation and
        // reverse-index upkeep at commit). Zero-byte keys are included on
        // purpose: they still sit in the device maps, so a device holding
        // one is "affected" — its probe loop takes the hit branch.
        uniq_keys.clear();
        for (const SliceParam &sp : sig)
            uniq_keys.push_back(sp.key);
        std::sort(uniq_keys.begin(), uniq_keys.end());
        uniq_keys.erase(std::unique(uniq_keys.begin(), uniq_keys.end()),
                        uniq_keys.end());
        // Max share per distinct key (the value a device that held
        // nothing ends up storing — mergeFlat strict-max folds it into
        // the mirror at commit) and the distinct keys in first-occurrence
        // order (the commit loop's working set, see commit_keys).
        uniq_vals.assign(uniq_keys.size(),
                         -std::numeric_limits<double>::infinity());
        key_seen.assign(uniq_keys.size(), 0);
        commit_keys.clear();
        const auto uniq_index = [&](std::int64_t key) {
            return static_cast<std::size_t>(
                std::lower_bound(uniq_keys.begin(), uniq_keys.end(), key) -
                uniq_keys.begin());
        };
        for (const SliceParam &sp : sig) {
            const std::size_t i = uniq_index(sp.key);
            if (sp.share > uniq_vals[i])
                uniq_vals[i] = sp.share;
            if (!key_seen[i]) {
                key_seen[i] = 1;
                commit_keys.emplace_back(sp.key, 0.0);
            }
        }
        // Resolve the shares once every occurrence is folded.
        for (auto &kv : commit_keys)
            kv.second = uniq_vals[uniq_index(kv.first)];
    }

    /**
     * Entry signature, the scoring part: inflows, the island penalty and
     * the residency rows.
     */
    void
    scoringContext(const WaveEntry &e)
    {
        const MetaOp &m = graph.metaOp(e.metaOp);

        // Inter-wave data sources feeding this entry: first slices pull
        // from predecessor MetaOps, later slices from the own MetaOp's
        // previous slice.
        inflows.clear();
        if (e.opBegin == 0) {
            for (const MetaEdge &edge : graph.edges()) {
                if (edge.dst != e.metaOp)
                    continue;
                auto it = state.lastSlice.find(edge.src);
                if (it != state.lastSlice.end())
                    inflows.emplace_back(edge.flowBytes, &it->second);
            }
        } else {
            auto it = state.lastSlice.find(e.metaOp);
            if (it != state.lastSlice.end())
                inflows.emplace_back(m.activationBytes, &it->second);
        }

        // Intra-island preference: a TP group spanning islands pays the
        // real collective slowdown. Window-independent, hoisted out of
        // the scoring loop. Charged at the *default* link classes (the
        // same reference the paper's heuristic uses) even on non-uniform
        // fabrics.
        island_penalty = 0;
        if (cfg.tp > 1) {
            const double shard = m.activationBytes / cfg.dp;
            const double slow = CollectiveModel::ringAllReduce(
                shard, cfg.tp, topo.config().interIsland);
            const double fast = CollectiveModel::ringAllReduce(
                shard, cfg.tp, topo.config().intraIsland);
            island_penalty =
                2.0 * static_cast<double>(e.numOps) * (slow - fast);
        }

        // Residency rows: one per distinct parameter key of positive size
        // carried by the slice (affinity scoring).
        sig_row.assign(sig.size(), -1);
        row_of.clear();
        row_key.clear();
        for (std::size_t i = 0; i < sig.size(); ++i) {
            if (sig[i].bytes <= 0)
                continue;
            auto [it, inserted] = row_of.emplace(
                sig[i].key, static_cast<std::int32_t>(row_key.size()));
            if (inserted)
                row_key.push_back(sig[i].key);
            sig_row[i] = it->second;
        }
        rows = row_key.size();
    }

    /**
     * Sequential strategy: the next consecutive device ids, wrapping; no
     * awareness, and — by design — no dependence on the island
     * structure, so the baseline keeps its semantics under any
     * renumbering of the cluster. The single candidate is scored with
     * the sweep's helpers; no memory capacity check rejects it in this
     * ablation. Returns the window's comm.
     */
    double
    placeSequential(DeviceSet &win)
    {
        win.clear();
        for (std::uint32_t k = 0; k < n; ++k)
            win.push_back((seq_cursor + k) % num_devices);
        canonicalize(win);
        // Wrapping can collapse duplicates only if n > num_devices, which
        // validate() forbids.
        seq_cursor = (seq_cursor + n) % num_devices;

        double comm = flowComm(win);
        std::vector<char> &row_nonres = serial_lane.row_nonres;
        row_nonres.resize(rows);
        for (std::size_t r = 0; r < rows; ++r)
            row_nonres[r] =
                std::none_of(win.begin(), win.end(), [&](DeviceId d) {
                    return state.findFlat(d, row_key[r]) != nullptr;
                });
        comm += affinity(nonResidentBytes(row_nonres));
        if (cfg.tp > 1 && !topo.withinOneIsland(win))
            comm += island_penalty;
        return comm;
    }

    /**
     * Position pass (phase A): generate and check the candidate windows,
     * then compute per free position the device's would-be total, its
     * island, and its link class per inflow, plus the per-row residency
     * positions.
     */
    void
    positionPass()
    {
        const std::size_t F = free.size();
        generateWindows();
        buildInflowContexts();
        if (cand_total.size() < F) {
            cand_total.resize(F);
            pos_island.resize(F);
        }

        // The would-be per-device load splits into one shared all-miss
        // base and sparse overrides: a device holding none of the slice's
        // keys misses every probe, so its delta is act_share plus every
        // share — accumulated here once, in the exact order the probe
        // loop performs, so the base is bit-identical to the probes it
        // replaces. Only the *affected* devices (union of the keys'
        // holder lists) can deviate and take the probe loop.
        double sig_base = act_share;
        for (const SliceParam &sp : sig)
            sig_base += sp.share;
        ++entry_epoch;
        for (std::int64_t key : uniq_keys) {
            const auto hit = state.holders.find(key);
            if (hit == state.holders.end())
                continue;
            for (DeviceId d : hit->second)
                affected_epoch[d] = entry_epoch;
        }

        // Positions are independent (each lane touches its own device's
        // lazy total), so this is the entry's first parallel region.
        auto compute_position = [&](std::size_t pos) {
            const DeviceId d = free[pos];
            pos_of[d] = static_cast<std::uint32_t>(pos);
            pos_epoch[d] = entry_epoch;
            double add;
            if (affected_epoch[d] != entry_epoch) {
                add = sig_base;
            } else {
                add = act_share;
                for (const SliceParam &sp : sig) {
                    const double *held = state.findFlat(d, sp.key);
                    if (held == nullptr)
                        add += sp.share;
                    else if (sp.share > *held)
                        add += sp.share - *held;
                }
            }
            cand_total[pos] = state.deviceTotal(d) + add;
            const std::uint32_t isl = topo.islandOf(d);
            pos_island[pos] = isl;

            if (!exact_comm) {
                // Class tables are precomputed per inflow (see
                // buildInflowContexts): one lookup per inflow.
                for (std::size_t k = 0; k < inflows.size(); ++k) {
                    InflowCtx &ctx = inflow_ctx[k];
                    ctx.cls[pos] = ctx.classAt(ctx.inSrc[pos] != 0, isl);
                }
            }
        };
        const std::size_t pos_work = F * (inflows.size() + 2);
        maybeParallelFor(pool, pos_work >= kMinParallelWork, 0, F, 16,
                         compute_position);

        // Sparse residency: per row, the ascending free-list positions
        // whose device already holds the row's key — exactly the
        // still-free holders, so the lists stay tiny relative to F and
        // bands intersect them instead of scanning a rows x F flag matrix.
        if (row_pos.size() < rows)
            row_pos.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            row_pos[r].clear();
            const auto hit = state.holders.find(row_key[r]);
            if (hit == state.holders.end())
                continue;
            for (DeviceId d : hit->second)
                if (pos_epoch[d] == entry_epoch)
                    row_pos[r].push_back(pos_of[d]);
            std::sort(row_pos[r].begin(), row_pos[r].end());
        }
    }

    /**
     * Candidate windows from the configured generator: bands (every
     * length-n contiguous subsequence of an ordered position sequence)
     * and explicit extras. A generator can be user code
     * (PlacementOptions::generator), and the sweep indexes per-position
     * state with its output unchecked, so the output is checked here
     * once, in O(emitted positions).
     */
    void
    generateWindows()
    {
        window_gen.generate({topo, free, n}, cand_windows);
        for (const auto &band : cand_windows.bands) {
            panicIf(band.size() > kClsFieldMask,
                    "tryPlace: generator emitted a band of ", band.size(),
                    " positions; the packed class counters hold at most ",
                    kClsFieldMask);
            checkPositions(band, "band");
        }
        for (const auto &win_pos : cand_windows.extras) {
            panicIf(win_pos.size() != n,
                    "tryPlace: generator emitted a window of the wrong size");
            checkPositions(win_pos, "extra");
        }
    }

    /** Panic unless @p pos ascends strictly within the free list (so
     *  every realized window is a canonical DeviceSet). */
    void
    checkPositions(const std::vector<std::uint32_t> &pos,
                   const char *kind) const
    {
        for (std::size_t i = 0; i < pos.size(); ++i) {
            panicIf(pos[i] >= free.size(), "tryPlace: generator ", kind,
                    " position ", pos[i], " out of range (", free.size(),
                    " free devices)");
            panicIf(i > 0 && pos[i] <= pos[i - 1], "tryPlace: generator ",
                    kind, " positions do not ascend at index ", i);
        }
    }

    /** Entry-wide per-inflow context of the uniform-fabric fast path. */
    void
    buildInflowContexts()
    {
        inflow_ctx.resize(inflows.size());
        if (exact_comm)
            return;
        const std::size_t F = free.size();
        const std::size_t num_isl = topo.numIslands();
        for (std::size_t k = 0; k < inflows.size(); ++k) {
            const auto &[bytes, src_ptr] = inflows[k];
            const DeviceSet &src = *src_ptr;
            InflowCtx &ctx = inflow_ctx[k];

            // The whole flow over the best pair, sharded across
            // min(|src|, n) streams.
            const double streams =
                static_cast<double>(std::min<std::size_t>(src.size(), n));
            for (int c = 0; c < kNumLinkClasses; ++c)
                ctx.flowByClass[c] = bytes / streams / link_class[c].bandwidth +
                                     link_class[c].latency;
            ctx.srcSize = static_cast<std::uint32_t>(src.size());
            if (ctx.srcCountByIsland.size() != num_isl)
                ctx.srcCountByIsland.assign(num_isl, 0);
            for (std::uint32_t isl : ctx.srcIslands)
                ctx.srcCountByIsland[isl] = 0;
            ctx.srcIslands.clear();
            for (DeviceId s : src) {
                const std::uint32_t isl = topo.islandOf(s);
                if (ctx.srcCountByIsland[isl]++ == 0)
                    ctx.srcIslands.push_back(isl);
            }
            if (ctx.cls.size() < F)
                ctx.cls.resize(F);

            // A device's class is the fastest one it has any pair in:
            // copy needs the device itself in src, intra another src
            // device in its island, inter a src device in a different
            // island. That depends only on whether the device is in src,
            // its island's src count (0, 1 or more) and whether src
            // reaches outside that island, so resolve the twelve cases
            // here — probing classes in bandwidth order, as the
            // per-position loop used to — and mark the in-src positions
            // from the source set.
            auto pick = [&](const bool *avail) {
                int cls = class_by_bw[kNumLinkClasses - 1];
                for (int r = 0; r < kNumLinkClasses; ++r) {
                    if (avail[class_by_bw[r]]) {
                        cls = class_by_bw[r];
                        break;
                    }
                }
                return static_cast<std::uint8_t>(cls);
            };
            for (int in = 0; in < 2; ++in)
                for (std::uint32_t cnt = 0; cnt < 3; ++cnt)
                    for (int outside = 0; outside < 2; ++outside) {
                        const bool avail[kNumLinkClasses] = {
                            in != 0, cnt > (in != 0 ? 1u : 0u),
                            outside != 0};
                        ctx.clsOf[in][cnt][outside] = pick(avail);
                    }
            ctx.inSrc.assign(F, 0);
            for (DeviceId s : src) {
                const auto fit = std::lower_bound(free.begin(), free.end(), s);
                if (fit != free.end() && *fit == s)
                    ctx.inSrc[static_cast<std::size_t>(fit - free.begin())] =
                        1;
            }
        }
    }

    /**
     * Band prefixes (phase B): per-band prefix state. Sizing and ordinal
     * bases are serial (cheap, and resizes must not race); the fills are
     * independent per band and per residency row.
     */
    void
    bandPrefixes()
    {
        const std::size_t num_bands = cand_windows.bands.size();
        if (band_states.size() < num_bands)
            band_states.resize(num_bands);
        std::size_t ordinal = 0;
        std::size_t band_positions = 0;
        for (std::size_t b = 0; b < num_bands; ++b) {
            BandState &bs = band_states[b];
            const std::size_t B = cand_windows.bands[b].size();
            bs.ordinalBase = ordinal;
            bs.numWindows = B >= n ? B - n + 1 : 0;
            ordinal += bs.numWindows;
            if (bs.numWindows == 0)
                continue;
            band_positions += B;
            if (cfg.tp > 1 && bs.chgPref.size() < B)
                bs.chgPref.resize(B);
            if (bs.resIdx.size() < rows)
                bs.resIdx.resize(rows);
            if (!exact_comm) {
                const std::size_t need = inflows.size() * (B + 1);
                if (bs.inflowPref.size() < need)
                    bs.inflowPref.resize(need);
                bs.eqWindow.assign(inflows.size(), -1);
            }
        }
        extras_base = ordinal;
        total_candidates = ordinal + cand_windows.extras.size();

        const std::size_t units_per_band = 1 + rows;
        auto build_unit = [&](std::size_t u) {
            const std::size_t b = u / units_per_band;
            const std::size_t sub = u % units_per_band;
            if (sub == 0)
                buildBandShared(b);
            else
                buildBandRow(b, sub - 1);
        };
        const std::size_t band_work =
            band_positions * (2 + kNumLinkClasses * inflows.size());
        maybeParallelFor(pool, band_work >= kMinParallelWork, 0,
                         num_bands * units_per_band, 1, build_unit);
    }

    /** Shared per-band state: island-change prefix, minimum load,
     *  link-class prefixes, and the band window equal to a source set
     *  (zero-cost transfer). */
    void
    buildBandShared(std::size_t b)
    {
        BandState &bs = band_states[b];
        if (bs.numWindows == 0)
            return;
        const auto &band = cand_windows.bands[b];
        const std::size_t B = band.size();
        // Bands ascend (generator contract), so first position 0 and last
        // B-1 force the identity permutation — the common ContiguousRuns
        // case, where dropping the band[i] indirection lets the fills
        // below vectorize.
        const bool ident =
            band[0] == 0 && band[B - 1] == static_cast<std::uint32_t>(B - 1);
        const auto at = [&](std::size_t i) {
            return ident ? static_cast<std::uint32_t>(i) : band[i];
        };

        // Island-change prefix: a window holds within one island iff no
        // adjacent pair inside it changes islands (exact under any
        // numbering). Only the TP island penalty reads it, so it is built
        // only when cfg.tp > 1. The minimum load along the band always
        // is: it is the admissible bound for the memory term (every
        // window's maximum is >= the band-wide minimum) and the
        // whole-band capacity skip.
        if (cfg.tp > 1) {
            bs.chgPref[0] = 0;
            for (std::size_t i = 1; i < B; ++i)
                bs.chgPref[i] =
                    bs.chgPref[i - 1] +
                    (pos_island[at(i)] != pos_island[at(i - 1)] ? 1u : 0u);
        }
        double mn;
        if (ident) {
            mn = cand_total[0];
            for (std::size_t i = 1; i < B; ++i)
                mn = std::min(mn, cand_total[i]);
        } else {
            mn = cand_total[band[0]];
            for (std::size_t i = 1; i < B; ++i)
                mn = std::min(mn, cand_total[band[i]]);
        }
        bs.minTotal = mn;

        if (exact_comm)
            return;
        const std::size_t stride = B + 1;
        for (std::size_t k = 0; k < inflows.size(); ++k) {
            std::uint64_t *pref = bs.inflowPref.data() + k * stride;
            const InflowCtx &ctx = inflow_ctx[k];
            pref[0] = 0;
            if (ident) {
                for (std::size_t i = 0; i < B; ++i)
                    pref[i + 1] = pref[i] + classBit(ctx.cls[i]);
            } else {
                for (std::size_t i = 0; i < B; ++i)
                    pref[i + 1] = pref[i] + classBit(ctx.cls[band[i]]);
            }

            const DeviceSet &src = *inflows[k].second;
            if (src.size() != n)
                continue;
            // Devices ascend along a band, so binary-search the band for
            // the source's first device.
            std::size_t lo = 0, hi = B;
            while (lo < hi) {
                const std::size_t mid = (lo + hi) / 2;
                if (free[band[mid]] < src.front())
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo + n <= B && sameWindow(src, band.data() + lo))
                bs.eqWindow[k] = static_cast<std::ptrdiff_t>(lo);
        }
    }

    /** Resident band indices of one row along one band: intersect the
     *  band (ascending positions, per the generator contract) with the
     *  row's holder-position list. O(holders · log B) instead of O(B). */
    void
    buildBandRow(std::size_t b, std::size_t row)
    {
        BandState &bs = band_states[b];
        if (bs.numWindows == 0)
            return;
        const auto &band = cand_windows.bands[b];
        std::vector<std::uint32_t> &out = bs.resIdx[row];
        out.clear();
        for (std::uint32_t p : row_pos[row]) {
            const auto it = std::lower_bound(band.begin(), band.end(), p);
            if (it != band.end() && *it == p)
                out.push_back(static_cast<std::uint32_t>(it - band.begin()));
        }
    }

    /**
     * Window sweep (phase C): a reduction over the candidate ordinals.
     * Chunk size only balances lanes and sets the pruning granularity;
     * any chunking yields the same winner (the ordinal tie-break is
     * global, and pruning is winner-preserving per chunk). The serial
     * sweep is chunked too — that is what gives pruning its skippable
     * units — with a floor of 4n so the per-chunk deque warm-up (n - 1
     * positions) stays under a quarter of the chunk.
     */
    Candidate
    windowSweep()
    {
        prune_bound.store(std::numeric_limits<double>::infinity(),
                          std::memory_order_relaxed);
        const std::size_t sweep_work =
            total_candidates * (sig.size() + inflows.size() + 4);
        const bool sweep_parallel =
            use_pool && sweep_work >= kMinParallelWork && total_candidates > 1;
        const std::size_t chunk_floor = std::max<std::size_t>(
            kMinSweepChunk, 4 * static_cast<std::size_t>(n));
        const std::size_t chunk =
            sweep_parallel
                ? std::max(chunk_floor,
                           total_candidates /
                               (static_cast<std::size_t>(pool->threads()) * 4))
                : chunk_floor;
        sweep_tasks.clear();
        for (std::size_t b = 0; b < cand_windows.bands.size(); ++b) {
            const std::size_t W = band_states[b].numWindows;
            for (std::size_t lo = 0; lo < W; lo += chunk)
                sweep_tasks.push_back({static_cast<std::int32_t>(b), lo,
                                       std::min(lo + chunk, W)});
        }
        const std::size_t num_extras = cand_windows.extras.size();
        for (std::size_t lo = 0; lo < num_extras; lo += chunk)
            sweep_tasks.push_back({-1, lo, std::min(lo + chunk, num_extras)});

        auto run_task = [&](const SweepTask &t, Candidate &best,
                            LaneScratch &lane) {
            if (t.band >= 0)
                scoreBandRange(static_cast<std::size_t>(t.band), t.lo, t.hi,
                               best, lane);
            else
                for (std::size_t ei = t.lo; ei < t.hi; ++ei)
                    scoreExtra(ei, best, lane);
        };

        Candidate best;
        if (sweep_parallel && sweep_tasks.size() > 1) {
            best = pool->parallelReduce<Candidate>(
                0, sweep_tasks.size(), 1,
                [&](Candidate &acc, std::size_t lo, std::size_t hi) {
                    LaneScratch lane;
                    for (std::size_t t = lo; t < hi; ++t)
                        run_task(sweep_tasks[t], acc, lane);
                },
                [](Candidate &out, const Candidate &c) {
                    if (betterThan(c, out))
                        out = c;
                });
        } else {
            for (const SweepTask &t : sweep_tasks)
                run_task(t, best, serial_lane);
        }
        return best;
    }

    /**
     * Score band @p b's windows with start in [w_lo, w_hi). The memory
     * extremum uses a monotonic deque (sliding-window maximum over the
     * per-device candidate totals along the band); a chunk warms its own
     * deque over the n-1 positions before its first window, so the
     * maximum — a selection, not an accumulation — is bit-identical to
     * the full scan.
     *
     * Before scoring, the chunk may be pruned (see chunkLowerBound): it
     * is skipped only when its bound is *strictly* above an
     * already-scored primary — such a chunk cannot contain the winner
     * even via the (secondary, ordinal) tie-break, which only arbitrates
     * equal primaries. See placement.h.
     */
    void
    scoreBandRange(std::size_t b, std::size_t w_lo, std::size_t w_hi,
                   Candidate &best, LaneScratch &lane)
    {
        const auto &band = cand_windows.bands[b];
        const BandState &bs = band_states[b];
        const std::size_t stride = band.size() + 1;
        if (bs.minTotal > capacity)
            return; // every window fails capacity

        // Per-row sweep pointers: first resident band index >= w_lo;
        // advanced as the window slides (amortized O(1) per window).
        std::vector<std::size_t> &row_ptr = lane.row_ptr;
        std::vector<char> &row_nonres = lane.row_nonres;
        row_ptr.resize(rows);
        row_nonres.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            const auto &idx = bs.resIdx[r];
            row_ptr[r] = static_cast<std::size_t>(
                std::lower_bound(idx.begin(), idx.end(),
                                 static_cast<std::uint32_t>(w_lo)) -
                idx.begin());
        }
        if (chunkLowerBound(b, w_lo, w_hi, row_ptr, row_nonres) >
            prune_bound.load(std::memory_order_relaxed))
            return;

        std::vector<std::size_t> &dq = lane.dq;
        dq.clear();
        std::size_t head = 0;
        const std::size_t i_end = w_hi + n - 1;
        for (std::size_t i = w_lo; i < i_end; ++i) {
            while (dq.size() > head &&
                   cand_total[band[dq.back()]] <= cand_total[band[i]])
                dq.pop_back();
            dq.push_back(i);
            if (i + 1 < w_lo + n)
                continue; // window not yet full
            const std::size_t w = i + 1 - n;
            if (dq[head] < w)
                ++head;
            const double max_total = cand_total[band[dq[head]]];

            // Memory feasibility. Division by a positive constant is
            // monotone, so dividing the window maximum equals the former
            // per-device quotient maximum.
            if (max_total > capacity)
                continue;

            // Inter-wave communication, accumulated in the same source
            // order as always.
            double comm = 0;
            if (exact_comm) {
                comm = exactWindowComm(band.data() + w, lane.win);
            } else {
                for (std::size_t k = 0; k < inflows.size(); ++k) {
                    if (static_cast<std::ptrdiff_t>(w) == bs.eqWindow[k])
                        continue; // data resident
                    if (inflows[k].first <= 0)
                        continue;
                    const std::uint64_t *pref =
                        bs.inflowPref.data() + k * stride;
                    const std::uint64_t diff = pref[w + n] - pref[w];
                    // Fastest link class present in the window (classes
                    // partition the devices, so the probe always finds
                    // one).
                    int cls = class_by_bw[kNumLinkClasses - 1];
                    for (int r = 0; r < kNumLinkClasses; ++r) {
                        if (classPresent(diff, class_by_bw[r])) {
                            cls = class_by_bw[r];
                            break;
                        }
                    }
                    comm += inflow_ctx[k].flowByClass[cls];
                }
            }

            // Parameter affinity; the per-row flags come from the sliding
            // pointers into the sparse resident-index lists.
            for (std::size_t r = 0; r < rows; ++r) {
                const auto &idx = bs.resIdx[r];
                std::size_t &ptr = row_ptr[r];
                while (ptr < idx.size() && idx[ptr] < w)
                    ++ptr;
                row_nonres[r] =
                    (ptr >= idx.size() || idx[ptr] >= w + n) ? 1 : 0;
            }
            comm += affinity(nonResidentBytes(row_nonres));

            if (cfg.tp > 1 && bs.chgPref[w + n - 1] != bs.chgPref[w])
                comm += island_penalty;

            consider(best, max_total, comm, bs.ordinalBase + w,
                     static_cast<std::int32_t>(b), w);
        }
    }

    /**
     * Exact lower bound on the primary score of every window of band
     * @p b with start in [w_lo, w_hi), given each row's first resident
     * band index >= w_lo in @p row_ptr: the minimum load along the
     * band for the memory term, the cheapest link class present
     * anywhere in the chunk's position range per inflow, residency
     * over the whole range for the affinity term, and min(0, penalty)
     * for the island penalty. Each term is <= its counterpart in every
     * window's score and is accumulated in the same structural order,
     * so by monotonicity of rounded addition the bound never exceeds
     * any window's primary.
     */
    double
    chunkLowerBound(std::size_t b, std::size_t w_lo, std::size_t w_hi,
                    const std::vector<std::size_t> &row_ptr,
                    std::vector<char> &row_nonres) const
    {
        const BandState &bs = band_states[b];
        if (memory_first)
            return bs.minTotal / topo.device().memoryBytes;
        // Chunk windows cover band positions [w_lo, w_hi + n - 1).
        const std::size_t r_end = w_hi + n - 1;
        const std::size_t stride = cand_windows.bands[b].size() + 1;
        double lb = 0;
        if (!exact_comm) {
            for (std::size_t k = 0; k < inflows.size(); ++k) {
                if (inflows[k].first <= 0)
                    continue;
                const std::ptrdiff_t eq = bs.eqWindow[k];
                if (eq >= static_cast<std::ptrdiff_t>(w_lo) &&
                    eq < static_cast<std::ptrdiff_t>(w_hi))
                    continue; // one window pays 0
                // Cheapest class present anywhere in the range: a
                // window's class is present in it, hence in the range,
                // hence covered by this min (classes can invert the
                // bandwidth order via latency, so min over values, not
                // first by rank).
                const std::uint64_t *pref = bs.inflowPref.data() + k * stride;
                const std::uint64_t diff = pref[r_end] - pref[w_lo];
                double t = std::numeric_limits<double>::infinity();
                for (int c = 0; c < kNumLinkClasses; ++c)
                    if (classPresent(diff, c))
                        t = std::min(t, inflow_ctx[k].flowByClass[c]);
                lb += t;
            }
        }
        // Rows with no resident position in the whole range are
        // non-resident in every window; their bytes are a floor on the
        // affinity term.
        for (std::size_t r = 0; r < rows; ++r) {
            const auto &idx = bs.resIdx[r];
            row_nonres[r] =
                (row_ptr[r] >= idx.size() || idx[row_ptr[r]] >= r_end) ? 1
                                                                       : 0;
        }
        lb += affinity(nonResidentBytes(row_nonres));
        if (cfg.tp > 1)
            lb += std::min(0.0, island_penalty);
        lb += options.memoryWeight * (bs.minTotal / topo.device().memoryBytes);
        return lb;
    }

    /** Score one explicit window (cross-island unions etc.). */
    void
    scoreExtra(std::size_t ei, Candidate &best, LaneScratch &lane)
    {
        const auto &win_pos = cand_windows.extras[ei];
        double max_total = 0;
        for (std::uint32_t p : win_pos)
            max_total = std::max(max_total, cand_total[p]);
        if (max_total > capacity)
            return;

        double comm = exact_comm ? exactWindowComm(win_pos.data(), lane.win)
                                 : extraClassComm(win_pos);

        std::vector<char> &row_nonres = lane.row_nonres;
        row_nonres.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            const auto &rp = row_pos[r];
            row_nonres[r] = std::none_of(
                win_pos.begin(), win_pos.end(), [&](std::uint32_t p) {
                    return std::binary_search(rp.begin(), rp.end(), p);
                });
        }
        comm += affinity(nonResidentBytes(row_nonres));

        if (cfg.tp > 1 &&
            std::any_of(win_pos.begin(), win_pos.end(), [&](std::uint32_t p) {
                return pos_island[p] != pos_island[win_pos.front()];
            }))
            comm += island_penalty;

        consider(best, max_total, comm, extras_base + ei, -1, ei);
    }

    /** Class-level (uniform-fabric) comm of one explicit window: the
     *  per-inflow fastest class over its positions. */
    double
    extraClassComm(const std::vector<std::uint32_t> &win_pos) const
    {
        double comm = 0;
        for (std::size_t k = 0; k < inflows.size(); ++k) {
            const InflowCtx &ctx = inflow_ctx[k];
            if (sameWindow(*inflows[k].second, win_pos.data()))
                continue; // data already resident
            if (inflows[k].first <= 0)
                continue;
            int best_rank = kNumLinkClasses - 1;
            for (std::uint32_t p : win_pos) {
                best_rank = std::min(best_rank, rank_of_class[ctx.cls[p]]);
                if (best_rank == 0)
                    break;
            }
            comm += ctx.flowByClass[class_by_bw[best_rank]];
        }
        return comm;
    }

    /**
     * Fold one scored window into @p best. Mirrors the historical
     * replace-on-strictly-better scan (see struct Candidate), and
     * publishes improved primaries into the shared pruning bound.
     */
    void
    consider(Candidate &best, double max_total, double comm,
             std::size_t ord, std::int32_t band, std::size_t start)
    {
        const double peak_frac = max_total / topo.device().memoryBytes;
        const Candidate c =
            memory_first ? Candidate{peak_frac, comm, comm, ord, band, start}
                         : Candidate{comm + options.memoryWeight * peak_frac,
                                     peak_frac, comm, ord, band, start};
        if (!betterThan(c, best))
            return;
        best = c;
        double cur = prune_bound.load(std::memory_order_relaxed);
        while (c.primary < cur &&
               !prune_bound.compare_exchange_weak(cur, c.primary,
                                                  std::memory_order_relaxed))
            ;
    }

    /** Whether the window at free-list positions @p pos is @p src (a
     *  transfer from @p src into it moves nothing). */
    bool
    sameWindow(const DeviceSet &src, const std::uint32_t *pos) const
    {
        return src.size() == n &&
               std::equal(src.begin(), src.end(), pos,
                          [&](DeviceId s, std::uint32_t p) {
                              return free[p] == s;
                          });
    }

    /** Free-list positions of a candidate's window. */
    const std::uint32_t *
    windowPositions(const Candidate &c) const
    {
        if (c.band >= 0)
            return cand_windows.bands[static_cast<std::size_t>(c.band)].data() +
                   c.start;
        return cand_windows.extras[c.start].data();
    }

    /** The devices at @p pos[0, n) of the free list. */
    void
    materialise(const std::uint32_t *pos, DeviceSet &win) const
    {
        win.resize(n);
        for (std::uint32_t j = 0; j < n; ++j)
            win[j] = free[pos[j]];
    }

    /** Comm of the entry's inflows into @p win with the flow oracle, in
     *  inflow order. */
    double
    flowComm(const DeviceSet &win) const
    {
        double comm = 0;
        for (const auto &[bytes, src] : inflows)
            comm += coll.flowTime(bytes, *src, win);
        return comm;
    }

    /** flowComm() of the window at free-list positions @p pos (exact-comm
     *  path, see link_class), materialised into @p win. */
    double
    exactWindowComm(const std::uint32_t *pos, DeviceSet &win) const
    {
        if (inflows.empty())
            return 0;
        materialise(pos, win);
        return flowComm(win);
    }

    /** Raw bytes of the slice's parameters flagged non-resident in
     *  @p row_nonres, accumulated in sig order (the historical FP
     *  order). */
    double
    nonResidentBytes(const std::vector<char> &row_nonres) const
    {
        double bytes = 0;
        if (rows == 0)
            return bytes;
        for (std::size_t s = 0; s < sig.size(); ++s) {
            const std::int32_t row = sig_row[s];
            if (row >= 0 && row_nonres[static_cast<std::size_t>(row)])
                bytes += sig[s].bytes;
        }
        return bytes;
    }

    /**
     * Parameter affinity (§3.5): windows whose devices already store the
     * slice's parameter sets are rewarded; placing elsewhere would grow
     * the corresponding gradient-sync groups by roughly one ring pass of
     * the non-resident bytes.
     */
    double
    affinity(double non_resident_bytes) const
    {
        return 2.0 * non_resident_bytes /
               topo.config().interIslandCollective.bandwidth;
    }

    /**
     * Commit, the device part shared by scored and replayed entries:
     * reverse-index upkeep, then the parameter and activation state of
     * every device of @p win.
     */
    void
    commitDevices(const DeviceSet &win)
    {
        touchSegments(win);

        // Reverse-index upkeep, serially before the commit mutates any
        // device: a key gains exactly the window devices that do not yet
        // hold it (probed against the still-pre-commit flat mirror).
        // uniq_keys is deduplicated, so no device is appended twice for
        // one key, keeping holder lists exact.
        for (std::int64_t key : uniq_keys) {
            std::vector<DeviceId> *hv = nullptr;
            for (DeviceId d : win) {
                if (state.findFlat(d, key) != nullptr)
                    continue;
                if (hv == nullptr)
                    hv = &state.holders[key];
                hv->push_back(d);
            }
        }

        // Devices are committed independently (each lane touches only its
        // own device's map, flat mirror, and dirty bit), so large entries
        // parallelize; order is irrelevant to the resulting state.
        auto commit_device = [&](std::size_t j) {
            const DeviceId d = win[j];
            state.activations[d] += act_share;
            for (const auto &[key, share] : commit_keys) {
                auto [it, inserted] = state.params[d].emplace(key, share);
                if (!inserted && share > it->second)
                    it->second = share;
            }
            state.mergeFlat(d, uniq_keys, uniq_vals);
            state.total_dirty[d] = 1;
        };
        maybeParallelFor(pool,
                         win.size() * (sig.size() + 1) >= kMinParallelWork, 0,
                         win.size(), 8, commit_device);
    }

    /**
     * Commit (stage 7): the device commit, then inter-island
     * attribution, the commit log, and free-list compaction for entry
     * @p idx of wave @p wi placed on @p win at @p comm.
     */
    void
    commit(std::size_t wi, std::size_t idx, double comm, DeviceSet win)
    {
        commitDevices(win);

        // Attribute the committed flows to intra- vs inter-island fabric,
        // shard by shard: the flow's bytes land sharded across the
        // window, and a window device whose island holds no source device
        // receives its shard over the inter-island fabric. Finer-grained
        // than flowTime's best-pair pricing, which cannot tell an
        // island-aligned window from one that merely touches the source's
        // island.
        double entry_inter = 0;
        for (const auto &[bytes, src] : inflows) {
            const double t = coll.flowTime(bytes, *src, win);
            if (t <= 0)
                continue;
            std::size_t miss = 0;
            topo.bestLinkBetween(*src, win, &miss);
            entry_inter += t * (static_cast<double>(miss) /
                                static_cast<double>(win.size()));
        }
        if (cfg.tp > 1 && !topo.withinOneIsland(win))
            entry_inter += island_penalty;
        result.interIslandCommSeconds += entry_inter;

        if (log != nullptr)
            log->push_back({static_cast<std::uint32_t>(wi),
                            static_cast<std::uint32_t>(idx), comm,
                            entry_inter});

        if (options.strategy != PlacementStrategy::Sequential) {
            // Remove the committed devices from their segments' free
            // lists (one compaction pass per segment the window touches;
            // general windows need not be contiguous runs of a list).
            // Segments ascend, so each one's devices are a run of win.
            for (std::size_t i = 0; i < win.size();) {
                const std::size_t first = i;
                DeviceSet &list = seg_free[segmentOf(win[i])];
                std::size_t out = 0;
                for (DeviceId d : list) {
                    if (i < win.size() && d == win[i]) {
                        ++i;
                        continue;
                    }
                    list[out++] = d;
                }
                list.resize(out);
                panicIf(i == first, "tryPlace: committed device ", win[first],
                        " is not free");
            }
            free_count -= win.size();
        }

        WaveEntry &e = plan.waves[wi].entries[idx];
        e.devices = win;
        state.lastSlice[e.metaOp] = std::move(win);
        result.estimatedCommSeconds += comm;
    }
};

DevicePlacement::DevicePlacement(const ClusterTopology &topo,
                                 const HardwareModel &hw,
                                 const MemoryModel &mem,
                                 PlacementOptions options,
                                 ThreadPool *pool)
    : topo_(topo), hw_(hw), mem_(mem), options_(options), pool_(pool)
{
}

const WindowGenerator &
DevicePlacement::generator() const
{
    if (options_.generator != nullptr)
        return *options_.generator;
    return builtinWindowGenerator(options_.windows);
}

std::optional<PlacementResult>
DevicePlacement::place(const MetaGraph &graph, ExecutionPlan &plan,
                       std::size_t resume_wave,
                       const std::vector<PlacementCommit> &prefix,
                       std::vector<PlacementCommit> *commit_log) const
{
    panicIf(resume_wave == 0 && !prefix.empty(),
            "DevicePlacement::place: prefix records without a resume wave");
    if (commit_log != nullptr)
        commit_log->clear();

    // Comm-first from the replayed prefix (from scratch at wave 0).
    // Replay recommits the donor's exact per-device state, and wave
    // scoring reads only earlier commits plus graph data — never
    // later waves — so this pass commits bit for bit what a
    // from-scratch comm-first pass commits. The log starts with the
    // prefix records, so it always equals the from-scratch pass's
    // log: prefix first, then this pass's commits in wave-major
    // order.
    PlacementResult result;
    std::vector<CommitRecord> log = prefix;
    std::size_t fail_wave = 0;
    if (tryPlace(graph, plan, /*memory_first=*/false, result, resume_wave,
                 &prefix, &log, &fail_wave)) {
        if (commit_log != nullptr)
            *commit_log = std::move(log);
        return result;
    }

    // Backtracking collapsed into a restart with memory balance as
    // the primary objective (§3.5 "alternative placements with
    // sub-optimal communication costs"). Preferred: resume from the
    // first infeasible wave, replaying the feasible prefix verbatim
    // instead of re-scoring it.
    if (options_.partialFallbackRestart && fail_wave > 0) {
        PlacementResult partial;
        partial.usedMemoryFallback = true;
        partial.fallbackRestartWave = fail_wave;
        if (tryPlace(graph, plan, /*memory_first=*/true, partial,
                     fail_wave, &log, nullptr, nullptr))
            return partial;
    }

    // Last resort: the historical full memory-first restart.
    result = {};
    result.usedMemoryFallback = true;
    if (!tryPlace(graph, plan, /*memory_first=*/true, result, 0, nullptr,
                  nullptr, nullptr))
        return std::nullopt;
    return result;
}

bool
DevicePlacement::tryPlace(const MetaGraph &graph, ExecutionPlan &plan,
                          bool memory_first, PlacementResult &result,
                          std::size_t resume_wave,
                          const std::vector<CommitRecord> *replay,
                          std::vector<CommitRecord> *log,
                          std::size_t *fail_wave) const
{
    Pass pass(*this, graph, plan, memory_first, result, log);
    if (resume_wave > 0) {
        panicIf(replay == nullptr, "tryPlace: resume without replay log");
        pass.replayPrefix(*replay, resume_wave);
    }

    for (std::size_t wi = resume_wave; wi < plan.waves.size(); ++wi) {
        Wave &wave = plan.waves[wi];
        pass.resetFreeList();
        for (std::size_t idx : pass.entryOrder(wave)) {
            const WaveEntry &e = wave.entries[idx];
            panicIf(pass.free_count < e.n,
                    "tryPlace: scheduler exceeded wave capacity");
            pass.signEntry(e);
            pass.scoringContext(e);

            DeviceSet win;
            double comm;
            if (options_.strategy == PlacementStrategy::Sequential) {
                comm = pass.placeSequential(win);
            } else {
                pass.buildView();
                pass.positionPass();
                pass.bandPrefixes();
                const Candidate best = pass.windowSweep();
                if (!best.found()) {
                    if (fail_wave != nullptr)
                        *fail_wave = wi;
                    return false; // nothing fits: trigger fallback
                }
                comm = best.comm;
                pass.materialise(pass.windowPositions(best), win);
            }
            pass.commit(wi, idx, comm, std::move(win));
        }
    }

    result.peakBytes.assign(plan.numDevices, 0.0);
    for (std::uint32_t d = 0; d < plan.numDevices; ++d)
        result.peakBytes[d] = pass.state.deviceTotal(d);
    return true;
}

} // namespace spindle
