#include "planner/window_generator.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace spindle {

void
ContiguousRunsGenerator::generate(const WindowGenContext &ctx,
                                  CandidateWindows &out) const
{
    out.clear();
    panicIf(ctx.n == 0 || ctx.n > ctx.free.size(),
            "ContiguousRuns: entry size exceeds free devices");
    std::vector<std::uint32_t> &band = out.appendBand();
    band.resize(ctx.free.size());
    std::iota(band.begin(), band.end(), 0u);
}

namespace {

/** Merge the first @p take_a of @p a with the first @p take_b of
 *  @p b into @p win as one ascending position list. */
void
mergedPrefix(const std::vector<std::uint32_t> &a, std::size_t take_a,
             const std::vector<std::uint32_t> &b, std::size_t take_b,
             std::vector<std::uint32_t> &win)
{
    win.reserve(take_a + take_b);
    std::merge(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(take_a),
               b.begin(), b.begin() + static_cast<std::ptrdiff_t>(take_b),
               std::back_inserter(win));
}

} // namespace

void
IslandAwareGenerator::generate(const WindowGenContext &ctx,
                               CandidateWindows &out) const
{
    out.clear();
    const std::size_t F = ctx.free.size();
    const std::uint32_t n = ctx.n;
    panicIf(n == 0 || n > F,
            "IslandAware: entry size exceeds free devices");

    // Free positions per island, island-id order. Positions ascend
    // within each island because the free list ascends. Built in the
    // caller-owned scratch so repeated sweeps reuse capacity instead
    // of allocating one list set per entry. (scratch may be larger
    // than num_isl + 1 from an earlier call; only [0, num_isl] is
    // live.) scratch[num_isl] lists the islands holding a free
    // position, ascending: the stages below walk only those, so an
    // entry costs the islands its free list reaches, not the cluster.
    const std::size_t num_isl = ctx.topo.numIslands();
    out.prepareScratch(num_isl + 1);
    std::vector<std::vector<std::uint32_t>> &isl = out.scratch;
    std::vector<std::uint32_t> &present = out.scratch[num_isl];
    for (std::size_t pos = 0; pos < F; ++pos) {
        const std::uint32_t k = ctx.topo.islandOf(ctx.free[pos]);
        if (isl[k].empty())
            present.push_back(k);
        isl[k].push_back(static_cast<std::uint32_t>(pos));
    }
    std::sort(present.begin(), present.end());

    // 1. Per-island bands: sliding runs that never leave an island,
    //    whatever the device numbering looks like.
    std::size_t largest = 0;
    for (std::uint32_t k : present) {
        largest = std::max(largest, isl[k].size());
        if (isl[k].size() >= n)
            out.appendBand() = isl[k];
    }

    // 2. Deliberate cross-island unions for entries at least one of
    //    the pair cannot host alone: per unordered island pair, up
    //    to three splits (lean on the first island, balance, lean on
    //    the second), each taking the lowest-id free devices of its
    //    island. Unordered iteration keeps the (i, j) and (j, i)
    //    splits from being emitted — and scored — twice.
    for (std::size_t a = 0; a + 1 < present.size() && n >= 2; ++a) {
        const std::uint32_t i = present[a];
        const std::size_t ci = isl[i].size();
        for (std::size_t b = a + 1; b < present.size(); ++b) {
            const std::uint32_t j = present[b];
            const std::size_t cj = isl[j].size();
            if (ci + cj < n)
                continue;
            if (ci >= n && cj >= n)
                continue; // both host alone: their bands cover it
            // take_i ranges over [max(1, n - cj), min(ci, n - 1)].
            const std::size_t lo =
                n > cj ? static_cast<std::size_t>(n - cj) : 1;
            const std::size_t hi =
                std::min(ci, static_cast<std::size_t>(n - 1));
            if (lo > hi)
                continue;
            const std::size_t takes[3] = {
                hi,                                     // i-heavy
                std::clamp<std::size_t>(n / 2, lo, hi), // balanced
                lo,                                     // j-heavy
            };
            std::size_t prev = num_isl + n; // never a valid take
            for (std::size_t take_i : takes) {
                if (take_i == prev)
                    continue; // dedupe equal splits
                prev = take_i;
                mergedPrefix(isl[i], take_i, isl[j], n - take_i,
                             out.appendExtra());
            }
        }
    }

    // 3. Greedy catch-alls when the entry outgrows every island:
    //    one variant per non-empty starting island, each filled up
    //    from the remaining islands in descending free-count order
    //    (ties by island id). Several variants keep placement — and
    //    in particular the memory-first fallback — from hinging on
    //    a single candidate whose devices happen to be loaded.
    if (largest < n) {
        std::vector<std::size_t> order(present.begin(), present.end());
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return isl[a].size() > isl[b].size();
                         });
        // Emit the variants straight into extras (recycled storage),
        // then sort-and-dedupe that tail in place: different starts
        // can coincide, and each window must be emitted once, in the
        // historical lexicographic order.
        const std::size_t greedy_base = out.extras.size();
        for (std::size_t start : order) {
            std::vector<std::uint32_t> &win = out.appendExtra();
            win.reserve(n);
            auto take_from = [&](std::size_t k) {
                if (win.size() >= n)
                    return;
                const std::size_t take = std::min<std::size_t>(
                    isl[k].size(), n - win.size());
                win.insert(win.end(), isl[k].begin(),
                           isl[k].begin() +
                               static_cast<std::ptrdiff_t>(take));
            };
            take_from(start);
            for (std::size_t k : order)
                if (k != start)
                    take_from(k);
            std::sort(win.begin(), win.end());
        }
        const auto greedy_begin =
            out.extras.begin() +
            static_cast<std::ptrdiff_t>(greedy_base);
        std::sort(greedy_begin, out.extras.end());
        const auto tail =
            std::unique(greedy_begin, out.extras.end());
        out.dropLastExtras(
            static_cast<std::size_t>(out.extras.end() - tail));
    }
}

const WindowGenerator &
builtinWindowGenerator(WindowPolicy policy)
{
    static const ContiguousRunsGenerator contiguous;
    static const IslandAwareGenerator island_aware;
    switch (policy) {
      case WindowPolicy::ContiguousRuns: return contiguous;
      case WindowPolicy::IslandAware: return island_aware;
    }
    panic("builtinWindowGenerator: unknown policy");
}

} // namespace spindle
