#include "hostspeed.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "spindle/spindle.h"

namespace perfbench {

namespace {

constexpr int kChainSteps = 250000;

/** 1 MB of 4-byte links: chased after streaming through 4 MB, so
 *  out of the per-core L2 (2 MB) whatever ran before and in the
 *  shared L3: the chase times the L3 latency. */
constexpr std::size_t kChaseLinks = std::size_t{1} << 18;
constexpr int kChaseSteps = 50000;
constexpr std::size_t kEvictWords = std::size_t{1} << 19;

/** Entries of the hash map built, searched and freed per probe. */
constexpr int kMapEntries = 20000;

/** The probe's times on a quiet 4-vCPU Xeon VM. */
constexpr double kChainRefMs = 0.26;
constexpr double kChaseRefMs = 1.9;
constexpr double kMapRefMs = 2.0;

volatile std::uint64_t g_sink; // keeps the probe loops from folding away

} // namespace

HostSpeed::HostSpeed() : next_(kChaseLinks), evict_(kEvictWords)
{
    // Link a shuffled order into one cycle through every link, so the
    // chase never settles into a short loop that stays cached.
    std::vector<std::uint32_t> order(kChaseLinks);
    for (std::size_t i = 0; i < kChaseLinks; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    Rng rng(0x5eed);
    for (std::size_t i = kChaseLinks - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    for (std::size_t i = 0; i < kChaseLinks; ++i)
        next_[order[i]] = order[(i + 1) % kChaseLinks];
}

double
HostSpeed::sample()
{
    Clock::time_point t0 = Clock::now();
    std::uint64_t x = state_;
    for (int i = 0; i < kChainSteps; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double chain = msSince(t0);

    for (std::size_t i = 0; i < kEvictWords; i += 8) // a word per line
        evict_[i] += x;
    t0 = Clock::now();
    std::uint32_t at = static_cast<std::uint32_t>(x % kChaseLinks);
    for (int i = 0; i < kChaseSteps; ++i)
        at = next_[at];
    const double chase = msSince(t0);

    t0 = Clock::now();
    std::uint64_t found = 0;
    {
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        std::uint64_t key = x;
        for (int i = 0; i < kMapEntries; ++i) {
            key = key * 6364136223846793005ULL + 1442695040888963407ULL;
            map[key >> 30] = i;
        }
        for (int i = 0; i < kMapEntries; ++i) {
            key = key * 6364136223846793005ULL + 1442695040888963407ULL;
            const auto it = map.find(key >> 30);
            found += it == map.end() ? 0 : it->second;
        }
    }
    const double map = msSince(t0);

    state_ = x + at + found;
    g_sink = state_;
    chainMs_.push_back(chain);
    chaseMs_.push_back(chase);
    mapMs_.push_back(map);
    factors_.push_back((kChainRefMs / chain) *
                       std::sqrt((kChaseRefMs / chase) * (kMapRefMs / map)));
    return factors_.back();
}

double
HostSpeed::endStretch()
{
    const double before = factors_.empty() ? sample() : factors_.back();
    return (before + sample()) / 2;
}

double
HostSpeed::factor() const
{
    return factors_.empty() ? 1.0 : percentile(factors_, 0.5).value;
}

std::string
HostSpeed::describe() const
{
    return spindle::strCat("median factor ", factor(), " (chain ",
                           percentile(chainMs_, 0.5).value, " ms, chase ",
                           percentile(chaseMs_, 0.5).value, " ms, map ",
                           percentile(mapMs_, 0.5).value,
                           " ms, n=", factors_.size(), ")");
}

} // namespace perfbench
