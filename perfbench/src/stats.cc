#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.p = p;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    // Nearest rank: the smallest value with at least p of the
    // samples at or below it.
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double
throughput(const std::vector<double> &samples_ms)
{
    const double total = mean(samples_ms) * samples_ms.size();
    return total > 0 ? samples_ms.size() / (total / 1e3) : 0.0;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    // Multiply-shift; the bias is below 2^-32 for the small n used.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0;
}

} // namespace perfbench
