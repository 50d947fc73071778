/**
 * @file
 * Self-test of the benchmark's own helpers (no test framework, so it
 * builds wherever the benchmark does). Run: python3 perfbench/run.py
 * --selftest, or the perfbench_selftest binary directly. Exits
 * non-zero on any failed check.
 */

#include <cmath>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "hostspeed.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ++failures;                                                     \
            std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond    \
                      << ") failed\n";                                      \
        }                                                                   \
    } while (0)

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-9;
}

using namespace perfbench;

void
percentileReportsSampleCount()
{
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) // unsorted input
        hundred.push_back(i);
    const Percentile p50 = percentile(hundred, 0.5);
    CHECK(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
    const Percentile p90 = percentile(hundred, 0.9);
    CHECK(p90.value == 90 && p90.beyond == 10 && p90.resolved());

    // Fifty samples leave only five beyond the p90: unresolved.
    const std::vector<double> fifty(hundred.begin() + 50, hundred.end());
    const Percentile thin = percentile(fifty, 0.9);
    CHECK(thin.value == 45 && thin.samples == 50 && thin.beyond == 5);
    CHECK(!thin.resolved());

    const Percentile one = percentile({7.0}, 0.9);
    CHECK(one.value == 7 && one.samples == 1 && one.beyond == 0);
    const Percentile none = percentile({}, 0.5);
    CHECK(none.samples == 0 && none.value == 0);
}

void
selfTimeSubtractsUnionOfChildren()
{
    // parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12]
    // runs past the parent; a grandchild [2, 3] nests in [1, 4].
    std::vector<Span> spans = {
        {"planner.plan", "planner", 0, 10, -1, 1},
        {"cost.estimation", "cost", 1, 4, 0, 1},
        {"planner.placement", "planner", 3, 6, 0, 1},
        {"runtime.engine_run", "runtime", 8, 12, 0, 1},
        {"graph.contract", "graph", 2, 3, 1, 1},
    };
    const std::vector<double> self = selfTimesMs(spans);
    CHECK(near(self[0], 10 - (5 + 2))); // covered: [1, 6] and [8, 10]
    CHECK(near(self[1], 3 - 1));
    CHECK(near(self[2], 3));
    CHECK(near(self[3], 4));
    CHECK(near(self[4], 1));

    const std::map<std::string, double> layers = layerSelfMs(spans);
    CHECK(near(layers.at("planner"), 3 + 3));
    CHECK(near(layers.at("cost"), 2));

    // A child identical to its parent leaves no self time; a root
    // without children keeps all of it.
    spans = {{"a.x", "a", 5, 9, -1, 1}, {"b.y", "b", 5, 9, 0, 1},
             {"c.z", "c", 0, 2, -1, 2}};
    const std::vector<double> flat = selfTimesMs(spans);
    CHECK(near(flat[0], 0) && near(flat[1], 4) && near(flat[2], 2));
}

void
tracerRecordsNestingAndExports()
{
    Tracer off(false);
    {
        ScopedSpan s(off, "planner", "plan", 1);
    }
    CHECK(off.begin("planner", "plan", 1) == -1);
    CHECK(off.spans().empty());

    Tracer t(true);
    {
        ScopedSpan outer(t, "baselines", "run_iteration", 7);
        ScopedSpan inner(t, "runtime", "engine_run", 7);
    }
    t.add("cost", "estimation", 0, 1, 0, 7);
    CHECK(t.spans().size() == 3);
    CHECK(t.spans()[0].parent == -1 && t.spans()[1].parent == 0);
    CHECK(t.spans()[1].name == "runtime.engine_run");
    CHECK(t.spans()[0].endMs >= t.spans()[1].endMs);
    CHECK(t.durations("runtime.engine_run").size() == 1);

    std::ostringstream json;
    writeChromeTrace(json, t.spans());
    const std::string s = json.str();
    CHECK(s.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0) == 0);
    std::size_t events = 0;
    for (std::size_t at = 0;
         (at = s.find("\"ph\":\"X\"", at)) != std::string::npos; ++at)
        ++events;
    CHECK(events == 3);
    CHECK(s.find("\"cat\":\"runtime\"") != std::string::npos);
    CHECK(s.find("\"request\":7") != std::string::npos);
}

void
generatorsAreDeterministicPerSeed()
{
    CHECK(generateScale(11).fabricScale == generateScale(11).fabricScale);
    std::set<double> scales;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const double f = generateScale(seed).fabricScale;
        CHECK(f >= 0.98 - 1e-12 && f <= 1.02 + 1e-12);
        scales.insert(f);
    }
    CHECK(scales.size() == 9);

    const ServiceInputs s1 = generateService(9);
    const ServiceInputs s2 = generateService(9);
    CHECK(s1.pool.size() == 78 && s1.cdf == s2.cdf);
    CHECK(near(s1.cdf.back(), 1.0));
    // Popularity is the same for every seed; the streams are not.
    CHECK(generateService(10).cdf == s1.cdf);
    RequestStream r1(s1, streamFor(9, "open-loop"));
    RequestStream r2(s2, streamFor(9, "open-loop"));
    RequestStream other(s1, streamFor(9, "saturation"));
    RequestStream other_seed(s1, streamFor(10, "open-loop"));
    bool differs = false, seed_differs = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t x = r1.next();
        CHECK(x == r2.next() && x < s1.pool.size());
        differs |= x != other.next();
        seed_differs |= x != other_seed.next();
    }
    CHECK(differs && seed_differs);
}

void
openLoopChargesGeneratorStalls()
{
    // 1000/s: due every millisecond.
    CHECK(near(dueTimeMs(0, 1000), 0) && near(dueTimeMs(3, 1000), 3));
    CHECK(near(dueTimeMs(5, 250), 20));

    // The generator stalls until t = 5 ms, then sends the backlog;
    // each request is served in 0.5 ms once sent.
    const std::vector<OpenLoopRecord> records = {
        {0, 0, 0.5}, {1, 5, 5.5}, {2, 5, 6.0}, {3, 5, 6.5}, {6, 6, 7.0}};
    const OpenLoopSummary s = summarizeOpenLoop(records);
    const std::vector<double> latency = {0.5, 4.5, 4.0, 3.5, 1.0};
    const std::vector<double> lag = {0, 4, 3, 2, 0};
    CHECK(s.latencyMs.size() == 5 && s.lagMs.size() == 5);
    for (std::size_t i = 0; i < records.size(); ++i) {
        CHECK(near(s.latencyMs[i], latency[i]));
        CHECK(near(s.lagMs[i], lag[i]));
        // Due-time latency = lag + time from send to completion.
        CHECK(near(s.latencyMs[i],
                   s.lagMs[i] + records[i].doneMs - records[i].sentMs));
    }
    CHECK(percentile(s.latencyMs, 0.5).value == 3.5);
}

void
scaledTimesKeepTheMeasuredValue()
{
    HostSpeed host;
    CHECK(host.factor() == 1); // no probe yet
    const double f = host.sample();
    CHECK(f > 0 && std::isfinite(f) && host.factor() == f);
    const double g = host.endStretch(); // mean of f and a new probe
    CHECK(g > 0 && std::isfinite(g));

    Timings t;
    for (int i = 1; i <= 20; ++i)
        t.add(i, 0.5);
    CHECK(t.measured.size() == 20 && t.scaled[19] == 10);
    WorkloadResult r("t");
    r.setTime("plan_ms_p50", t, 0.5);
    std::ostringstream out;
    r.print(out, false);
    const std::string text = out.str();
    CHECK(text.find("\"plan_ms_p50\": {\"value\": 5, ") != std::string::npos);
    CHECK(text.find("measured 10; n=20, 10 beyond") != std::string::npos);
}

} // namespace

int
main()
{
    percentileReportsSampleCount();
    selfTimeSubtractsUnionOfChildren();
    tracerRecordsNestingAndExports();
    generatorsAreDeterministicPerSeed();
    openLoopChargesGeneratorStalls();
    scaledTimesKeepTheMeasuredValue();
    if (failures != 0) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-test: all checks passed\n";
    return 0;
}
