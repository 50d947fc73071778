/**
 * @file
 * What one workload run reports: the named metrics (the catalogue
 * below is the single list the JSON output and BENCHMARK.json must
 * agree on), ops attempted and failed, check violations, and the
 * deterministic values a later run of the same seed must reproduce.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "spindle/spindle.h"
#include "stats.h"

namespace perfbench {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every workload (untraced run). */
extern const std::vector<MetricSpec> kEndToEnd;

/** Per-layer metrics, reported by every workload (traced run); a
 *  layer the workload does not exercise reads 0. */
extern const std::vector<MetricSpec> kPerLayer;

/** Layers whose self-time share the traced run reports. */
extern const std::vector<std::string> kLayers;

class WorkloadResult
{
  public:
    explicit WorkloadResult(std::string workload)
        : workload_(std::move(workload))
    {
    }

    /** Set a catalogued metric (panics on a name not in the lists). */
    void set(const std::string &name, double value,
             const std::string &note = "");

    /** Percentile metric: value plus its sample count in the note. */
    void set(const std::string &name, const Percentile &p);

    /** Percentile @p p of @p t at reference host speed, the measured
     *  percentile and the sample count in the note. */
    void setTime(const std::string &name, const Timings &t, double p);

    /** A line printed under the tables. */
    void remark(const std::string &line) { remarks_.push_back(line); }

    void attempt(std::uint64_t ops = 1) { attempted_ += ops; }

    /** Record a failed op or a violated check. */
    void fail(const std::string &what);

    /** Check @p ok, recording @p what as a violation when false. */
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }

    /** A value that must repeat bit for bit on every run of this
     *  seed (simulated times, counts). */
    void deterministic(const std::string &name, double value)
    {
        deterministic_[name] = value;
    }

    /** Human-readable table, then the deterministic record, then the
     *  result JSON as the last line. */
    void print(std::ostream &out, bool trace) const;

  private:
    struct Value
    {
        double value = 0;
        std::string note;
    };

    std::string workload_;
    std::map<std::string, Value> values_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> violations_;
    std::vector<std::string> remarks_;
    std::map<std::string, double> deterministic_;
};

/**
 * Byte serialization of everything the planner's equivalence
 * contract covers (waves, entries, device sets, allocations, the
 * placement summary): two plans are byte-identical iff their
 * serializations are equal.
 */
std::string planBytes(const spindle::ExecutionPlan &plan,
                      const spindle::PlacementResult &placement);
std::string planBytes(const spindle::PlannerOutput &out);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
