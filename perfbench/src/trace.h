/**
 * @file
 * In-memory spans recorded by the benchmark around each call into a
 * Spindle layer (the library itself is not instrumented). Spans of
 * one operation share a request id; a span's parent is the span that
 * was open when it began. Written out once, at the end of the run,
 * as Chrome Trace Event JSON (opens in Perfetto / chrome://tracing).
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span
{
    std::string name;  ///< "<layer>.<call>", e.g. "runtime.engine_run"
    std::string layer; ///< repository module the call lands in
    double startMs = 0;
    double endMs = 0;
    int parent = -1; ///< index into the span list, -1 for a root
    std::uint64_t request = 0;

    double durationMs() const { return endMs - startMs; }
};

/**
 * Span recorder. A disabled tracer records nothing and every call is
 * a branch, so the untraced run pays (almost) nothing for the hooks.
 * Single-threaded: only the benchmark's own thread records spans.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index
     *  (-1 when disabled). */
    int begin(const std::string &layer, const std::string &call,
              std::uint64_t request);
    void end(int span);

    /** Record a finished span with explicit times (ms since the
     *  tracer's origin) under @p parent — used for phases the library
     *  reports as durations (PlannerOutput::phaseSeconds). Returns
     *  its index (-1 when disabled). */
    int add(const std::string &layer, const std::string &call,
             double start_ms, double end_ms, int parent,
             std::uint64_t request);

    /** Milliseconds since the tracer was created. */
    double nowMs() const { return msSince(origin_); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op on a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &layer,
               const std::string &call, std::uint64_t request)
        : tracer_(tracer), span_(tracer.begin(layer, call, request))
    {
    }
    ~ScopedSpan() { tracer_.end(span_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int span_;
};

/** Run @p fn under a span; returns its wall time in ms (measured in
 *  both traced and untraced runs). */
template <typename F>
double
timedSpan(Tracer &tracer, const std::string &layer, const std::string &call,
          std::uint64_t request, F &&fn)
{
    ScopedSpan span(tracer, layer, call, request);
    const Clock::time_point t0 = Clock::now();
    fn();
    return msSince(t0);
}

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children (children may nest
 * or overlap one another; coverage outside the parent is ignored).
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Self time summed per layer. */
std::map<std::string, double> layerSelfMs(const std::vector<Span> &spans);

/** Chrome Trace Event JSON ("X" complete events, microseconds). */
void writeChromeTrace(std::ostream &out, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
