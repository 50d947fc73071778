#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int
Tracer::begin(const std::string &layer, const std::string &call,
              std::uint64_t request)
{
    if (!enabled_)
        return -1;
    const double now = nowMs();
    spans_.push_back({layer + "." + call, layer, now, now,
                      open_.empty() ? -1 : open_.back(), request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int span)
{
    if (span < 0)
        return;
    spans_[span].endMs = nowMs();
    // Spans close innermost first (RAII); tolerate an out-of-order
    // close by dropping everything opened after it.
    const auto it = std::find(open_.begin(), open_.end(), span);
    if (it != open_.end())
        open_.erase(it, open_.end());
}

int
Tracer::add(const std::string &layer, const std::string &call,
            double start_ms, double end_ms, int parent,
            std::uint64_t request)
{
    if (!enabled_)
        return -1;
    spans_.push_back(
        {layer + "." + call, layer, start_ms, end_ms, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.durationMs());
    }
    return out;
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            children[s.parent].emplace_back(s.startMs, s.endMs);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].startMs;
        const double hi = spans[i].endMs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = lo; // end of the union swept so far
        for (const auto &[start, end] : kids) {
            const double a = std::max(start, reach);
            const double b = std::min(end, hi);
            if (b > a)
                covered += b - a;
            reach = std::max(reach, std::min(end, hi));
        }
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

std::map<std::string, double>
layerSelfMs(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesMs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += self[i];
    return out;
}

namespace {

void
writeJsonString(std::ostream &out, const std::string &s)
{
    out << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out << ' ';
        else
            out << c;
    }
    out << '"';
}

} // namespace

void
writeChromeTrace(std::ostream &out, const std::vector<Span> &spans)
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out.precision(3);
    out << std::fixed;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":";
        writeJsonString(out, s.name);
        out << ",\"cat\":";
        writeJsonString(out, s.layer);
        out << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << s.startMs * 1000.0 << ",\"dur\":" << s.durationMs() * 1000.0
            << ",\"args\":{\"request\":" << s.request
            << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
