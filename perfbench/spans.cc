#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Small dense id of the calling thread (Chrome trace "tid"). */
std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

void
writeJsonString(std::ostream& os, const std::string& text)
{
    os << '"';
    for (char c : text) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             kEpoch)
            .count());
}

std::uint64_t
SpanRecorder::begin(const std::string& name, std::uint64_t parent)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.thread = threadIndex();
    span.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return spans_.size();
}

double
SpanRecorder::end(std::uint64_t id)
{
    const std::uint64_t stop = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_.at(id - 1);
    span.endNs = stop;
    return secondsBetween(span.startNs, span.endNs);
}

bool
SpanRecorder::writeChromeTrace(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        const std::uint64_t end = span.endNs == 0 ? span.startNs : span.endNs;
        char times[96];
        std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(span.startNs) * 1e-3,
                      static_cast<double>(end - span.startNs) * 1e-3);
        os << (i == 0 ? "" : ",\n") << "{\"name\":";
        writeJsonString(os, span.name);
        os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread << ","
           << times << ",\"args\":{\"id\":" << i + 1
           << ",\"parent\":" << span.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
