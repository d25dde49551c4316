/**
 * @file
 * In-memory tracing for the benchmark's traced run: spans around the
 * calls the benchmark makes into each layer, and count-and-nanosecond
 * accumulators for boundaries crossed once per simulated reference
 * (System::access, RefSource::next), where a span per call would cost
 * more than the call.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds since the process started. */
std::uint64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** Count and total nanoseconds of calls through one boundary. */
struct Accum {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;

    void
    add(std::uint64_t elapsed_ns)
    {
        count += 1;
        ns += elapsed_ns;
    }

    void
    merge(const Accum& other)
    {
        count += other.count;
        ns += other.ns;
    }

    /** Mean nanoseconds per call (0 when no call was recorded). */
    double
    meanNs() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(ns) /
                                static_cast<double>(count);
    }
};

/**
 * Spans of one job, kept in memory and written out once at the end.
 * begin()/end() may be called from several threads (the grid's
 * workers); every span names the span that caused it.
 */
class SpanRecorder
{
  public:
    static constexpr std::uint64_t kNoParent = 0;

    /** Open a span; returns its id (never kNoParent). */
    std::uint64_t begin(const std::string& name, std::uint64_t parent);

    /** Close span @p id; returns its duration in seconds. */
    double end(std::uint64_t id);

    /**
     * Write every span as a Chrome trace-event document (loadable in
     * Perfetto), with the parent id in each event's args.
     * @return false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        std::uint64_t parent = kNoParent;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::uint32_t thread = 0;
    };

    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< Span id i + 1 lives at index i.
};

/** Closes a span when it goes out of scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder& recorder, const std::string& name,
               std::uint64_t parent)
        : recorder_(recorder), id_(recorder.begin(name, parent))
    {
    }
    ~ScopedSpan() { recorder_.end(id_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder& recorder_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
