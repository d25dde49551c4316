/**
 * @file
 * The benchmark's workloads, driven through the simulator's public
 * entry points (runSweep, runParallelCore, explore, the KL1 emulator)
 * and timed from outside. One call runs one job: set-up, the timed
 * call and the correctness checks, with simulated caches starting
 * empty. perfbench/README.md explains each workload and metric.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** What a job measures. */
enum class Mode {
    Timed,     ///< End-to-end metrics, no tracing.
    Reference, ///< Untimed serialized run; only its digest matters.
    Traced,    ///< Spans and per-layer accumulators.
};

/** One job's outcome, printed as one JSON line for run.py. */
struct JobReport {
    bool ok = true;
    std::string reason; ///< First failed check ("" when ok).
    std::string digest; ///< Deterministic result summary (hex).
    std::vector<std::pair<std::string, double>> metrics;

    /** Record a failed check; the first reason is kept. */
    void
    fail(const std::string& why)
    {
        if (ok)
            reason = why;
        ok = false;
    }

    void
    set(const std::string& name, double value)
    {
        metrics.emplace_back(name, value);
    }
};

struct JobOptions {
    std::string workload;
    std::uint64_t seed = 1;
    Mode mode = Mode::Timed;
    std::string spansPath; ///< Traced mode: Chrome trace output file.
};

/** Run one job. An unknown workload fails the report. */
JobReport runJob(const JobOptions& options);

/**
 * Run the smallest KL1 benchmark and check its answer against the host
 * mirror's with @p expected_suffix appended: the self-test that a wrong
 * expected answer is counted as a failure.
 */
JobReport runAnswerProbe(const std::string& expected_suffix);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
