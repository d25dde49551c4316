/**
 * @file
 * Parallel experiment engine CLI (docs/EXPERIMENTS.md): expands a
 * declarative sweep spec into independent simulation tasks, fans them
 * out across a work-stealing thread pool, and aggregates the rows into
 * one deterministic SWEEP.json (plus per-experiment BENCH_sweep_*.json
 * and a SWEEP.perf.json throughput sidecar).
 *
 * `--spec=paper` reproduces the entire Table 1-5 / Figure 1-3 grid in
 * one invocation; SWEEP.json is byte-identical for any --jobs value,
 * any --timeout/retry history, and any interrupt/--resume split
 * (docs/ROBUSTNESS.md).
 *
 * Exit codes: 0 = every requested task ran (failed rows are results,
 * reported in SWEEP.json); nonzero = a SimFault per
 * simFaultExitCode's families (10 config, 11 parse, ...), e.g. a
 * checkpoint/spec mismatch under --resume exits 10.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "sweep/sweep_runner.h"

using namespace pim;
using namespace pim::sweep;

namespace {

void
usage()
{
    std::printf(
        "pim_sweep: parallel sweep over simulation parameter grids\n"
        "  --spec=FILE|paper|smoke|clusters  sweep spec: a JSON file,\n"
        "                      the built-in full paper grid, the 4-point\n"
        "                      CI smoke, or the 128-1024 PE clustered\n"
        "                      scaling grid (docs/ARCHITECTURE.md)\n"
        "  --jobs=N            worker threads (default: hardware)\n"
        "  --out=DIR           write SWEEP.json, SWEEP.perf.json and\n"
        "                      BENCH_sweep_<id>.json here (created if\n"
        "                      missing; default: no files, stdout only)\n"
        "  --scale=N           override every kl1 task's workload scale\n"
        "  --list              print the expanded grid and exit\n"
        "  --perf-inline       embed the perf block in SWEEP.json (forfeits\n"
        "                      cross---jobs byte-identity)\n"
        "  --timeout=SECS      per-task wall-clock budget; an overrunning\n"
        "                      point fails with Timeout instead of wedging\n"
        "                      its worker (default: none)\n"
        "  --retries=N         extra attempts for transient (Timeout)\n"
        "                      rows, exponential backoff (default: 2)\n"
        "  --retry-base-ms=MS  first retry backoff, doubling per retry\n"
        "                      (default: 100, capped at 5000)\n"
        "  --resume            restore completed slots from\n"
        "                      OUT/SWEEP.ckpt.json (same spec, verified\n"
        "                      by config hash) and run only the rest\n"
        "  --max-tasks=K       stop after K tasks this invocation,\n"
        "                      leaving the checkpoint for --resume\n"
        "                      (default: 0 = run everything)\n"
        "  --checkpoint-every=N  completed tasks between checkpoint\n"
        "                      writes when --out is set (default: 1;\n"
        "                      0 disables periodic checkpoints)\n");
}

const char* const kKnownFlags[] = {
    "spec", "jobs", "out", "scale", "list", "perf-inline", "timeout",
    "retries", "retry-base-ms", "resume", "max-tasks",
    "checkpoint-every", "help",
};

/** Like pim_stress: a mistyped flag must not silently run a default. */
bool
flagsAreKnown(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            continue;
        std::string name(argv[i] + 2);
        name = name.substr(0, name.find('='));
        bool known = false;
        for (const char* flag : kKnownFlags)
            known = known || name == flag;
        if (!known) {
            std::fprintf(stderr, "pim_sweep: unknown option --%s\n",
                         name.c_str());
            return false;
        }
    }
    return true;
}

SweepSpec
loadSpec(const std::string& spec_arg)
{
    if (spec_arg == "paper")
        return SweepSpec::paperGrid();
    if (spec_arg == "smoke")
        return SweepSpec::smokeGrid();
    if (spec_arg == "clusters")
        return SweepSpec::clustersGrid();
    return SweepSpec::parseFile(spec_arg);
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opts = Options::parse(argc, argv);
    if (opts.getBool("help")) {
        usage();
        return 0;
    }
    if (!flagsAreKnown(argc, argv)) {
        usage();
        return 1;
    }

    try {
        const SweepSpec spec = loadSpec(opts.getString("spec", "paper"));

        SweepOptions options;
        options.jobs = static_cast<unsigned>(opts.getInt(
            "jobs", static_cast<std::int64_t>(ThreadPool::defaultWorkers())));
        options.outDir = opts.getString("out", "");
        options.scale =
            static_cast<std::uint32_t>(opts.getInt("scale", 0));
        options.perfInline = opts.getBool("perf-inline");
        options.timeoutSeconds = opts.getDouble("timeout", 0);
        options.retry.retries =
            static_cast<std::uint32_t>(opts.getInt("retries", 2));
        options.retry.backoffBaseMs =
            static_cast<std::uint32_t>(opts.getInt("retry-base-ms", 100));
        options.resume = opts.getBool("resume");
        options.maxTasks =
            static_cast<std::size_t>(opts.getInt("max-tasks", 0));
        options.checkpointEvery =
            static_cast<std::uint32_t>(opts.getInt("checkpoint-every", 1));
        if (options.resume && options.outDir.empty()) {
            std::fprintf(stderr,
                         "pim_sweep: --resume needs --out=DIR (the "
                         "checkpoint lives there)\n");
            return 1;
        }

        if (opts.getBool("list")) {
            std::size_t index = 0;
            for (const SweepExperiment& experiment : spec.experiments) {
                for (const SweepPoint& point : experiment.expand()) {
                    std::printf("%4zu %-24s %s\n", index++,
                                experiment.id.c_str(),
                                point.toString().c_str());
                }
            }
            std::printf("%zu tasks\n", index);
            return 0;
        }

        std::printf("== sweep %s: %zu tasks on %u workers ==\n",
                    spec.name.c_str(), spec.totalTasks(),
                    options.jobs == 0 ? ThreadPool::defaultWorkers()
                                      : options.jobs);

        const SweepOutcome outcome = runSweep(spec, options);

        for (const SweepExperiment& experiment : spec.experiments)
            std::printf("  %-24s %zu points\n", experiment.id.c_str(),
                        experiment.pointCount());
        if (outcome.resumedRows != 0) {
            std::printf("resumed: %zu rows restored from %s\n",
                        outcome.resumedRows, sweepCheckpointName());
        }
        std::printf("tasks: %zu total, %zu completed, %zu shared, "
                    "%zu failed rows\n",
                    outcome.rows.size(), outcome.completedRows,
                    outcome.sharedRows, outcome.failedRows);
        for (const SweepRow& row : outcome.rows) {
            if (row.done && row.failed) {
                std::printf("  FAILED task %zu (%s): %s: %s\n",
                            row.taskIndex,
                            spec.experiments[row.experiment].id.c_str(),
                            row.faultKind.c_str(), row.message.c_str());
            }
        }
        if (outcome.retriedRows != 0) {
            std::printf("retried: %zu rows needed more than one attempt "
                        "(history in SWEEP.perf.json)\n",
                        outcome.retriedRows);
        }
        if (outcome.complete) {
            std::printf("fingerprint: %016llx\n",
                        static_cast<unsigned long long>(
                            outcome.fingerprint));
        }
        std::printf("throughput: %.1f s wall, %.2f sims/sec, "
                    "speedup vs --jobs=1 (est.): %.2fx on %u workers\n",
                    outcome.wallSeconds,
                    outcome.wallSeconds == 0
                        ? 0.0
                        : static_cast<double>(outcome.rows.size()) /
                              outcome.wallSeconds,
                    outcome.wallSeconds == 0
                        ? 1.0
                        : outcome.taskSecondsSum / outcome.wallSeconds,
                    outcome.jobs);

        if (!writeSweepFiles(spec, outcome, options))
            return 1;
        if (!options.outDir.empty()) {
            if (outcome.complete) {
                std::printf("wrote %s/SWEEP.json (+ perf sidecar, %zu "
                            "BENCH_sweep_*.json)\n",
                            options.outDir.c_str(),
                            spec.experiments.size());
            } else {
                std::printf("partial run (%zu/%zu tasks): checkpoint "
                            "left in %s/%s; finish with --resume\n",
                            outcome.completedRows, outcome.rows.size(),
                            options.outDir.c_str(), sweepCheckpointName());
            }
        }
    } catch (const SimFault& fault) {
        std::fprintf(stderr, "pim_sweep: error: kind=%s exit=%d %s\n",
                     simFaultKindName(fault.kind()),
                     simFaultExitCode(fault.kind()), fault.what());
        return simFaultExitCode(fault.kind());
    }
    return 0;
}
