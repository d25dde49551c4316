/**
 * @file
 * Seed-replay stress harness: randomized multi-PE traffic under an
 * optional fault plan, with the coherence auditor and lock watchdog
 * attached (docs/ROBUSTNESS.md).
 *
 * Exit codes: 0 = run finished with no fault detected; 2 = a fault was
 * detected (auditor or watchdog); 1 = bad usage. With --expect-fault the
 * meaning of 0 and 2 is inverted, so CI can assert both directions.
 *
 * On a detected fault the harness prints a one-line replay command that
 * reproduces the failure deterministically, and (with --trace-out) dumps
 * the completed-reference trace in PIMTRACE format.
 */

#include <cstdio>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "sim/stress.h"

using namespace pim;

namespace {

void
usage()
{
    std::printf(
        "pim_stress: randomized coherence/lock stress with seed replay\n"
        "  --seed=N            RNG seed (default 1)\n"
        "  --pes=N             number of PEs (default 4)\n"
        "  --geometry=BxWxS    cache block words x ways x sets "
        "(default 4x2x64)\n"
        "  --steps=N           references to complete (default 20000)\n"
        "  --span=N            shared region size in words (default 4096)\n"
        "  --write-pct=N       write share of plain refs (default 30)\n"
        "  --lock-pct=N        lock-protocol share (default 10)\n"
        "  --opt-pct=N         DW/ER/RP producer-consumer share "
        "(default 15)\n"
        "  --plan=SPEC         fault plan, e.g. "
        "'corrupt_word:p=0.001,lost_ul:after=50'\n"
        "  --starvation-bound=N  watchdog starvation bound "
        "(default 100000)\n"
        "  --livelock-retries=N  watchdog livelock bound (default 1000)\n"
        "  --trace-out=PATH    dump completed refs on failure (PIMTRACE)\n"
        "  --timeline-out=PATH dump Chrome trace-event timeline (always;\n"
        "                      with --trace-out only, dumped on failure\n"
        "                      as <trace-out>.timeline.json)\n"
        "  --attribution-out=PATH  dump the miss/cycle attribution report\n"
        "                      as JSON (schema `attribution`, always;\n"
        "                      docs/OBSERVABILITY.md)\n"
        "  --no-audit          detach the coherence auditor\n"
        "  --cluster-size=N    PEs per snooping-bus cluster (0 = single\n"
        "                      bus; docs/ARCHITECTURE.md)\n"
        "  --hop-cycles=N      one-way inter-cluster hop cost (default 4)\n"
        "  --timeout=SECS      wall-clock budget; exceeding it is a\n"
        "                      detected Timeout fault (not in replay\n"
        "                      lines: wall-clock, not simulation state)\n"
        "  --expect-fault      exit 0 iff a fault was detected\n"
        "  --seeds=N           batch: run seeds SEED..SEED+N-1 (default 1)\n"
        "  --jobs=N            batch worker threads (default: hardware);\n"
        "                      results are identical for any value\n"
        "  --replay            marker flag printed in replay lines; a\n"
        "                      stress run is a pure function of its flags\n");
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
    // A mistyped flag in a replay line would silently run with a
    // default and reproduce a *different* run, so unlike the shared
    // bench parser this tool rejects unknown options.
    const std::string unknown = opts.unknownOption({
        "seed",       "pes",        "geometry",  "steps",
        "span",       "write-pct",  "lock-pct",  "opt-pct",
        "plan",       "trace-out",  "timeline-out", "attribution-out",
        "no-audit",   "expect-fault",
        "replay",     "help",       "starvation-bound", "livelock-retries",
        "seeds",      "jobs",       "timeout",
        "cluster-size", "hop-cycles",
    });
    if (!unknown.empty()) {
        std::fprintf(stderr, "pim_stress: unknown option --%s\n",
                     unknown.c_str());
        usage();
        return 1;
    }

    StressConfig config;
    StressResult result;
    std::uint32_t seeds = 1;
    unsigned jobs = 0;
    try {
        config.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
        config.numPes =
            static_cast<std::uint32_t>(opts.getInt("pes", 4));
        config.setGeometry(opts.getString("geometry", "4x2x64"));
        config.steps =
            static_cast<std::uint64_t>(opts.getInt("steps", 20000));
        config.spanWords =
            static_cast<std::uint64_t>(opts.getInt("span", 4096));
        config.writePct =
            static_cast<std::uint32_t>(opts.getInt("write-pct", 30));
        config.lockPct =
            static_cast<std::uint32_t>(opts.getInt("lock-pct", 10));
        config.optPct =
            static_cast<std::uint32_t>(opts.getInt("opt-pct", 15));
        config.planSpec = opts.getString("plan", "");
        config.traceOut = opts.getString("trace-out", "");
        config.timelineOut = opts.getString("timeline-out", "");
        config.attributionOut = opts.getString("attribution-out", "");
        config.audit = !opts.getBool("no-audit");
        config.clusterSize =
            static_cast<std::uint32_t>(opts.getInt("cluster-size", 0));
        config.hopCycles =
            static_cast<std::uint32_t>(opts.getInt("hop-cycles", 4));
        config.timeoutSeconds = opts.getDouble("timeout", 0);
        config.watchdog.starvationBound = static_cast<std::uint64_t>(
            opts.getInt("starvation-bound", 100000));
        config.watchdog.livelockRetries = static_cast<std::uint32_t>(
            opts.getInt("livelock-retries", 1000));
        seeds = static_cast<std::uint32_t>(opts.getInt("seeds", 1));
        jobs = static_cast<unsigned>(opts.getInt("jobs", 0));

        if (seeds > 1) {
            // Seed batch through the shared thread pool: per-seed results
            // are identical to running each seed alone (stress.h).
            const std::vector<StressResult> results =
                runStressBatch(config, seeds, jobs);
            std::uint32_t faults = 0;
            for (std::uint32_t i = 0; i < seeds; ++i) {
                const StressResult& r = results[i];
                if (r.failed) {
                    ++faults;
                    std::printf("seed %llu: FAULT (%s) after %llu refs: "
                                "%s\n  replay: %s\n",
                                static_cast<unsigned long long>(
                                    config.seed + i),
                                simFaultKindName(r.kind),
                                static_cast<unsigned long long>(
                                    r.completedRefs),
                                r.message.c_str(), r.replayLine.c_str());
                } else {
                    std::printf("seed %llu: OK, %llu refs, fingerprint "
                                "%016llx\n",
                                static_cast<unsigned long long>(
                                    config.seed + i),
                                static_cast<unsigned long long>(
                                    r.completedRefs),
                                static_cast<unsigned long long>(
                                    r.fingerprint));
                }
            }
            std::printf("batch: %u seeds, %u faults\n", seeds, faults);
            const bool expect_fault = opts.getBool("expect-fault");
            return (faults != 0) == expect_fault ? 0 : 2;
        }

        result = runStress(config);
    } catch (const SimFault& fault) {
        // Detected faults inside runStress are result rows, not throws;
        // anything escaping to here is a usage/config problem, reported
        // one-line structured with its family exit code.
        std::fprintf(stderr, "pim_stress: error: kind=%s exit=%d %s\n",
                     simFaultKindName(fault.kind()),
                     simFaultExitCode(fault.kind()), fault.what());
        return simFaultExitCode(fault.kind());
    }

    if (result.failed) {
        std::printf("FAULT (%s) after %llu completed references:\n  %s\n",
                    simFaultKindName(result.kind),
                    static_cast<unsigned long long>(result.completedRefs),
                    result.message.c_str());
        std::printf("replay: %s\n", result.replayLine.c_str());
        if (result.traceRecords != 0) {
            std::printf("trace: %llu records -> %s\n",
                        static_cast<unsigned long long>(result.traceRecords),
                        config.traceOut.c_str());
        }
    } else {
        std::printf("OK: %llu references, %llu audit checks, "
                    "fingerprint %016llx, makespan %llu cycles\n",
                    static_cast<unsigned long long>(result.completedRefs),
                    static_cast<unsigned long long>(result.auditChecks),
                    static_cast<unsigned long long>(result.fingerprint),
                    static_cast<unsigned long long>(result.makespan));
    }
    if (!result.timelinePath.empty()) {
        std::printf("timeline: %llu events -> %s\n",
                    static_cast<unsigned long long>(result.timelineEvents),
                    result.timelinePath.c_str());
    }
    if (!result.attributionPath.empty()) {
        std::printf("attribution: %llu classified misses -> %s\n",
                    static_cast<unsigned long long>(result.classifiedMisses),
                    result.attributionPath.c_str());
    }
    if (!result.injectorSummary.empty())
        std::printf("faults injected: %s\n", result.injectorSummary.c_str());

    const bool expect_fault = opts.getBool("expect-fault");
    if (result.failed == expect_fault)
        return 0;
    return 2;
}
