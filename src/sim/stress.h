/**
 * @file
 * Randomized multi-PE stress harness with seed-replay reproduction.
 *
 * Drives a System with synthetic traffic — shared reads/writes, busy-wait
 * lock sequences, and producer/consumer DW/ER/RP record flows — under an
 * optional FaultPlan, with the CoherenceAuditor and LockWatchdog
 * attached. Every random decision comes from one seeded Rng drawn in
 * global simulation order, so a run is a pure function of its
 * StressConfig: any detected fault reproduces from the one-line replay
 * (`pim_stress --replay --seed=S --plan=... --pes=N --geometry=BxWxS ...`)
 * the harness prints on failure.
 */

#ifndef PIMCACHE_SIM_STRESS_H_
#define PIMCACHE_SIM_STRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/sim_fault.h"
#include "trace/ref.h"
#include "verify/lock_watchdog.h"

namespace pim {

/** Full parameterization of one stress run (the replay line's content). */
struct StressConfig {
    std::uint64_t seed = 1;
    std::uint32_t numPes = 4;
    std::uint32_t blockWords = 4; ///< Geometry "BxWxS": block words, ...
    std::uint32_t ways = 2;       ///< ... associativity, ...
    std::uint32_t sets = 64;      ///< ... sets.
    std::uint64_t steps = 20000;  ///< References to complete.
    std::uint64_t spanWords = 4096; ///< Shared read/write region size.
    std::uint32_t writePct = 30; ///< Writes among plain references.
    std::uint32_t lockPct = 10;  ///< Lock-protocol share of references.
    std::uint32_t optPct = 15;   ///< DW/ER/RP producer-consumer share.
    std::string planSpec;        ///< FaultPlan::parse spec ("" = none).
    std::string traceOut;        ///< Trace dump path on failure ("" = off).
    /**
     * Timeline dump path (docs/OBSERVABILITY.md). When set, the Chrome
     * trace-event timeline of the run is written here — always, not only
     * on failure. When unset but traceOut is set, a failing run still
     * dumps its timeline next to the PIMTRACE as
     * "<traceOut>.timeline.json". Does not affect the simulation, so it
     * is not part of the replay line.
     */
    std::string timelineOut;
    /**
     * Attribution dump path (docs/OBSERVABILITY.md). When set, the
     * miss/cycle attribution report of the run is written here as JSON
     * (schema `attribution`) — always, not only on failure. The engine
     * itself rides along on every run regardless (its bucket-sum
     * cross-check is always-on); like timelineOut this never affects
     * the simulation, so it is not part of the replay line.
     */
    std::string attributionOut;
    bool audit = true;           ///< Attach the CoherenceAuditor.
    /**
     * Clustered bus topology (docs/ARCHITECTURE.md): PEs per cluster
     * (0 = single bus) and the interconnect hop cost. Timing-only, but
     * part of the replay line: cluster timing changes arbitration order
     * visible through makespans and the fingerprint.
     */
    std::uint32_t clusterSize = 0;
    std::uint32_t hopCycles = 4;
    /**
     * Wall-clock budget in seconds (0 = unlimited). A run that exceeds
     * it fails with SimFault(Timeout) via the RunGuard polled in
     * System::access — bounded execution instead of a wedged worker.
     * Wall-clock, so not part of the replay line: replaying a timed-out
     * run without the budget reproduces the full simulation.
     */
    double timeoutSeconds = 0;
    /** Optional cooperative cancel (not owned; may be tripped remotely). */
    const CancelToken* cancel = nullptr;
    WatchdogConfig watchdog;

    /** Geometry as "BxWxS" (e.g. "4x2x64"). */
    std::string geometryString() const;

    /** Parse "BxWxS" into blockWords/ways/sets. @throws SimFault. */
    void setGeometry(const std::string& spec);

    /** The `pim_stress` flags reproducing this exact run. */
    std::string replayLine() const;
};

/** Outcome of one stress run. */
struct StressResult {
    bool failed = false;            ///< A SimFault was detected.
    SimFaultKind kind = SimFaultKind::Config; ///< Valid when failed.
    std::string message;            ///< Fault message when failed.
    std::string replayLine;         ///< Reproduction flags when failed.
    std::uint64_t completedRefs = 0;
    std::uint64_t auditChecks = 0;  ///< Auditor invariant checks run.
    std::uint64_t fingerprint = 0;  ///< Hash of every completed access.
    Cycles makespan = 0;
    std::string injectorSummary;    ///< Per-site fires/opportunities.
    std::uint64_t injectorFires = 0; ///< Faults actually injected.
    std::uint64_t traceRecords = 0; ///< Records dumped (failure + traceOut).
    std::uint64_t timelineEvents = 0; ///< Timeline events recorded.
    std::string timelinePath;       ///< Where the timeline landed ("").
    std::uint64_t classifiedMisses = 0; ///< Misses the attribution saw.
    std::string attributionPath;    ///< Where the attribution landed ("").
};

/**
 * Run the stress workload described by @p config. Detected faults are
 * caught and reported in the result (the process stays alive); on
 * failure with config.traceOut set, the completed-reference trace is
 * dumped in PIMTRACE format.
 */
StressResult runStress(const StressConfig& config);

/**
 * Run @p count independent stress runs — seeds base.seed ..
 * base.seed+count-1 — fanned out over @p jobs ThreadPool workers
 * (0 = hardware). Each run owns its whole simulation stack, so results
 * are the same as running the seeds one by one: the returned vector is
 * in seed order and every entry's replay line reproduces that run
 * alone. Per-run traceOut/timelineOut paths get a ".seed<N>" suffix so
 * parallel runs never write the same file.
 */
std::vector<StressResult> runStressBatch(const StressConfig& base,
                                         std::uint32_t count,
                                         unsigned jobs);

} // namespace pim

#endif // PIMCACHE_SIM_STRESS_H_
