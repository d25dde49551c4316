/**
 * @file
 * Exhaustive state-space exploration of the conformance harness.
 *
 * Breadth-first search over canonical protocol states: from each
 * reached state, every enabled command is tried; the successor's
 * canonical snapshot (ConformanceHarness::snapshot) merges runs that
 * arrive at the same protocol situation along different schedules, so
 * the search terminates even though the raw interleaving tree is
 * exponential. Every edge executes the harness's full cross-check
 * battery; the first divergence stops the search with the exact command
 * trace that reached it.
 *
 * Successors branch instead of replaying: every edge copies its node's
 * whole lock-stepped state into one scratch harness
 * (ConformanceHarness::copyStateFrom, which leaves the wiring of
 * sinks and listeners alone) and steps the one command. The search
 * holds one harness per depth along the path to the last node built;
 * a popped node re-steps only the part of its trace past the prefix it
 * shares with that node, which in BFS order is usually its last
 * command. A harness carries whole memory and residency pages, so the
 * frontier keeps traces, not harnesses. Visited states are keyed by
 * the exact snapshot, never by a hash of it that could collide.
 */

#ifndef PIMCACHE_MODEL_EXPLORER_H_
#define PIMCACHE_MODEL_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/harness.h"

namespace pim {

/** Exploration parameters. */
struct ExploreConfig {
    HarnessConfig harness;
    std::uint32_t depth = 8;          ///< Maximum trace length.
    std::uint64_t maxStates = 500000; ///< Safety cap on distinct states.
};

/** Outcome of one exploration. */
struct ExploreResult {
    std::uint64_t states = 0; ///< Distinct canonical states reached.
    std::uint64_t edges = 0;  ///< Commands tried from expanded nodes.
    /**
     * Harness steps the search ran, each with the full cross-check
     * battery: one per edge plus one per node rebuilt past the prefix
     * it shares with the node built before it.
     */
    std::uint64_t checks = 0;
    bool truncated = false;   ///< maxStates hit before the depth bound.
    bool divergence = false;
    std::string divergenceMessage;
    std::vector<ProtoCmd> divergenceTrace; ///< Commands reaching it.
};

/** Run the exhaustive search. */
ExploreResult explore(const ExploreConfig& config);

} // namespace pim

#endif // PIMCACHE_MODEL_EXPLORER_H_
