/**
 * @file
 * Deterministic per-PE workload for runParallelCore.
 *
 * Each PE owns an independent xoshiro256** stream (seeded per PE), a
 * private working set sized to fit its cache, and a probability of
 * touching the shared region or the lock words. Used by pim_perf with
 * sharedPct 100 (every reference contends on the bus: the snoop-filter
 * measurement) and by the parallel-core tests.
 */

#ifndef PIMCACHE_SIM_PAR_WORKLOAD_H_
#define PIMCACHE_SIM_PAR_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/parallel_core.h"

namespace pim {

/** Shape of the per-PE parallel workload. */
struct ParShape {
    /** References generated per PE (lock releases may add a tail). */
    std::uint64_t stepsPerPe = 4096;
    /** Shared region size in words (contended R/W + RI). */
    std::uint32_t sharedWords = 4096;
    /** Per-PE private region size in words (sized to fit the cache). */
    std::uint32_t privateWords = 2048;
    /** Lock words (their own blocks, separate from data regions). */
    std::uint32_t lockWords = 8;
    /** Percent of references into the shared region. */
    std::uint32_t sharedPct = 2;
    /** Percent of data references that write. */
    std::uint32_t writePct = 30;
    /** Percent chance to acquire a lock when holding none. */
    std::uint32_t lockPct = 0;
    /** Percent of private references using DW/DWD/ER/RP. */
    std::uint32_t optPct = 0;
    /** Workload seed (per-PE streams derive from it). */
    std::uint64_t seed = 1;
};

/**
 * RefSource over independent per-PE streams (see file comment).
 *
 * Deadlock-free by construction: a PE acquires a lock only while
 * holding none, so a parked PE never blocks another, and a PE whose
 * stream ends releases its held lock before reporting exhaustion.
 */
class ParWorkloadSource : public RefSource
{
  public:
    ParWorkloadSource(const ParShape& shape, PeId pes,
                      std::uint32_t block_words);

    /** Words of shared memory the workload's address map requires. */
    std::uint64_t memoryWords() const;

    bool next(PeId pe, ParOp* out) override;
    void complete(PeId pe, const ParOp& op, Word data) override;

  private:
    struct PeState {
        Rng rng{0};
        std::uint64_t issued = 0;
        Addr held = kNoAddr; ///< Lock word this PE holds (kNoAddr: none).
    };

    Addr privateBase(PeId pe) const;

    ParShape shape_;
    std::uint32_t blockWords_;
    Addr lockBase_ = 0;
    Addr privBase_ = 0;
    std::vector<PeState> pes_;
};

} // namespace pim

#endif // PIMCACHE_SIM_PAR_WORKLOAD_H_
