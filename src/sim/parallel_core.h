/**
 * @file
 * The serialized RefSource driver (docs/ARCHITECTURE.md, "Threading
 * model"): the paper's per-PE cache simulators synchronizing at each
 * bus request, as one loop that always steps the non-parked PE with the
 * smallest local clock (ties to the lower PE id), pulls that PE's next
 * operation and retries a lock-rejected operation after its UL wakeup.
 *
 * The pick happens *before* the pull, so sources with one shared RNG
 * (the stress driver) draw in exactly the (clock, pe) order. Hooks
 * attached to the System (observers, sinks, a fault injector) see every
 * access in that same global order.
 */

#ifndef PIMCACHE_SIM_PARALLEL_CORE_H_
#define PIMCACHE_SIM_PARALLEL_CORE_H_

#include <cstdint>

#include "sim/system.h"
#include "trace/ref.h"

namespace pim {

/** One operation pulled from a RefSource. */
struct ParOp {
    MemOp op = MemOp::R;
    Addr addr = 0;
    Area area = Area::Unknown;
    Word wdata = 0;
};

/** Per-PE operation stream consumed by runParallelCore. */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /**
     * Produce @p pe's next operation. Returning false ends @p pe's
     * stream permanently (the core never asks again). A lock-rejected
     * operation is retried by the core without a new pull.
     */
    virtual bool next(PeId pe, ParOp* out) = 0;

    /** @p op completed for @p pe with read data @p data. */
    virtual void
    complete(PeId pe, const ParOp& op, Word data)
    {
        (void)pe; (void)op; (void)data;
    }

    /**
     * Unused by the core; kept only because perfbench/ forwards it.
     * True when per-PE streams do not share generation state.
     */
    virtual bool independent() const { return true; }

    /**
     * Every unfinished PE is parked on a lock: the workload deadlocked.
     * Harnesses with a lock watchdog override this to throw their own
     * diagnosis. If it returns, the core throws SimFault(Deadlock)
     * naming each parked PE and its block (System::throwDeadlock).
     */
    virtual void onStall() {}
};

/** Options for runParallelCore. */
struct ParallelCoreOptions {
    /** Unused: the core is serialized. Kept only for perfbench/. */
    unsigned jobs = 1;
};

/** Outcome of a runParallelCore run. */
struct ParallelRunResult {
    /** Completed references, summed over PEs. */
    std::uint64_t completedRefs = 0;
    /** Always 0: the core has no concurrent path. Kept for perfbench/. */
    std::uint64_t localRefs = 0;
    /** Always 0: the core has no epochs. Kept for perfbench/. */
    std::uint64_t epochs = 0;
    /**
     * Run fingerprint: per-PE splitmix64 chains over (op, addr, data)
     * in program order, folded in PE order.
     */
    std::uint64_t fingerprint = 0;
};

/**
 * Drive @p system with @p source until every PE's stream ends (see the
 * file comment). Throws SimFault(Deadlock) when every unfinished PE is
 * parked and source.onStall() returns.
 */
ParallelRunResult runParallelCore(System& system, RefSource& source,
                                  const ParallelCoreOptions& options);

} // namespace pim

#endif // PIMCACHE_SIM_PARALLEL_CORE_H_
