#include "sim/parallel_core.h"

#include <vector>

#include "common/hash.h"

namespace pim {

namespace {

/** Fold one completed reference into a per-PE fingerprint chain. */
std::uint64_t
fpMix(std::uint64_t h, PeId pe, const ParOp& op, Word data)
{
    h = mix64(h ^ ((static_cast<std::uint64_t>(pe) << 8) |
                   static_cast<std::uint64_t>(op.op)));
    h = mix64(h ^ op.addr);
    h = mix64(h ^ data);
    return h;
}

/** Per-PE driver state. */
struct PeRun {
    ParOp retry;           ///< Lock-rejected operation to reissue.
    bool hasRetry = false;
    bool done = false;     ///< Source exhausted for this PE.
    std::uint64_t fp = 0;  ///< Fingerprint chain.
    std::uint64_t completed = 0;
};

} // namespace

ParallelRunResult
runParallelCore(System& sys, RefSource& src, const ParallelCoreOptions&)
{
    const PeId pes = sys.numPes();
    std::vector<PeRun> pe(pes);

    for (;;) {
        PeId best = kNoPe;
        bool anyLeft = false;
        for (PeId p = 0; p < pes; ++p) {
            if (pe[p].done)
                continue;
            anyLeft = true;
            if (sys.parked(p))
                continue;
            if (best == kNoPe || sys.clock(p) < sys.clock(best))
                best = p;
        }
        if (!anyLeft)
            break;
        if (best == kNoPe) {
            src.onStall();
            sys.throwDeadlock("runParallelCore");
        }
        PeRun& run = pe[best];
        ParOp op;
        if (run.hasRetry) {
            op = run.retry;
        } else if (!src.next(best, &op)) {
            run.done = true;
            continue;
        }
        const System::Access acc =
            sys.access(best, op.op, op.addr, op.area, op.wdata);
        if (acc.lockWait) {
            run.retry = op;
            run.hasRetry = true;
            continue;
        }
        run.hasRetry = false;
        run.fp = fpMix(run.fp, best, op, acc.data);
        run.completed += 1;
        src.complete(best, op, acc.data);
    }

    ParallelRunResult out;
    for (const PeRun& run : pe) {
        out.fingerprint = mix64(out.fingerprint ^ run.fp);
        out.completedRefs += run.completed;
    }
    return out;
}

} // namespace pim
