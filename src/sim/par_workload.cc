#include "sim/par_workload.h"

#include "common/hash.h"
#include "common/xassert.h"

namespace pim {

namespace {

/** Round @p v up to a multiple of @p align (a power of two). */
Addr
roundUp(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

} // namespace

ParWorkloadSource::ParWorkloadSource(const ParShape& shape, PeId pes,
                                     std::uint32_t block_words)
    : shape_(shape), blockWords_(block_words), pes_(pes)
{
    PIM_ASSERT(pes >= 1);
    PIM_ASSERT(shape_.sharedWords >= 1 && shape_.privateWords >= 1);
    PIM_ASSERT(shape_.privateWords % block_words == 0,
               "private region must be block-aligned");
    PIM_ASSERT(shape_.lockWords >= 1 || shape_.lockPct == 0);
    // Region boundaries on 64-word alignment so no block straddles two
    // regions for any supported geometry (blockWords <= 64).
    lockBase_ = roundUp(shape_.sharedWords, 64);
    privBase_ = roundUp(lockBase_ + shape_.lockWords, 64);
    for (PeId pe = 0; pe < pes; ++pe)
        pes_[pe].rng = Rng(mix64(shape_.seed) ^ mix64(pe + 1));
}

std::uint64_t
ParWorkloadSource::memoryWords() const
{
    const Addr top =
        privBase_ +
        static_cast<Addr>(pes_.size()) * shape_.privateWords;
    return roundUp(top, 64);
}

Addr
ParWorkloadSource::privateBase(PeId pe) const
{
    return privBase_ + static_cast<Addr>(pe) * shape_.privateWords;
}

bool
ParWorkloadSource::next(PeId pe, ParOp* out)
{
    PeState& st = pes_[pe];
    if (st.issued >= shape_.stepsPerPe) {
        // Drain: release a held lock before ending the stream, so no
        // waiter is left parked forever.
        if (st.held == kNoAddr)
            return false;
        out->op = MemOp::U;
        out->addr = st.held;
        out->area = Area::Heap;
        out->wdata = 0;
        return true;
    }
    st.issued += 1;
    Rng& g = st.rng;

    if (st.held != kNoAddr) {
        // Hold locks for a few references, then release (UW writes the
        // guarded word on the way out half the time).
        if (g.chance(1, 4)) {
            out->op = g.chance(1, 2) ? MemOp::UW : MemOp::U;
            out->addr = st.held;
            out->area = Area::Heap;
            out->wdata = g.next();
            return true;
        }
    } else if (shape_.lockPct != 0 && g.chance(shape_.lockPct, 100)) {
        out->op = MemOp::LR;
        out->addr = lockBase_ + g.below(shape_.lockWords);
        out->area = Area::Heap;
        out->wdata = 0;
        return true;
    }

    if (g.chance(shape_.sharedPct, 100)) {
        // Shared-region reference: the contended traffic that becomes
        // the run's bus transactions (plus an occasional RI taking
        // exclusive ownership, the paper's communication-area command).
        out->addr = g.below(shape_.sharedWords);
        out->area = Area::Comm;
        if (shape_.optPct != 0 && g.chance(shape_.optPct, 100)) {
            out->op = MemOp::RI;
        } else {
            out->op = g.chance(shape_.writePct, 100) ? MemOp::W
                                                     : MemOp::R;
        }
        out->wdata = memOpWrites(out->op) ? g.next() : 0;
        return true;
    }

    // Private reference (hits once warm).
    const Addr base = privateBase(pe);
    const Addr addr = base + g.below(shape_.privateWords);
    if (shape_.optPct != 0 && g.chance(shape_.optPct, 100)) {
        switch (g.below(4)) {
          case 0: // DW at a block's first word (heap allocation)
            out->op = MemOp::DW;
            out->addr = addr - addr % blockWords_;
            out->area = Area::Heap;
            break;
          case 1: // DWD at a block's last word (downward stack)
            out->op = MemOp::DWD;
            out->addr = addr - addr % blockWords_ + blockWords_ - 1;
            out->area = Area::Heap;
            break;
          case 2: // ER (goal-area consume)
            out->op = MemOp::ER;
            out->addr = addr;
            out->area = Area::Goal;
            break;
          default: // RP (goal-area read-purge)
            out->op = MemOp::RP;
            out->addr = addr;
            out->area = Area::Goal;
            break;
        }
        out->wdata = memOpWrites(out->op) ? g.next() : 0;
        return true;
    }
    out->op = g.chance(shape_.writePct, 100) ? MemOp::W : MemOp::R;
    out->addr = addr;
    out->area = Area::Heap;
    out->wdata = memOpWrites(out->op) ? g.next() : 0;
    return true;
}

void
ParWorkloadSource::complete(PeId pe, const ParOp& op, Word data)
{
    (void)data;
    PeState& st = pes_[pe];
    if (op.op == MemOp::LR) {
        PIM_ASSERT(st.held == kNoAddr);
        st.held = op.addr;
    } else if (op.op == MemOp::UW || op.op == MemOp::U) {
        PIM_ASSERT(st.held == op.addr);
        st.held = kNoAddr;
    }
}

} // namespace pim
