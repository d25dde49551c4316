#include "verify/coherence_auditor.h"

#include <set>

#include "cache/state.h"
#include "common/sim_fault.h"

namespace pim {

CoherenceAuditor::CoherenceAuditor(System& system)
    : system_(system),
      blockWords_(system.config().cache.geometry.blockWords)
{
}

Addr
CoherenceAuditor::blockBaseOf(Addr addr) const
{
    return addr - addr % blockWords_;
}

std::string
CoherenceAuditor::describeBlock(Addr block_base) const
{
    return describeBlockState(system_, block_base);
}

void
CoherenceAuditor::beforeAccess(PeId pe, MemOp op, Addr addr, Area area)
{
    (void)area;
    // Predict whether a DW/DWD will take the allocate-without-fetch path
    // (boundary word, block absent): that path zero-fills the block, so
    // the shadow must forget stale values for its other words.
    pendingFreshAlloc_ = false;
    if ((op == MemOp::DW || op == MemOp::DWD) &&
        !system_.config().cache.writeThrough) {
        const Addr base = blockBaseOf(addr);
        const bool boundary = op == MemOp::DWD
                                  ? addr == base + blockWords_ - 1
                                  : addr == base;
        pendingFreshAlloc_ = boundary && !system_.cache(pe).present(addr);
    }
}

void
CoherenceAuditor::checkReadValue(PeId pe, MemOp op, Addr addr, Word data)
{
    const auto it = shadow_.find(addr);
    if (it == shadow_.end())
        return;
    if (data != it->second) {
        throw PIM_SIM_FAULT(
            SimFaultKind::Corruption, "pe", pe, " ", memOpName(op),
            " at address ", addr, " read ", data,
            " but the last value written there was ", it->second, "; ",
            describeBlock(blockBaseOf(addr)));
    }
}

void
CoherenceAuditor::afterAccess(PeId pe, MemOp op, Addr addr, Area area,
                              Word data, Word wdata, bool lock_wait)
{
    (void)area;
    if (lock_wait)
        return;

    const Addr base = blockBaseOf(addr);
    if (memOpWrites(op)) {
        if (pendingFreshAlloc_) {
            for (std::uint32_t w = 0; w < blockWords_; ++w)
                shadow_[base + w] = 0;
        }
        shadow_[addr] = wdata;
    } else if (memOpReads(op)) {
        checkReadValue(pe, op, addr, data);
        if (op == MemOp::ER || op == MemOp::RP) {
            // The purge contract deliberately leaves shared memory stale
            // for single-use data; stop tracking the block rather than
            // flagging reuse-after-purge (Bus::staleFetches counts that).
            for (std::uint32_t w = 0; w < blockWords_; ++w)
                shadow_.erase(base + w);
        }
    }

    const auto describe_access = [&] {
        return formatMsg("after pe", pe, " ", memOpName(op),
                         " at address ", addr);
    };
    auditBlock(base, describe_access);
}

void
CoherenceAuditor::auditBlock(Addr block_base, const CheckContext& context)
{
    checksRun_ += 1;
    // The invariant logic itself is shared with the offline conformance
    // engine (src/model) — see verify/invariants.h.
    checkBlockInvariants(system_, block_base, context);
}

void
CoherenceAuditor::auditFull()
{
    // Per-block invariants for every block the shadow knows about (every
    // written word; read-only blocks were checked per-access).
    std::set<Addr> bases;
    for (const auto& entry : shadow_)
        bases.insert(blockBaseOf(entry.first));
    for (Addr base : bases)
        auditBlock(base, "full audit");

    // Shadow sweep: the coherent value of every tracked word must equal
    // the last value written.
    for (const auto& entry : shadow_) {
        const Addr addr = entry.first;
        const Addr base = blockBaseOf(addr);
        Word value = 0;
        bool found = false;
        for (PeId pe = 0; pe < system_.numPes(); ++pe) {
            if (system_.cache(pe).stateOf(base) != CacheState::INV) {
                value = system_.cache(pe).loadValue(addr);
                found = true;
                break;
            }
        }
        if (!found)
            value = system_.memory().read(addr);
        if (value != entry.second) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Corruption, "full audit: word ", addr,
                " holds ", value, " but the last value written there was ",
                entry.second, "; ", describeBlock(base));
        }
    }
}

} // namespace pim
