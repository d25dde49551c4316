#include "verify/invariants.h"

#include <sstream>

#include "cache/state.h"
#include "common/sim_fault.h"
#include "sim/system.h"

namespace pim {

namespace {

Addr
blockBaseOf(const System& system, Addr addr)
{
    const std::uint32_t words = system.config().cache.geometry.blockWords;
    return addr - addr % words;
}

} // namespace

std::string
describeBlockState(const System& system, Addr block_base)
{
    const std::uint32_t words = system.config().cache.geometry.blockWords;
    std::ostringstream out;
    out << "block " << block_base << " [";
    for (PeId pe = 0; pe < system.numPes(); ++pe) {
        if (pe != 0)
            out << " ";
        out << "pe" << pe << "="
            << cacheStateName(system.cache(pe).stateOf(block_base));
    }
    out << "] memory:";
    for (std::uint32_t w = 0; w < words; ++w)
        out << " " << system.memory().read(block_base + w);
    if (system.bus().purgedDirtyMarked(block_base))
        out << " (purge-marked)";
    return out.str();
}

void
checkBlockInvariants(const System& system, Addr block_base,
                     const CheckContext& context)
{
    const std::uint32_t words = system.config().cache.geometry.blockWords;
    block_base = blockBaseOf(system, block_base);

    std::uint32_t copies = 0;
    std::uint32_t dirty_copies = 0;
    std::uint32_t exclusive_copies = 0;
    PeId reference_pe = kNoPe; ///< A dirty holder if any, else any holder.
    for (PeId pe = 0; pe < system.numPes(); ++pe) {
        const CacheState state = system.cache(pe).stateOf(block_base);
        if (state == CacheState::INV)
            continue;
        copies += 1;
        if (cacheStateDirty(state)) {
            dirty_copies += 1;
            reference_pe = pe;
        } else if (reference_pe == kNoPe) {
            reference_pe = pe;
        }
        if (cacheStateExclusive(state))
            exclusive_copies += 1;
    }

    if (dirty_copies > 1) {
        throw PIM_SIM_FAULT(SimFaultKind::Protocol, context, ": ",
                            dirty_copies,
                            " caches hold the block dirty (EM/SM); at most "
                            "one writer may exist; ",
                            describeBlockState(system, block_base));
    }
    if (exclusive_copies > 0 && copies > 1) {
        throw PIM_SIM_FAULT(SimFaultKind::Protocol, context,
                            ": an exclusive (EM/EC) copy coexists with ",
                            copies - 1, " other cop",
                            copies - 1 == 1 ? "y" : "ies", "; ",
                            describeBlockState(system, block_base));
    }

    if (copies > 0) {
        // All copies agree word-for-word; a dirty copy, if any, is truth.
        for (std::uint32_t w = 0; w < words; ++w) {
            const Addr addr = block_base + w;
            const Word truth = system.cache(reference_pe).loadValue(addr);
            for (PeId pe = 0; pe < system.numPes(); ++pe) {
                if (pe == reference_pe ||
                    system.cache(pe).stateOf(block_base) ==
                        CacheState::INV) {
                    continue;
                }
                const Word copy = system.cache(pe).loadValue(addr);
                if (copy != truth) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, context,
                        ": copies of word ", addr, " disagree (pe",
                        reference_pe, " has ", truth, ", pe", pe, " has ",
                        copy, "); ", describeBlockState(system, block_base));
                }
            }
            // With no dirty copy, memory must match (unless purge-marked).
            if (dirty_copies == 0 &&
                !system.bus().purgedDirtyMarked(block_base)) {
                const Word mem = system.memory().read(addr);
                if (mem != truth) {
                    throw PIM_SIM_FAULT(
                        SimFaultKind::Protocol, context,
                        ": clean copy of word ", addr, " (", truth,
                        ") differs from shared memory (", mem,
                        ") with no dirty copy to account for it; ",
                        describeBlockState(system, block_base));
                }
            }
        }
    }

    // Invariant 5: a held lock on any word of the block implies no other
    // cache has a valid copy. LR gains exclusiveness (I or FI with LK
    // riding along) and the LH response inhibits every remote F/FI until
    // the UL broadcast, so no copy can appear elsewhere while locked.
    for (PeId holder = 0; holder < system.numPes(); ++holder) {
        if (!system.cache(holder).lockDirectory().holdsInBlock(block_base,
                                                               words)) {
            continue;
        }
        for (PeId pe = 0; pe < system.numPes(); ++pe) {
            if (pe == holder)
                continue;
            if (system.cache(pe).stateOf(block_base) != CacheState::INV) {
                throw PIM_SIM_FAULT(
                    SimFaultKind::Protocol, context, ": pe", holder,
                    " holds a lock on a word of the block but pe", pe,
                    " has a valid copy; lock acquisition must gain "
                    "exclusiveness and LH must inhibit remote fetches; ",
                    describeBlockState(system, block_base));
            }
        }
    }
}

Cycles
busPatternCost(BusPattern pattern, const BusTiming& timing)
{
    switch (pattern) {
      case BusPattern::MemFetch:       return timing.swapInCycles(false);
      case BusPattern::MemFetchVictim: return timing.swapInCycles(true);
      case BusPattern::C2C:            return timing.cacheToCacheCycles(false);
      case BusPattern::C2CVictim:      return timing.cacheToCacheCycles(true);
      case BusPattern::SwapOutOnly:    return timing.swapOutOnlyCycles();
      case BusPattern::Invalidate:     return timing.invalidateCycles();
      case BusPattern::Unlock:         return timing.unlockCycles();
      case BusPattern::LockReject:     return timing.lockRejectCycles();
      case BusPattern::WordWrite:      return timing.wordWriteCycles();
      case BusPattern::WordUpdate:     return timing.wordUpdateCycles();
    }
    return 0;
}

void
checkBusAccounting(const BusStats& before, const BusStats& after,
                   const BusTiming& timing, const CheckContext& context)
{
    Cycles pattern_sum = 0;
    for (int i = 0; i < kNumBusPatterns; ++i) {
        const auto pattern = static_cast<BusPattern>(i);
        const Cycles d_cycles =
            after.cyclesByPattern[i] - before.cyclesByPattern[i];
        const std::uint64_t d_trans =
            after.transByPattern[i] - before.transByPattern[i];
        const Cycles expected = d_trans * busPatternCost(pattern, timing);
        if (d_cycles != expected) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Protocol, context, ": bus pattern ",
                busPatternName(pattern), " charged ", d_cycles,
                " cycles over ", d_trans, " transaction",
                d_trans == 1 ? "" : "s", " but the pattern costs ",
                busPatternCost(pattern, timing),
                " cycles each (expected ", expected, ")");
        }
        pattern_sum += d_cycles;
    }
    const Cycles d_total = after.totalCycles - before.totalCycles;
    const Cycles d_inter =
        after.interClusterCycles - before.interClusterCycles;
    if (d_total != pattern_sum + d_inter) {
        throw PIM_SIM_FAULT(
            SimFaultKind::Protocol, context, ": total bus cycle delta ",
            d_total, " does not equal the per-pattern sum ", pattern_sum,
            " plus the inter-cluster hop delta ", d_inter);
    }
}

} // namespace pim
