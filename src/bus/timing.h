/**
 * @file
 * Common-bus timing model (paper Section 4.2).
 *
 * The bus is @c widthWords wide, carries tag+data, cannot send address and
 * data in the same cycle, and is held until one memory operation completes.
 * Shared memory takes @c memAccessCycles to access, but the *latency* of a
 * swap-out write at the memory module is hidden by the next operation;
 * only the victim's address+data transfer costs bus cycles, and that
 * transfer itself hides under the memory-access wait of a swap-in.
 *
 * With the paper's defaults (one-word bus, 8-cycle memory, 4-word blocks)
 * the six access patterns cost exactly the paper's numbers:
 * 13 (swap-in with or without swap-out), 7 (cache-to-cache), 10
 * (cache-to-cache with swap-out), 5 (swap-out only, DW), 2 (invalidate).
 */

#ifndef PIMCACHE_BUS_TIMING_H_
#define PIMCACHE_BUS_TIMING_H_

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "common/xassert.h"

namespace pim {

/** Bus/memory timing parameters. */
struct BusTiming {
    std::uint32_t widthWords = 1;      ///< Bus width in words.
    std::uint32_t memAccessCycles = 8; ///< Shared-memory access time.
    std::uint32_t blockWords = 4;      ///< Cache block size in words.

    /** Cycles to move one block over the bus. */
    std::uint32_t
    blockTransferCycles() const
    {
        PIM_ASSERT(widthWords >= 1 && blockWords >= 1);
        return (blockWords + widthWords - 1) / widthWords;
    }

    /** Victim address + data transfer cycles. */
    std::uint32_t
    victimTransferCycles() const
    {
        return 1 + blockTransferCycles();
    }

    /**
     * Swap-in from shared memory; the victim transfer (if any) hides
     * under the memory-access wait.
     */
    Cycles
    swapInCycles(bool dirty_victim) const
    {
        const std::uint32_t wait =
            std::max(memAccessCycles,
                     dirty_victim ? victimTransferCycles() : 0u);
        return 1 + wait + blockTransferCycles();
    }

    /**
     * Cache-to-cache transfer; the snoop/response window (2 cycles) can
     * hide the start of a victim transfer but not all of it.
     */
    Cycles
    cacheToCacheCycles(bool dirty_victim) const
    {
        Cycles cycles = 1 + 2 + blockTransferCycles();
        if (dirty_victim) {
            const std::uint32_t victim = victimTransferCycles();
            cycles += victim > 2 ? victim - 2 : 0;
        }
        return cycles;
    }

    /** Swap-out only (appears only in DW block allocation). */
    Cycles
    swapOutOnlyCycles() const
    {
        return victimTransferCycles();
    }

    /** Invalidation of other PEs' blocks (bus command I). */
    Cycles invalidateCycles() const { return 2; }

    /** Unlock broadcast (bus command UL). */
    Cycles unlockCycles() const { return 2; }

    /** A fetch attempt rejected by a lock-hit (LH) response. */
    Cycles lockRejectCycles() const { return 2; }

    /** One word written through to memory (write-through baseline):
     *  address + data on the bus; memory write latency hidden. */
    Cycles
    wordWriteCycles() const
    {
        return 1 + (1 + widthWords - 1) / widthWords;
    }

    /** A Dragon word-update broadcast: address + one data beat on the
     *  wire, same as a word write; snarfing caches absorb it in place
     *  and no memory operation is started. */
    Cycles
    wordUpdateCycles() const
    {
        return 1 + (1 + widthWords - 1) / widthWords;
    }

    bool operator==(const BusTiming&) const = default;
};

/** Bus transaction categories, for accounting. */
enum class BusPattern : std::uint8_t {
    MemFetch = 0,       ///< Swap-in from memory, clean victim.
    MemFetchVictim = 1, ///< Swap-in from memory, dirty victim.
    C2C = 2,            ///< Cache-to-cache, clean victim.
    C2CVictim = 3,      ///< Cache-to-cache, dirty victim.
    SwapOutOnly = 4,    ///< DW allocation displacing a dirty victim.
    Invalidate = 5,     ///< I command.
    Unlock = 6,         ///< UL broadcast.
    LockReject = 7,     ///< Attempt answered by LH.
    WordWrite = 8,      ///< Write-through word write (baseline only).
    WordUpdate = 9,     ///< Dragon shared-write word broadcast.
};

inline constexpr int kNumBusPatterns = 10;

/** Human-readable pattern name. */
inline const char*
busPatternName(BusPattern pattern)
{
    switch (pattern) {
      case BusPattern::MemFetch:       return "mem-fetch";
      case BusPattern::MemFetchVictim: return "mem-fetch+swapout";
      case BusPattern::C2C:            return "c2c";
      case BusPattern::C2CVictim:      return "c2c+swapout";
      case BusPattern::SwapOutOnly:    return "swapout-only";
      case BusPattern::Invalidate:     return "invalidate";
      case BusPattern::Unlock:         return "unlock";
      case BusPattern::LockReject:     return "lock-reject";
      case BusPattern::WordWrite:      return "word-write";
      case BusPattern::WordUpdate:     return "word-update";
    }
    return "?";
}

/** Bus command kinds, counted for the RI-effectiveness statistic. */
enum class BusCmd : std::uint8_t {
    F = 0,  ///< Fetch.
    FI = 1, ///< Fetch and invalidate.
    I = 2,  ///< Invalidate.
    LK = 3, ///< Lock broadcast (rides with FI or I).
    UL = 4, ///< Unlock broadcast.
};

inline constexpr int kNumBusCmds = 5;

/** Mnemonic as used in the paper. */
inline const char*
busCmdName(BusCmd cmd)
{
    switch (cmd) {
      case BusCmd::F:  return "F";
      case BusCmd::FI: return "FI";
      case BusCmd::I:  return "I";
      case BusCmd::LK: return "LK";
      case BusCmd::UL: return "UL";
    }
    return "?";
}

} // namespace pim

#endif // PIMCACHE_BUS_TIMING_H_
