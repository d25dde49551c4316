/**
 * @file
 * The PIM cache controller (paper Sections 3.1-3.3).
 *
 * A copy-back, write-allocate, invalidation-based snooping cache with the
 * five states EM / EC / SM / S / INV, the software-controlled commands
 * DW / ER / RP / RI, and a separate word-granularity lock directory
 * implementing LR / UW / U busy-wait locks.
 *
 * The cache stores real data words: processor reads return the value the
 * coherent memory system currently holds, so the KL1 emulator literally
 * computes through this cache and a protocol bug breaks program results.
 */

#ifndef PIMCACHE_CACHE_PIM_CACHE_H_
#define PIMCACHE_CACHE_PIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "bus/bus.h"
#include "cache/cache_stats.h"
#include "cache/config.h"
#include "cache/lock_directory.h"
#include "cache/mutation.h"
#include "cache/protocol.h"
#include "cache/replacement.h"
#include "cache/state.h"
#include "common/types.h"
#include "trace/ref.h"

namespace pim {

/** One PE's cache controller + lock directory. */
class PimCache : public BusSnooper
{
  public:
    /** Outcome of one processor-side memory operation. */
    struct AccessResult {
        Cycles doneAt = 0;   ///< Local time when the operation completes.
        bool lockWait = false; ///< Inhibited by LH; retry after UL.
        Addr waitAddr = 0;   ///< Block address to park on when lockWait.
        Word data = 0;       ///< Value read (for reading operations).
    };

    PimCache(PeId pe, const CacheConfig& config, Bus& bus);

    PimCache(const PimCache&) = delete;
    PimCache& operator=(const PimCache&) = delete;

    /**
     * Execute one memory operation at local time @p now.
     * @param ref Operation, address and area (ref.pe must equal this PE).
     * @param wdata Data for writing operations (W, UW, DW).
     */
    AccessResult access(const MemRef& ref, Word wdata, Cycles now);

    /**
     * Write back every dirty block and invalidate the whole cache without
     * charging bus cycles. Used around stop-and-copy GC, whose references
     * the paper's measurements exclude.
     */
    void flushAll();

    // -- Introspection (tests, checkers) ----------------------------------

    /** State of the block containing @p addr (INV when absent). */
    CacheState stateOf(Addr addr) const;

    /** True if the block containing @p addr is valid in this cache. */
    bool present(Addr addr) const;

    /** Read a word from the cache if present, else from shared memory. */
    Word loadValue(Addr addr) const;

    /**
     * Attach a fault injector (nullptr to detach). The cache consults it
     * at BitFlipFill and ForcedMiss; the lock directory at LostUnlock and
     * StuckLwait.
     */
    void
    setFaultInjector(FaultInjector* injector)
    {
        injector_ = injector;
        locks_.setFaultInjector(injector);
    }

    /**
     * Attach an observability sink (nullptr to detach), shared with the
     * lock directory. Reports block state transitions, fills (with the
     * cache-to-cache vs memory distinction), swap-outs and purges.
     */
    void
    setEventSink(EventSink* sink)
    {
        sink_ = sink;
        locks_.setEventSink(sink);
    }

    /**
     * Arm one seeded protocol bug (conformance tests only; see
     * cache/mutation.h). ProtocolMutation::None restores the faithful
     * protocol.
     */
    void
    setProtocolMutation(ProtocolMutation mutation)
    {
        mutation_ = mutation;
    }

    /**
     * Make this cache's mutable state equal @p other's: blocks, data,
     * LRU tick, replacement RNG, statistics and the lock directory. The
     * bus, sink, injector and armed mutation stay as wired. Both caches
     * must serve the same PE with the same configuration (asserted).
     */
    void copyStateFrom(const PimCache& other);

    /**
     * Append a canonical description of this cache's protocol state to
     * @p out: every valid block with base in [@p lo, @p hi) in address
     * order (base, state, LRU rank within its set, data words), then the
     * lock directory. Local clocks and absolute LRU ticks are excluded
     * so that runs reaching the same protocol state hash equal — the
     * state-space explorer's canonicalization (src/model).
     */
    void snapshotState(Addr lo, Addr hi,
                       std::vector<std::uint64_t>& out) const;

    LockDirectory& lockDirectory() { return locks_; }
    const LockDirectory& lockDirectory() const { return locks_; }
    CacheStats& stats() { return stats_; }
    const CacheStats& stats() const { return stats_; }
    const CacheConfig& config() const { return config_; }
    PeId pe() const { return pe_; }

    // -- BusSnooper interface ---------------------------------------------
    FetchReply snoopFetch(Addr block_addr, bool invalidate, Word* data_out,
                          Cycles when) override;
    bool snoopInvalidate(Addr block_addr, Cycles when) override;
    bool snoopUpdate(Addr word_addr, Word value, Cycles when) override;

  private:
    struct Block {
        Addr base = kNoAddr;
        CacheState state = CacheState::INV;
        std::uint64_t lru = 0;
    };

    /** Outcome of a block fetch over the bus. */
    struct FetchOutcome {
        bool lockWait = false;
        bool supplied = false;
        bool supplierDirty = false;
        Block* block = nullptr; ///< Installed block (when installing).
        Cycles doneAt = 0;
    };

    std::uint32_t setIndexOf(Addr block_base) const;
    Addr blockBaseOf(Addr addr) const;
    Block* findBlock(Addr block_base);
    const Block* findBlock(Addr block_base) const;
    Word* blockData(const Block& block);
    const Word* blockData(const Block& block) const;
    void touchLru(Block& block);

    /** Recency update on a hit: a no-op under FIFO (install-order only),
     *  a touchLru under every other policy. */
    void touchOnHit(Block& block);

    /** Pick the victim way in @p set (an INV way if any, else LRU). */
    Block& victimIn(std::uint32_t set);

    /**
     * Fetch @p block_base over the bus (F, or FI when @p invalidate).
     * When @p install, a victim is chosen and evicted (dirty victims are
     * copied back with the transfer-time already folded into the bus
     * pattern) and the block is installed with state INV for the caller
     * to set. When not installing, data lands in @p scratch.
     */
    FetchOutcome fetchBlock(Addr block_base, bool invalidate, bool with_lock,
                            Addr lock_word, bool install, Word* scratch,
                            Cycles now, Area area);

    /** Purge our own copy without copy-back (the ER/RP path). */
    void purgeBlock(Block& block, Cycles when);

    /** Assign @p block's state, reporting the transition to the sink. */
    void setState(Block& block, CacheState to, Cycles when);

    AccessResult doRead(const MemRef& ref, Cycles now);
    AccessResult doWrite(const MemRef& ref, Word wdata, Cycles now);
    AccessResult doLockRead(const MemRef& ref, Cycles now);
    AccessResult doUnlock(const MemRef& ref, bool write, Word wdata,
                          Cycles now);
    AccessResult doDirectWrite(const MemRef& ref, Word wdata, bool downward,
                               Cycles now);
    AccessResult doExclusiveRead(const MemRef& ref, Cycles now);
    AccessResult doReadPurge(const MemRef& ref, Cycles now);
    AccessResult doReadInvalidate(const MemRef& ref, Cycles now);

    void countAccess(const MemRef& ref, bool miss);

    PeId pe_;
    CacheConfig config_;
    /**
     * Shift/mask forms of the validated power-of-two geometry, so the
     * per-access address math (block base, set index) is two ALU ops
     * instead of integer divisions (docs/PERFORMANCE.md).
     */
    std::uint32_t blockShift_ = 0; ///< log2(geometry.blockWords).
    std::uint32_t setMask_ = 0;    ///< geometry.sets - 1.
    Bus& bus_;
    /** The protocol variant's policy table (cache/protocol.h). */
    CoherenceProtocol proto_;
    /** Random-replacement RNG state (advances once per random victim). */
    std::uint64_t rngState_ = 1;
    ProtocolMutation mutation_ = ProtocolMutation::None;
    FaultInjector* injector_ = nullptr;
    EventSink* sink_ = nullptr;
    LockDirectory locks_;
    CacheStats stats_;
    std::uint64_t lruTick_ = 0;
    std::vector<Block> blocks_;  ///< sets x ways.
    std::vector<Word> data_;     ///< sets x ways x blockWords.
};

} // namespace pim

#endif // PIMCACHE_CACHE_PIM_CACHE_H_
