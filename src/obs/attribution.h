/**
 * @file
 * Cycle and miss attribution engine (docs/OBSERVABILITY.md).
 *
 * The standard reports say *how many* bus cycles and misses a run cost;
 * this sink says *why*. It consumes the EventSink stream and maintains:
 *
 *  - Per-PE shadow tag state that classifies every miss as cold (block
 *    never held before), capacity (would also miss in a fully
 *    associative cache of the same total size), conflict (set mapping
 *    alone evicted it), coherence invalidation (a remote PE's bus
 *    command removed it), lock-purge (the PE's own ER/RP read-once
 *    purge dropped it) or flush (a GC cache flush dropped it).
 *  - A bus-cycle attribution that charges every transaction's occupancy
 *    to a cause bucket — memory fill, cache-to-cache supply, copy-back,
 *    invalidation, lock traffic (UL broadcasts and LH rejects), word
 *    writes — split per PE and per in-flight memory operation. The
 *    victim patterns are split between fill and copy-back using the
 *    clean-victim base cost, so a dirty victim whose transfer hides
 *    entirely under the memory wait (the paper's default timing)
 *    contributes zero visible copy-back cycles.
 *  - Per-block heat analytics: hottest blocks by bus occupancy,
 *    invalidation ping-pong chains (consecutive invalidation-class
 *    misses on one block), and lock/wait contention tables.
 *
 * The attribution is exact by construction: bucket cycles sum to
 * BusStats::totalCycles and per-pattern cycles/transactions match the
 * BusStats breakdown. crossCheck() verifies this against a live
 * BusStats and is enforced always-on by the stress harness and the
 * conformance harness (the PR 2 event-count check's sibling).
 *
 * The engine observes only; it never perturbs the simulation, so
 * attaching it cannot change any simulated observable.
 */

#ifndef PIMCACHE_OBS_ATTRIBUTION_H_
#define PIMCACHE_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bus/bus.h"
#include "obs/event_sink.h"

namespace pim {

class JsonWriter;

/** Why a miss happened, from the shadow tag state. */
enum class MissClass : std::uint8_t {
    Cold = 0,         ///< First time this PE ever held the block.
    Capacity = 1,     ///< Fully associative shadow also evicted it.
    Conflict = 2,     ///< Only the set mapping evicted it.
    Invalidation = 3, ///< A remote PE's bus command removed it.
    LockPurge = 4,    ///< Own ER/RP read-once purge dropped it.
    Flush = 5,        ///< A GC cache flush dropped it.
};

inline constexpr int kNumMissClasses = 6;

/** Short lowercase miss-class name. */
const char* missClassName(MissClass cls);

/** What a bus transaction's cycles bought. */
enum class BusBucket : std::uint8_t {
    MemoryFill = 0,   ///< Block transfer from shared memory.
    CacheSupply = 1,  ///< Cache-to-cache block supply.
    CopyBack = 2,     ///< Dirty-victim transfer (visible share only).
    Invalidation = 3, ///< I commands.
    LockTraffic = 4,  ///< UL broadcasts and LH-rejected attempts.
    WordWrite = 5,    ///< Write-through word writes (DW/ER baseline).
    /**
     * Interconnect hop cycles on the clustered topology. Cycles-only
     * bucket: the hops ride on transactions already counted in their
     * base bucket, so it contributes no transaction count.
     */
    InterCluster = 6,
    /** Dragon word-update broadcasts (shared-write update traffic). */
    UpdateTraffic = 7,
};

inline constexpr int kNumBusBuckets = 8;

/** Short lowercase bucket name. */
const char* busBucketName(BusBucket bucket);

/** One row of the hottest-blocks analytics. */
struct BlockHeat {
    Addr block = 0;
    Cycles busCycles = 0;          ///< Bus occupancy charged to it.
    std::uint64_t transactions = 0;
    std::uint64_t fills = 0;
    std::uint64_t invMisses = 0;   ///< Invalidation-classified misses.
    std::uint32_t maxPingPong = 0; ///< Longest invalidation-miss chain.
};

/** One row of the lock-word contention table. */
struct LockHeat {
    Addr word = 0;
    std::uint64_t acquires = 0;  ///< EMP -> LCK transitions.
    std::uint64_t contended = 0; ///< Transitions into LWAIT.
};

/** One row of the busy-wait table (per parked-on block). */
struct WaitHeat {
    Addr block = 0;
    std::uint64_t parks = 0;
    std::uint64_t wakes = 0;
    Cycles totalWait = 0;
    Cycles maxWait = 0;
};

/** EventSink that attributes misses and bus cycles to causes. */
class AttributionEngine final : public EventSink
{
  public:
    /**
     * @param num_pes         PEs in the observed System.
     * @param timing          The System's (validated) bus timing; used
     *                        to split victim patterns into fill vs
     *                        copy-back shares.
     * @param block_words     Cache block size in words.
     * @param capacity_blocks Total per-PE capacity (ways x sets), the
     *                        fully associative shadow's size.
     */
    AttributionEngine(std::uint32_t num_pes, const BusTiming& timing,
                      std::uint32_t block_words,
                      std::uint32_t capacity_blocks);

    /**
     * Make every tally, shadow and in-flight marker equal @p other's
     * (same PE count, timing and geometry, asserted), so a copied
     * System keeps an attribution that cross-checks exactly.
     */
    void copyStateFrom(const AttributionEngine& other);

    // -- EventSink ---------------------------------------------------------

    void onBusTransaction(const BusTxnEvent& event) override;
    void onCacheTransition(PeId pe, Addr block_addr, CacheState from,
                           CacheState to, Cycles when) override;
    void onCacheFill(PeId pe, Addr block_addr, bool from_cache, bool dirty,
                     Cycles when) override;
    void onPurge(PeId pe, Addr block_addr, bool was_dirty,
                 Cycles when) override;
    void onCacheFlush(PeId pe) override;
    void onLockTransition(PeId owner, Addr word_addr, LockState from,
                          LockState to, Cycles when) override;
    void onPark(PeId pe, Addr block_addr, Cycles when) override;
    void onWake(PeId pe, Addr block_addr, Cycles when) override;
    void onAccessBegin(PeId pe, MemOp op, Addr addr, Area area,
                       Cycles when) override;
    void onAccessEnd(PeId pe, MemOp op, Addr addr, Area area, Cycles start,
                     Cycles end, bool lock_wait) override;

    // -- Results -----------------------------------------------------------

    std::uint64_t missCount(MissClass cls) const;
    std::uint64_t classifiedMisses() const; ///< Sum over all classes.

    Cycles bucketCycles(BusBucket bucket) const;
    std::uint64_t bucketTransactions(BusBucket bucket) const;
    Cycles attributedCycles() const;         ///< Sum over all buckets.
    std::uint64_t attributedTransactions() const;
    Cycles patternCycles(BusPattern pattern) const;

    /** Cycles charged to @p bucket by in-flight operation @p op. */
    Cycles opBucketCycles(MemOp op, BusBucket bucket) const;
    /** Cycles charged to @p bucket by requester @p pe. */
    Cycles peBucketCycles(PeId pe, BusBucket bucket) const;

    /** Top-N tables, sorted hottest first (ties by address). */
    std::vector<BlockHeat> hottestBlocks(std::size_t top_n) const;
    std::vector<LockHeat> hottestLocks(std::size_t top_n) const;
    std::vector<WaitHeat> longestWaits(std::size_t top_n) const;

    /**
     * Verify the attribution against the live BusStats: bucket cycles
     * must sum exactly to totalCycles and the per-pattern mirror must
     * match cyclesByPattern/transByPattern entry for entry.
     * @return "" on an exact match, else a one-line description of the
     * first discrepancy (callers raise SimFault(Protocol) on it).
     */
    std::string crossCheck(const BusStats& stats) const;

    /** The attribution report as ASCII tables. */
    std::string report(std::size_t top_n = 8) const;

    /** The attribution section as a JSON object (schema `attribution`). */
    void writeJson(JsonWriter& json, const BusStats& stats,
                   std::size_t top_n = 16) const;

    /** writeJson as a standalone pretty document string. */
    std::string jsonDocument(const BusStats& stats,
                             std::size_t top_n = 16) const;

    /** jsonDocument to @p path (atomic). @return false on I/O failure. */
    bool writeFile(const std::string& path, const BusStats& stats,
                   std::size_t top_n = 16) const;

  private:
    /**
     * Fully associative LRU shadow of one PE's total capacity. A copy
     * rebuilds @c index over its own list: copied iterators would point
     * into the source's.
     */
    struct FaShadow {
        std::list<Addr> lru; ///< Front = MRU.
        std::unordered_map<Addr, std::list<Addr>::iterator> index;

        FaShadow() = default;
        FaShadow(const FaShadow& other) { *this = other; }
        FaShadow(FaShadow&&) = default;
        FaShadow&
        operator=(const FaShadow& other)
        {
            if (this != &other) {
                lru = other.lru;
                reindex();
            }
            return *this;
        }
        FaShadow& operator=(FaShadow&&) = default;

        void
        reindex()
        {
            index.clear();
            for (auto it = lru.begin(); it != lru.end(); ++it)
                index.emplace(*it, it);
        }

        bool contains(Addr block) const { return index.count(block) != 0; }
        void touch(Addr block, std::uint32_t capacity);
    };

    /** Why a block last left a PE's cache. */
    enum class Departure : std::uint8_t {
        Evicted, Invalidated, Purged, Flushed,
    };

    struct PeShadow {
        std::unordered_set<Addr> everHeld; ///< Blocks ever installed.
        std::unordered_set<Addr> resident; ///< Current shadow tags.
        std::unordered_map<Addr, Departure> departure;
        FaShadow fa;
        bool purgePending = false; ///< onPurge seen, transition next.
        Addr purgeBlock = 0;
        bool fillPending = false;  ///< Fill seen, no arrival (yet).
        Addr fillBlock = 0;
        bool inFlight = false;     ///< An access is executing.
        MemOp op = MemOp::R;
        bool parked = false;
        Addr parkedBlock = 0;
        Cycles parkedAt = 0;
    };

    struct BlockTally {
        Cycles busCycles = 0;
        std::uint64_t transactions = 0;
        std::uint64_t fills = 0;
        std::uint64_t invMisses = 0;
        std::uint32_t chain = 0;    ///< Current invalidation-miss run.
        std::uint32_t maxChain = 0;
        PeId lastFillPe = kNoPe;
    };

    struct LockTally {
        std::uint64_t acquires = 0;
        std::uint64_t contended = 0;
    };

    struct WaitTally {
        std::uint64_t parks = 0;
        std::uint64_t wakes = 0;
        Cycles totalWait = 0;
        Cycles maxWait = 0;
    };

    MissClass classify(PeShadow& shadow, Addr block) const;
    void charge(const BusTxnEvent& event, BusBucket bucket, Cycles cycles);
    void settleNonInstallFill(PeShadow& shadow);

    std::uint32_t numPes_;
    BusTiming timing_;
    std::uint32_t blockWords_;
    std::uint32_t capacityBlocks_;

    std::vector<PeShadow> shadows_;
    PeId curPe_ = 0;        ///< PE with the access in flight.
    bool curValid_ = false; ///< An access is in flight right now.
    std::uint64_t missByClass_[kNumMissClasses] = {};

    Cycles cyclesByBucket_[kNumBusBuckets] = {};
    std::uint64_t transByBucket_[kNumBusBuckets] = {};
    Cycles patternCycles_[kNumBusPatterns] = {};
    std::uint64_t patternTrans_[kNumBusPatterns] = {};
    /** [op][bucket]; row kNumMemOps = no access in flight (e.g. wakes). */
    Cycles opCycles_[kNumMemOps + 1][kNumBusBuckets] = {};
    std::vector<std::vector<Cycles>> peCycles_; ///< [pe][bucket].

    std::unordered_map<Addr, BlockTally> blocks_;
    std::unordered_map<Addr, LockTally> locks_;
    std::unordered_map<Addr, WaitTally> waits_;
};

} // namespace pim

#endif // PIMCACHE_OBS_ATTRIBUTION_H_
