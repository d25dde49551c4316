/**
 * @file
 * Cache geometry and controller configuration.
 */

#ifndef PIMCACHE_CACHE_CONFIG_H_
#define PIMCACHE_CACHE_CONFIG_H_

#include <cstdint>

#include "cache/protocol.h"
#include "cache/replacement.h"
#include "common/xassert.h"

namespace pim {

/**
 * Set-associative cache geometry. The paper's base configuration is a
 * four-Kword, four-way, 256-column cache with four-word blocks.
 */
struct CacheGeometry {
    std::uint32_t blockWords = 4;
    std::uint32_t ways = 4;
    std::uint32_t sets = 256;

    /** Data capacity in words. */
    std::uint64_t
    capacityWords() const
    {
        return static_cast<std::uint64_t>(blockWords) * ways * sets;
    }

    /** Derive the set count from a target capacity. */
    static CacheGeometry
    forCapacity(std::uint64_t capacity_words, std::uint32_t block_words,
                std::uint32_t ways)
    {
        CacheGeometry geom;
        geom.blockWords = block_words;
        geom.ways = ways;
        PIM_ASSERT(capacity_words %
                       (static_cast<std::uint64_t>(block_words) * ways) == 0,
                   "capacity not divisible by block*ways");
        geom.sets = static_cast<std::uint32_t>(
            capacity_words / (static_cast<std::uint64_t>(block_words) *
                              ways));
        geom.validate();
        return geom;
    }

    /** Sanity-check: power-of-two sets and block size. */
    void
    validate() const
    {
        PIM_ASSERT(blockWords >= 1 && (blockWords & (blockWords - 1)) == 0,
                   "block size must be a power of two");
        PIM_ASSERT(sets >= 1 && (sets & (sets - 1)) == 0,
                   "set count must be a power of two");
        PIM_ASSERT(ways >= 1);
    }

    /**
     * Total storage bits including the directory, as plotted on the
     * x-axis of the paper's Figure 2 (5-byte = 40-bit data words; a
     * "four-Kword cache" is about 190000 bits).
     */
    std::uint64_t
    storageBits(std::uint32_t word_bits = 40,
                std::uint32_t addr_bits = 32) const
    {
        const std::uint64_t data_bits = capacityWords() * word_bits;
        std::uint32_t index_bits = 0;
        for (std::uint32_t v = sets * blockWords; v > 1; v >>= 1)
            ++index_bits;
        const std::uint32_t tag_bits =
            addr_bits > index_bits ? addr_bits - index_bits : 1;
        // Tag + 3 state bits + 2 LRU bits per block.
        const std::uint64_t dir_bits =
            static_cast<std::uint64_t>(sets) * ways * (tag_bits + 3 + 2);
        return data_bits + dir_bits;
    }

    bool operator==(const CacheGeometry&) const = default;
};

/** Full per-PE cache controller configuration. */
struct CacheConfig {
    CacheGeometry geometry;

    /** Lock-directory entries (the paper suggests one or two suffice). */
    std::uint32_t lockEntries = 2;

    /**
     * Illinois-style baseline: copy dirty blocks back to shared memory
     * on cache-to-cache transfer (no SM state). Used by the SM-state
     * ablation bench.
     */
    bool copybackOnShare = false;

    /**
     * Write-through baseline (Goodman's motivation for copy-back):
     * every write is a bus transaction updating shared memory and
     * invalidating remote copies; blocks are never dirty; write misses
     * do not allocate; the optimized commands demote to plain R/W.
     */
    bool writeThrough = false;

    /** Processor-visible latency of a cache hit, in cycles. */
    std::uint32_t hitCycles = 1;

    /**
     * Coherence protocol variant (docs/ARCHITECTURE.md "Protocol
     * matrix"). The default PIM table reproduces the paper's 5-state
     * protocol byte-identically; copybackOnShare above still overrides
     * the dirty-share behavior for the SM-state ablation.
     */
    ProtocolKind protocol = ProtocolKind::PIM;

    /** Replacement policy (LRU = the pre-refactor behavior). */
    ReplacementKind replacement = ReplacementKind::LRU;

    /** Seed for the random replacement policy's xorshift64. */
    std::uint64_t replacementSeed = 1;

    bool operator==(const CacheConfig&) const = default;
};

} // namespace pim

#endif // PIMCACHE_CACHE_CONFIG_H_
