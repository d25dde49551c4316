/**
 * @file
 * Exact bus-side residency filter (docs/PERFORMANCE.md,
 * docs/ARCHITECTURE.md).
 *
 * Tracks, per cache block, (a) the set of PEs whose cache holds a valid
 * copy and (b) the set of PEs whose lock directory has an entry (or an
 * injected ghost) on a word of the block. Both sets are maintained
 * eagerly by the components that own the state — PimCache on every
 * INV<->valid transition, LockDirectory on every acquire/release — so
 * the bus can direct snoops, invalidations and lock checks to exactly
 * the PEs that can respond instead of broadcasting to all P ports.
 *
 * The filter is *exact*, not approximate: a PE is in a block's copy set
 * if and only if its cache holds the block, so skipping the other PEs
 * is observationally identical to snooping them (an absent copy neither
 * supplies data nor changes state, and an empty lock directory never
 * answers LH). The bus therefore has one snoop walk, directed by these
 * masks, for every run including fault-injected ones: injected faults
 * change cache state only through the same notifications. The
 * conformance engine (src/model) holds that walk to its reference
 * machine, and residency_filter_test checks the masks against the
 * caches' contents, with and without injected faults.
 *
 * Masks are multi-word PE bitsets: an entry is ceil(P/64) consecutive
 * 64-bit words, so the filter is exact at *any* PE count — there is no
 * 64-PE ceiling and no broadcast fallback for wide machines. With 64 or
 * fewer PEs an entry is a single word and the maintenance/query cost is
 * identical to the single-word design this replaces. They are also the
 * clustered topology's only residency record: copyClusters and
 * lockClusters fold a block's masks into the cluster set a transaction
 * must reserve (src/bus/cluster_bus.h).
 *
 * Entries live in pages allocated on first touch (the PagedStore idiom):
 * a lookup is one shift, one page-pointer load and one indexed load, and
 * a 1024-PE machine with a sparse multi-gigaword address space costs
 * memory proportional to the blocks it actually caches, not to its
 * address-space size.
 */

#ifndef PIMCACHE_BUS_RESIDENCY_FILTER_H_
#define PIMCACHE_BUS_RESIDENCY_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/pe_bitset.h"
#include "common/types.h"
#include "common/xassert.h"

namespace pim {

/** Per-block PE presence masks for copies and lock entries. */
class ResidencyFilter
{
  public:
    /** Block entries per storage page (entry = maskWords() words). */
    static constexpr std::size_t kPageBlocks = 1024;

    /**
     * Widest supported mask in words; bounds the stack buffers the bus
     * walks copy entries into (64 words = 4096 PEs, far past the
     * clustered design space).
     */
    static constexpr std::uint32_t kMaxMaskWords = 64;

    /**
     * Set the block size the bus dispatches at; block addresses passed
     * to the mask updaters are multiples of this. Must be called before
     * any residency note (the Bus constructor does).
     */
    void
    setBlockWords(std::uint32_t block_words)
    {
        blockWords_ = block_words == 0 ? 1 : block_words;
        shift_ = -1;
        if ((blockWords_ & (blockWords_ - 1)) == 0) {
            shift_ = 0;
            while ((1u << shift_) != blockWords_)
                ++shift_;
        }
    }

    /**
     * Note that @p pe participates in the system, growing the per-block
     * entry to cover it. Registration happens at attach time — before
     * any traffic — but growth re-lays existing pages out correctly
     * regardless.
     */
    void
    registerPe(PeId pe)
    {
        const std::uint32_t needed = (pe >> 6) + 1;
        PIM_ASSERT(needed <= kMaxMaskWords, "pe", pe,
                   " exceeds the residency filter's ", kMaxMaskWords * 64,
                   "-PE mask limit");
        if (needed > maskWords_) {
            regrow(copies_, needed);
            regrow(locks_, needed);
            maskWords_ = needed;
        }
    }

    /** Mask words per block entry (1 for machines of up to 64 PEs). */
    std::uint32_t maskWords() const { return maskWords_; }

    /** @p pe's cache now holds a valid copy of @p block. */
    void
    addCopy(PeId pe, Addr block)
    {
        entry(copies_, indexOf(block))[pe >> 6] |= bit(pe);
    }

    /** @p pe's cache no longer holds @p block. */
    void
    removeCopy(PeId pe, Addr block)
    {
        std::uint64_t* words = entryIfPresent(copies_, indexOf(block));
        if (words != nullptr)
            words[pe >> 6] &= ~bit(pe);
    }

    /**
     * @p pe's lock directory now does / does not contain an entry (or a
     * ghost) on a word of @p block. Idempotent: directories re-assert
     * the block's residency after every change.
     */
    void
    setLockResident(PeId pe, Addr block, bool resident)
    {
        if (resident) {
            entry(locks_, indexOf(block))[pe >> 6] |= bit(pe);
        } else {
            std::uint64_t* words = entryIfPresent(locks_, indexOf(block));
            if (words != nullptr)
                words[pe >> 6] &= ~bit(pe);
        }
    }

    /** PEs holding a valid copy of @p block. */
    PeBitset
    copyMask(Addr block) const
    {
        return maskOf(copies_, block);
    }

    /** PEs with a lock entry or ghost on a word of @p block. */
    PeBitset
    lockMask(Addr block) const
    {
        return maskOf(locks_, block);
    }

    /** Raw copy-mask word @p word of @p block (bus hot path). */
    std::uint64_t
    copyWord(Addr block, std::uint32_t word) const
    {
        const std::uint64_t* words =
            entryIfPresent(copies_, indexOf(block));
        return words != nullptr ? words[word] : 0;
    }

    /** Raw lock-mask word @p word of @p block (bus hot path). */
    std::uint64_t
    lockWord(Addr block, std::uint32_t word) const
    {
        const std::uint64_t* words = entryIfPresent(locks_, indexOf(block));
        return words != nullptr ? words[word] : 0;
    }

    /** True if any PE other than @p except holds a copy of @p block. */
    bool
    anyCopyExcept(Addr block, PeId except) const
    {
        const std::uint64_t* words =
            entryIfPresent(copies_, indexOf(block));
        if (words == nullptr)
            return false;
        for (std::uint32_t w = 0; w < maskWords_; ++w) {
            std::uint64_t mask = words[w];
            if (w == (except >> 6))
                mask &= ~bit(except);
            if (mask != 0)
                return true;
        }
        return false;
    }

    /**
     * Clusters of @p cluster_size PEs (PE p in cluster p / cluster_size)
     * holding at least one copy of @p block, as a cluster bit mask; the
     * clustered bus routes from it. The machine must partition into at
     * most 64 clusters (SystemConfig::validate enforces this).
     */
    std::uint64_t
    copyClusters(Addr block, std::uint32_t cluster_size) const
    {
        return clustersOf(copies_, block, cluster_size);
    }

    /** copyClusters, over the lock-residency masks. */
    std::uint64_t
    lockClusters(Addr block, std::uint32_t cluster_size) const
    {
        return clustersOf(locks_, block, cluster_size);
    }

    /**
     * Call @p fn(PeId) for every copy holder of @p block except
     * @p skip, in ascending PE order. The entry is copied out first, so
     * @p fn may change residency (an FI snoop drops the snooped copy)
     * without perturbing the walk.
     */
    template <typename Fn>
    void
    forEachCopyHolder(Addr block, PeId skip, Fn&& fn) const
    {
        walk(copies_, block, skip, fn);
    }

    /** forEachCopyHolder, over the lock-residency masks. */
    template <typename Fn>
    void
    forEachLockHolder(Addr block, PeId skip, Fn&& fn) const
    {
        walk(locks_, block, skip, fn);
    }

    /**
     * Make both mask sets equal @p other's (same block size and mask
     * width, asserted): pages present only in @p other are
     * materialized, pages absent from it are dropped.
     */
    void
    copyStateFrom(const ResidencyFilter& other)
    {
        PIM_ASSERT(blockWords_ == other.blockWords_ &&
                       maskWords_ == other.maskWords_,
                   "copying a residency filter of a different shape");
        copyStore(copies_, other.copies_);
        copyStore(locks_, other.locks_);
    }

    /** Blocks with at least one cached copy (introspection). */
    std::size_t trackedCopyBlocks() const { return nonZero(copies_); }

    /** Blocks with at least one lock entry (introspection). */
    std::size_t trackedLockBlocks() const { return nonZero(locks_); }

  private:
    /** Pages of kPageBlocks entries, maskWords_ words each. */
    struct MaskStore {
        std::vector<std::unique_ptr<std::uint64_t[]>> pages;
        /** One past the highest entry index ever set: every entry at or
         *  past it is zero, so a copy can stop there. */
        std::size_t extent = 0;
    };

    static std::uint64_t bit(PeId pe) { return 1ull << (pe & 63); }

    std::size_t
    indexOf(Addr block) const
    {
        return static_cast<std::size_t>(
            shift_ >= 0 ? block >> shift_ : block / blockWords_);
    }

    /** Entry for @p index, materializing its page on first touch. */
    std::uint64_t*
    entry(MaskStore& store, std::size_t index)
    {
        if (index >= store.extent)
            store.extent = index + 1;
        const std::size_t page = index / kPageBlocks;
        if (page >= store.pages.size())
            store.pages.resize(page + 1);
        if (store.pages[page] == nullptr) {
            store.pages[page] = std::make_unique<std::uint64_t[]>(
                kPageBlocks * maskWords_);
            for (std::size_t i = 0; i < kPageBlocks * maskWords_; ++i)
                store.pages[page][i] = 0;
        }
        return &store.pages[page][(index % kPageBlocks) * maskWords_];
    }

    /** Entry for @p index, or nullptr when its page never materialized. */
    const std::uint64_t*
    entryIfPresent(const MaskStore& store, std::size_t index) const
    {
        const std::size_t page = index / kPageBlocks;
        if (page >= store.pages.size() || store.pages[page] == nullptr)
            return nullptr;
        return &store.pages[page][(index % kPageBlocks) * maskWords_];
    }

    std::uint64_t*
    entryIfPresent(MaskStore& store, std::size_t index)
    {
        return const_cast<std::uint64_t*>(
            static_cast<const ResidencyFilter*>(this)->entryIfPresent(
                store, index));
    }

    PeBitset
    maskOf(const MaskStore& store, Addr block) const
    {
        const std::uint64_t* words = entryIfPresent(store, indexOf(block));
        if (words == nullptr)
            return PeBitset(maskWords_);
        return PeBitset::fromWords(words, maskWords_);
    }

    /**
     * One pass over the entry's words plus one step per holding cluster:
     * at a set bit, record that PE's cluster and skip the rest of the
     * cluster within the word.
     */
    std::uint64_t
    clustersOf(const MaskStore& store, Addr block,
               std::uint32_t cluster_size) const
    {
        const std::uint64_t* words = entryIfPresent(store, indexOf(block));
        if (words == nullptr)
            return 0;
        std::uint64_t clusters = 0;
        for (std::uint32_t w = 0; w < maskWords_; ++w) {
            const std::uint64_t base = static_cast<std::uint64_t>(w) << 6;
            std::uint64_t mask = words[w];
            while (mask != 0) {
                const std::uint64_t cluster =
                    (base + __builtin_ctzll(mask)) / cluster_size;
                clusters |= 1ull << cluster;
                const std::uint64_t next = (cluster + 1) * cluster_size - base;
                mask = next >= 64 ? 0 : mask & (~0ull << next);
            }
        }
        return clusters;
    }

    template <typename Fn>
    void
    walk(const MaskStore& store, Addr block, PeId skip, Fn&& fn) const
    {
        const std::uint64_t* words = entryIfPresent(store, indexOf(block));
        if (words == nullptr)
            return;
        // Snapshot the entry so fn's residency updates cannot shift the
        // walk (the single-word design got this for free by copying the
        // mask into a register).
        std::uint64_t local[kMaxMaskWords];
        for (std::uint32_t w = 0; w < maskWords_; ++w)
            local[w] = words[w];
        if ((skip >> 6) < maskWords_)
            local[skip >> 6] &= ~bit(skip);
        for (std::uint32_t w = 0; w < maskWords_; ++w) {
            std::uint64_t mask = local[w];
            while (mask != 0) {
                fn(static_cast<PeId>((static_cast<std::uint64_t>(w) << 6) +
                                     __builtin_ctzll(mask)));
                mask &= mask - 1;
            }
        }
    }

    void
    copyStore(MaskStore& to, const MaskStore& from) const
    {
        // Entries past both extents are zero on both sides.
        const std::size_t extent = std::max(to.extent, from.extent);
        to.pages.resize(from.pages.size());
        for (std::size_t p = 0; p < from.pages.size(); ++p) {
            if (from.pages[p] == nullptr) {
                to.pages[p].reset();
                continue;
            }
            if (to.pages[p] == nullptr) {
                to.pages[p] = std::make_unique<std::uint64_t[]>(
                    kPageBlocks * maskWords_);
            }
            const std::size_t first = p * kPageBlocks;
            const std::size_t entries =
                first >= extent ? 0 : std::min(kPageBlocks, extent - first);
            std::copy_n(from.pages[p].get(), entries * maskWords_,
                        to.pages[p].get());
        }
        to.extent = from.extent;
    }

    std::size_t
    nonZero(const MaskStore& store) const
    {
        std::size_t count = 0;
        for (const auto& page : store.pages) {
            if (page == nullptr)
                continue;
            for (std::size_t i = 0; i < kPageBlocks; ++i) {
                for (std::uint32_t w = 0; w < maskWords_; ++w) {
                    if (page[i * maskWords_ + w] != 0) {
                        count += 1;
                        break;
                    }
                }
            }
        }
        return count;
    }

    /** Re-lay @p store out for @p new_words-wide entries. */
    void
    regrow(MaskStore& store, std::uint32_t new_words)
    {
        if (store.pages.empty() || new_words == maskWords_)
            return;
        MaskStore wider;
        wider.pages.resize(store.pages.size());
        for (std::size_t p = 0; p < store.pages.size(); ++p) {
            if (store.pages[p] == nullptr)
                continue;
            wider.pages[p] = std::make_unique<std::uint64_t[]>(
                kPageBlocks * new_words);
            for (std::size_t i = 0; i < kPageBlocks * new_words; ++i)
                wider.pages[p][i] = 0;
            for (std::size_t i = 0; i < kPageBlocks; ++i) {
                for (std::uint32_t w = 0; w < maskWords_; ++w) {
                    wider.pages[p][i * new_words + w] =
                        store.pages[p][i * maskWords_ + w];
                }
            }
        }
        store.pages = std::move(wider.pages);
    }

    std::uint32_t blockWords_ = 1;
    std::uint32_t maskWords_ = 1; ///< ceil(maxPe+1 / 64), grown by registerPe.
    int shift_ = 0; ///< log2(blockWords_) when a power of two, else -1.
    MaskStore copies_; ///< Block index -> PE copy mask entry.
    MaskStore locks_;  ///< Block index -> lock-residency mask entry.
};

} // namespace pim

#endif // PIMCACHE_BUS_RESIDENCY_FILTER_H_
