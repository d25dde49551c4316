/**
 * @file
 * Sparse word-addressed backing store.
 *
 * Represents the contents of shared global memory. Pages (4K words) are
 * allocated on first touch so that large configured heaps cost nothing
 * until used. All words read as zero until written.
 */

#ifndef PIMCACHE_MEM_PAGED_STORE_H_
#define PIMCACHE_MEM_PAGED_STORE_H_

#include <memory>
#include <vector>

#include "common/types.h"

namespace pim {

/** Sparse flat array of simulated memory words. */
class PagedStore
{
  public:
    /** @param total_words Size of the address space in words. */
    explicit PagedStore(std::uint64_t total_words);

    /** Read one word (zero if never written). */
    Word read(Addr addr) const;

    /** Write one word. */
    void write(Addr addr, Word value);

    /**
     * Read @p count consecutive words starting at @p addr. The span must
     * not cross a page boundary (cache blocks, the only bulk unit, are
     * power-of-two sized and aligned, and pages are a multiple of every
     * legal block size). One page lookup instead of @p count — the bus
     * moves a block on every miss, so this is hot
     * (docs/PERFORMANCE.md).
     */
    void readSpan(Addr addr, std::uint32_t count, Word* out) const;

    /** Write @p count consecutive words; same alignment contract. */
    void writeSpan(Addr addr, std::uint32_t count, const Word* data);

    /**
     * Make this store's contents equal @p other's (same size, asserted):
     * pages present only in @p other are materialized, pages absent
     * from it are dropped. The conformance explorer branches successor
     * states with it (src/model/explorer.h).
     */
    void copyStateFrom(const PagedStore& other);

    /** Size of the address space in words. */
    std::uint64_t totalWords() const { return totalWords_; }

    /** Number of pages materialized so far (for tests/diagnostics). */
    std::uint64_t pagesAllocated() const { return pagesAllocated_; }

    static constexpr std::uint64_t kPageWords = 4096;

  private:
    struct Page {
        Word words[kPageWords] = {};
    };

    Page& pageFor(Addr addr);

    std::uint64_t totalWords_;
    std::uint64_t pagesAllocated_ = 0;
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace pim

#endif // PIMCACHE_MEM_PAGED_STORE_H_
