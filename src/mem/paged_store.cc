#include "mem/paged_store.h"

#include <algorithm>

#include "common/xassert.h"

namespace pim {

PagedStore::PagedStore(std::uint64_t total_words)
    : totalWords_(total_words),
      pages_((total_words + kPageWords - 1) / kPageWords)
{
}

Word
PagedStore::read(Addr addr) const
{
    PIM_ASSERT(addr < totalWords_, "read past end of memory: ", addr);
    const auto& page = pages_[addr / kPageWords];
    return page ? page->words[addr % kPageWords] : 0;
}

void
PagedStore::write(Addr addr, Word value)
{
    pageFor(addr).words[addr % kPageWords] = value;
}

void
PagedStore::readSpan(Addr addr, std::uint32_t count, Word* out) const
{
    PIM_ASSERT(count != 0 && addr / kPageWords ==
                                 (addr + count - 1) / kPageWords,
               "readSpan crosses a page boundary: ", addr, "+", count);
    PIM_ASSERT(addr + count <= totalWords_,
               "read past end of memory: ", addr);
    const auto& page = pages_[addr / kPageWords];
    if (!page) {
        for (std::uint32_t w = 0; w < count; ++w)
            out[w] = 0;
        return;
    }
    const Word* words = &page->words[addr % kPageWords];
    for (std::uint32_t w = 0; w < count; ++w)
        out[w] = words[w];
}

void
PagedStore::writeSpan(Addr addr, std::uint32_t count, const Word* data)
{
    PIM_ASSERT(count != 0 && addr / kPageWords ==
                                 (addr + count - 1) / kPageWords,
               "writeSpan crosses a page boundary: ", addr, "+", count);
    Word* words = &pageFor(addr).words[addr % kPageWords];
    for (std::uint32_t w = 0; w < count; ++w)
        words[w] = data[w];
}

void
PagedStore::copyStateFrom(const PagedStore& other)
{
    PIM_ASSERT(totalWords_ == other.totalWords_,
               "copying a store of a different size");
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const std::unique_ptr<Page>& from = other.pages_[p];
        std::unique_ptr<Page>& to = pages_[p];
        if (from == nullptr) {
            to.reset();
            continue;
        }
        if (to == nullptr)
            to = std::make_unique<Page>();
        // Words past the end of memory are never addressed and stay zero
        // in both stores, so a small memory copies only its own words.
        const std::uint64_t words =
            std::min(kPageWords, totalWords_ - p * kPageWords);
        std::copy_n(from->words, words, to->words);
    }
    pagesAllocated_ = other.pagesAllocated_;
}

PagedStore::Page&
PagedStore::pageFor(Addr addr)
{
    PIM_ASSERT(addr < totalWords_, "write past end of memory: ", addr);
    auto& slot = pages_[addr / kPageWords];
    if (!slot) {
        slot = std::make_unique<Page>();
        ++pagesAllocated_;
    }
    return *slot;
}

} // namespace pim
