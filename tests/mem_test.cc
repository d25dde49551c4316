/**
 * @file
 * Unit tests for the address-space layout, paged store and free lists.
 */

#include <gtest/gtest.h>

#include "mem/free_list.h"
#include "mem/layout.h"
#include "mem/paged_store.h"

namespace pim {
namespace {

LayoutConfig
smallConfig()
{
    LayoutConfig config;
    config.numPes = 4;
    config.instrWords = 8192;
    config.heapWordsPerPe = 1 << 16;
    config.goalWordsPerPe = 1 << 14;
    config.suspWordsPerPe = 1 << 12;
    config.commWordsPerPe = 1 << 12;
    return config;
}

TEST(Layout, InstructionFirst)
{
    const Layout layout(smallConfig());
    EXPECT_EQ(layout.instrRange().base, 0u);
    EXPECT_EQ(layout.areaOf(0), Area::Instruction);
    EXPECT_EQ(layout.areaOf(8191), Area::Instruction);
    EXPECT_EQ(layout.peOf(0), kNoPe);
}

TEST(Layout, SegmentsDisjointAndClassified)
{
    const Layout layout(smallConfig());
    for (PeId pe = 0; pe < 4; ++pe) {
        for (Area area : {Area::Heap, Area::Goal, Area::Susp, Area::Comm}) {
            const Range seg = layout.segment(area, pe);
            EXPECT_EQ(layout.areaOf(seg.base), area);
            EXPECT_EQ(layout.areaOf(seg.end() - 1), area);
            EXPECT_EQ(layout.peOf(seg.base), pe);
            EXPECT_EQ(layout.peOf(seg.end() - 1), pe);
        }
    }
}

TEST(Layout, SegmentsDoNotOverlap)
{
    const Layout layout(smallConfig());
    // Pairwise-disjointness via base ordering.
    std::vector<Range> ranges;
    ranges.push_back(layout.instrRange());
    for (Area area : {Area::Heap, Area::Goal, Area::Susp, Area::Comm})
        for (PeId pe = 0; pe < 4; ++pe)
            ranges.push_back(layout.segment(area, pe));
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        for (std::size_t j = i + 1; j < ranges.size(); ++j) {
            const bool disjoint = ranges[i].end() <= ranges[j].base ||
                                  ranges[j].end() <= ranges[i].base;
            EXPECT_TRUE(disjoint) << "ranges " << i << " and " << j;
        }
    }
}

TEST(Layout, OutOfRangeIsUnknown)
{
    const Layout layout(smallConfig());
    EXPECT_EQ(layout.areaOf(layout.totalWords()), Area::Unknown);
    EXPECT_EQ(layout.areaOf(layout.totalWords() + 12345), Area::Unknown);
}

TEST(Layout, BlocksNeverStraddleAreas)
{
    // Segment bases are 4K-aligned, so any power-of-two block <= 4K words
    // lies in exactly one area.
    const Layout layout(smallConfig());
    for (Area area : {Area::Heap, Area::Goal, Area::Susp, Area::Comm}) {
        for (PeId pe = 0; pe < 4; ++pe) {
            EXPECT_EQ(layout.segment(area, pe).base % 4096, 0u);
        }
    }
}

TEST(Layout, DescribeMentionsAreaAndPe)
{
    const Layout layout(smallConfig());
    const Range heap1 = layout.segment(Area::Heap, 1);
    const std::string text = layout.describe(heap1.base + 5);
    EXPECT_NE(text.find("heap"), std::string::npos);
    EXPECT_NE(text.find("pe1"), std::string::npos);
}

TEST(PagedStore, ZeroInitialized)
{
    PagedStore store(1 << 20);
    EXPECT_EQ(store.read(0), 0u);
    EXPECT_EQ(store.read((1 << 20) - 1), 0u);
    EXPECT_EQ(store.pagesAllocated(), 0u);
}

TEST(PagedStore, ReadBack)
{
    PagedStore store(1 << 20);
    store.write(12345, 0xdeadbeef);
    EXPECT_EQ(store.read(12345), 0xdeadbeefu);
    EXPECT_EQ(store.read(12346), 0u);
    EXPECT_EQ(store.pagesAllocated(), 1u);
}

TEST(PagedStore, SparseAllocation)
{
    PagedStore store(1ull << 30);
    store.write(0, 1);
    store.write(1ull << 29, 2);
    EXPECT_EQ(store.pagesAllocated(), 2u);
    EXPECT_EQ(store.read(1ull << 29), 2u);
}

TEST(PagedStore, CopyStateFollowsTheSourcesPages)
{
    constexpr Addr kPage = PagedStore::kPageWords;
    PagedStore source(3 * kPage);
    PagedStore copy(3 * kPage);
    source.write(10, 7);         // page 0: in the source only
    copy.write(2 * kPage + 1, 9); // page 2: in the destination only
    copy.write(2 * kPage + 2, 4);

    copy.copyStateFrom(source);
    EXPECT_EQ(copy.read(10), 7u);
    EXPECT_EQ(copy.read(2 * kPage + 1), 0u);
    EXPECT_EQ(copy.read(2 * kPage + 2), 0u);
    EXPECT_EQ(copy.pagesAllocated(), 1u);

    // The copy owns its pages: writing one leaves the source alone,
    // and a page the source gains later is not shared either.
    copy.write(10, 8);
    copy.write(kPage, 5);
    EXPECT_EQ(source.read(10), 7u);
    EXPECT_EQ(source.read(kPage), 0u);
    EXPECT_EQ(source.pagesAllocated(), 1u);
}

TEST(PagedStore, CopyStateOfAPartialPage)
{
    // A memory smaller than a page copies only its own words.
    PagedStore source(6);
    PagedStore copy(6);
    for (Addr a = 0; a < 6; ++a)
        source.write(a, a + 1);
    copy.write(3, 99);
    copy.copyStateFrom(source);
    for (Addr a = 0; a < 6; ++a)
        EXPECT_EQ(copy.read(a), a + 1);
}

TEST(PagedStoreDeath, OutOfRange)
{
    PagedStore store(100);
    EXPECT_DEATH(store.read(100), "read past end");
}

TEST(FreeList, BumpAllocation)
{
    FreeList list(Range{1000, 100});
    EXPECT_EQ(list.allocate(4), 1000u);
    EXPECT_EQ(list.allocate(4), 1004u);
    EXPECT_EQ(list.allocate(2), 1008u);
    EXPECT_EQ(list.liveWords(), 10u);
    EXPECT_EQ(list.carvedWords(), 10u);
}

TEST(FreeList, RecyclesLifo)
{
    FreeList list(Range{0, 100});
    const Addr a = list.allocate(4);
    const Addr b = list.allocate(4);
    list.free(a, 4);
    list.free(b, 4);
    EXPECT_EQ(list.allocate(4), b); // LIFO: most recently freed first
    EXPECT_EQ(list.allocate(4), a);
    EXPECT_EQ(list.recycleCount(), 2u);
    EXPECT_EQ(list.carvedWords(), 8u); // no new carving
}

TEST(FreeList, SizeClassesSeparate)
{
    FreeList list(Range{0, 100});
    const Addr a = list.allocate(2);
    list.free(a, 2);
    // A different size class must not reuse the freed 2-word record.
    EXPECT_NE(list.allocate(4), a);
    EXPECT_EQ(list.allocate(2), a);
}

TEST(FreeList, Exhaustion)
{
    FreeList list(Range{0, 8});
    EXPECT_NE(list.allocate(4), kNoAddr);
    EXPECT_NE(list.allocate(4), kNoAddr);
    EXPECT_EQ(list.allocate(4), kNoAddr);
    list.free(0, 4);
    EXPECT_EQ(list.allocate(4), 0u);
}

TEST(FreeListDeath, FreeOutsideRegion)
{
    FreeList list(Range{0, 8});
    (void)list.allocate(4);
    EXPECT_DEATH(list.free(100, 4), "free outside region");
}

} // namespace
} // namespace pim
