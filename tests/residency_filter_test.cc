/**
 * @file
 * Exact bus-side residency filter tests (docs/PERFORMANCE.md).
 *
 * Two layers: unit tests of the ResidencyFilter mask container itself,
 * and system-level exactness tests asserting that after every kind of
 * protocol event — fills, swap-out evictions, write invalidations, the
 * ER supplier purge, RI, flushAll, lock acquire/release and a lock
 * surviving its block's eviction — the per-block copy mask equals the
 * ground truth (which PEs' caches actually hold the block) and the lock
 * mask equals which PEs' lock directories hold an entry on the block.
 *
 * The bus has one snoop walk, and these masks decide which PEs it
 * reaches. The last tests drive long mixed reference streams, with and
 * without injected faults, and check the masks against that ground
 * truth as the stream runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bus/residency_filter.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "sim/system.h"

namespace pim {
namespace {

// ---------------------------------------------------------------------
// ResidencyFilter unit behavior.
// ---------------------------------------------------------------------

TEST(ResidencyFilterUnit, CopyMaskTracksAddRemove)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    EXPECT_EQ(filter.copyMask(0), 0u);

    filter.addCopy(0, 8);
    filter.addCopy(3, 8);
    EXPECT_EQ(filter.copyMask(8), (1ull << 0) | (1ull << 3));
    EXPECT_EQ(filter.copyMask(4), 0u);

    filter.removeCopy(0, 8);
    EXPECT_EQ(filter.copyMask(8), 1ull << 3);
    // Removing an absent copy is a no-op, not an error.
    filter.removeCopy(5, 8);
    EXPECT_EQ(filter.copyMask(8), 1ull << 3);
}

TEST(ResidencyFilterUnit, LockMaskIsIdempotent)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.setLockResident(2, 12, true);
    filter.setLockResident(2, 12, true);
    EXPECT_EQ(filter.lockMask(12), 1ull << 2);
    filter.setLockResident(2, 12, false);
    filter.setLockResident(2, 12, false);
    EXPECT_EQ(filter.lockMask(12), 0u);
}

TEST(ResidencyFilterUnit, CopyAndLockMasksAreIndependent)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.addCopy(1, 0);
    filter.setLockResident(2, 0, true);
    EXPECT_EQ(filter.copyMask(0), 1ull << 1);
    EXPECT_EQ(filter.lockMask(0), 1ull << 2);
}

TEST(ResidencyFilterUnit, MultiWordMasksAreExactAcrossWordBoundaries)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    EXPECT_EQ(filter.maskWords(), 1u);
    filter.registerPe(63);
    EXPECT_EQ(filter.maskWords(), 1u);
    filter.registerPe(64);
    EXPECT_EQ(filter.maskWords(), 2u);
    filter.registerPe(128);
    EXPECT_EQ(filter.maskWords(), 3u);

    PeBitset expect(3);
    for (const PeId pe : {63u, 64u, 65u, 127u, 128u}) {
        filter.addCopy(pe, 8);
        expect.set(pe);
    }
    EXPECT_EQ(filter.copyMask(8), expect);
    EXPECT_EQ(filter.copyMask(8).count(), 5u);
    EXPECT_TRUE(filter.anyCopyExcept(8, 63));

    filter.removeCopy(64, 8);
    expect.clear(64);
    EXPECT_EQ(filter.copyMask(8), expect);

    // The walk visits holders in ascending PE order across mask words.
    std::vector<PeId> visited;
    filter.forEachCopyHolder(8, 63, [&](PeId pe) { visited.push_back(pe); });
    EXPECT_EQ(visited, (std::vector<PeId>{65, 127, 128}));
}

TEST(ResidencyFilterUnit, RegisterAfterContentRelaysExistingMasks)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.addCopy(3, 8);
    filter.setLockResident(5, 8, true);
    // Growing the mask width re-lays existing pages; no bit may be lost.
    filter.registerPe(200);
    EXPECT_EQ(filter.maskWords(), 4u);
    EXPECT_EQ(filter.copyMask(8), 1ull << 3);
    EXPECT_EQ(filter.lockMask(8), 1ull << 5);
    filter.addCopy(200, 8);
    PeBitset expect(4);
    expect.set(3);
    expect.set(200);
    EXPECT_EQ(filter.copyMask(8), expect);
}

TEST(ResidencyFilterUnit, RangeQueriesRespectWordBoundaries)
{
    // Cluster queries over multi-word masks: a cluster is a PE range,
    // and ranges must line up with the mask words on either side.
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.registerPe(191);
    filter.addCopy(64, 8);
    filter.setLockResident(127, 8, true);
    EXPECT_EQ(filter.copyClusters(8, 64), 0b010ull);
    EXPECT_EQ(filter.lockClusters(8, 64), 0b010ull);
    EXPECT_EQ(filter.copyClusters(8, 65), 0b001ull);
    EXPECT_EQ(filter.lockClusters(8, 65), 0b010ull);
    EXPECT_EQ(filter.copyClusters(8, 4), 1ull << 16);
    EXPECT_EQ(filter.lockClusters(8, 4), 1ull << 31);
    // A block never touched has no clusters.
    EXPECT_EQ(filter.copyClusters(4096, 4), 0u);
    EXPECT_EQ(filter.lockClusters(4096, 4), 0u);
}

TEST(ResidencyFilterUnit, ClusterQueriesSummarizeMasks)
{
    ResidencyFilter filter;
    filter.setBlockWords(4);
    for (PeId pe = 0; pe < 6; ++pe)
        filter.registerPe(pe);

    // PEs 0 (cluster 0) and 5 (cluster 2) take copies of block 8.
    filter.addCopy(0, 8);
    filter.addCopy(5, 8);
    EXPECT_EQ(filter.copyClusters(8, 2), 0b101ull);
    EXPECT_EQ(filter.lockClusters(8, 2), 0u);

    // PE 4 shares cluster 2 with PE 5: the bit must survive PE 5's
    // departure while PE 4 still holds a copy.
    filter.addCopy(4, 8);
    filter.removeCopy(5, 8);
    EXPECT_EQ(filter.copyClusters(8, 2), 0b101ull);

    // Last departure from cluster 2 clears its bit.
    filter.removeCopy(4, 8);
    EXPECT_EQ(filter.copyClusters(8, 2), 0b001ull);

    // Locks are summarized independently of copies.
    filter.setLockResident(3, 8, true);
    EXPECT_EQ(filter.lockClusters(8, 2), 0b010ull);
    EXPECT_EQ(filter.copyClusters(8, 2), 0b001ull);
    filter.setLockResident(3, 8, false);
    EXPECT_EQ(filter.lockClusters(8, 2), 0u);

    // Cluster 21 (PEs 63..65 at cluster size 3) straddles the first
    // mask word: either half alone sets its bit, and no other bit.
    filter.registerPe(65);
    filter.addCopy(63, 12);
    EXPECT_EQ(filter.copyClusters(12, 3), 1ull << 21);
    filter.addCopy(64, 12);
    EXPECT_EQ(filter.copyClusters(12, 3), 1ull << 21);
    filter.removeCopy(63, 12);
    EXPECT_EQ(filter.copyClusters(12, 3), 1ull << 21);
    filter.setLockResident(62, 12, true);
    filter.setLockResident(65, 12, true);
    EXPECT_EQ(filter.lockClusters(12, 3), (1ull << 20) | (1ull << 21));
    filter.removeCopy(64, 12);
    EXPECT_EQ(filter.copyClusters(12, 3), 0u);
}

TEST(ResidencyFilterUnit, ClusterQueriesMatchPerPeMasksAt1024Pes)
{
    // The widest machine the tools accept clustered (1024 PEs, 16
    // words per mask): after random copy/lock churn, each cluster set
    // equals the clusters of the PEs in the per-PE mask, for cluster
    // sizes that align with mask words (16, 64) and that do not (17,
    // 33, 100).
    constexpr PeId kPes = 1024;
    ResidencyFilter filter;
    filter.setBlockWords(4);
    filter.registerPe(kPes - 1);
    Rng rng(21);
    // A few dozen holders per block: most clusters are empty or partly
    // held, and holders often share a cluster or a mask word.
    for (int step = 0; step < 2000; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(kPes));
        const Addr block = 4 * rng.below(16);
        switch (rng.below(4)) {
        case 0: filter.addCopy(pe, block); break;
        case 1: filter.removeCopy(pe, block); break;
        case 2: filter.setLockResident(pe, block, true); break;
        default: filter.setLockResident(pe, block, false); break;
        }
    }
    for (std::uint32_t size : {16u, 17u, 33u, 64u, 100u}) {
        for (Addr block = 0; block < 64; block += 4) {
            std::uint64_t copies = 0;
            filter.copyMask(block).forEach(
                [&](PeId pe) { copies |= 1ull << (pe / size); });
            std::uint64_t locks = 0;
            filter.lockMask(block).forEach(
                [&](PeId pe) { locks |= 1ull << (pe / size); });
            EXPECT_EQ(filter.copyClusters(block, size), copies)
                << "size " << size << " block " << block;
            EXPECT_EQ(filter.lockClusters(block, size), locks)
                << "size " << size << " block " << block;
        }
    }
}

TEST(ResidencyFilterUnit, NonPowerOfTwoBlockWordsStillIndexes)
{
    ResidencyFilter filter;
    filter.setBlockWords(3); // falls back to division indexing
    filter.addCopy(0, 0);
    filter.addCopy(1, 3);
    filter.addCopy(2, 6);
    EXPECT_EQ(filter.copyMask(0), 1ull << 0);
    EXPECT_EQ(filter.copyMask(3), 1ull << 1);
    EXPECT_EQ(filter.copyMask(6), 1ull << 2);
    EXPECT_EQ(filter.trackedCopyBlocks(), 3u);
}

TEST(ResidencyFilterUnit, CopyStateFollowsTheSourcesPages)
{
    const Addr far = ResidencyFilter::kPageBlocks * 4 * 3; // page 3
    ResidencyFilter source;
    ResidencyFilter copy;
    for (ResidencyFilter* filter : {&source, &copy}) {
        filter->setBlockWords(4);
        for (PeId pe = 0; pe < 70; ++pe) // two mask words
            filter->registerPe(pe);
    }
    source.addCopy(65, 8);          // page 0: in the source only
    source.setLockResident(2, 8, true);
    copy.addCopy(1, far);           // page 3: in the destination only
    copy.setLockResident(66, far, true);
    copy.addCopy(3, 4);             // page 0 entry the source lacks

    copy.copyStateFrom(source);
    EXPECT_EQ(copy.copyMask(8), source.copyMask(8));
    EXPECT_EQ(copy.lockMask(8), source.lockMask(8));
    EXPECT_FALSE(copy.copyMask(4).any());
    EXPECT_FALSE(copy.copyMask(far).any());
    EXPECT_FALSE(copy.lockMask(far).any());
    EXPECT_EQ(copy.trackedCopyBlocks(), 1u);
    EXPECT_EQ(copy.trackedLockBlocks(), 1u);

    // Masks set past the source's highest entry after the copy, then
    // copied over again, are cleared: the copy's extent covers both.
    copy.addCopy(0, 4 * 100);
    copy.copyStateFrom(source);
    EXPECT_FALSE(copy.copyMask(4 * 100).any());
    copy.removeCopy(65, 8);
    EXPECT_TRUE(source.copyMask(8).any()) << "the copy shares no page";
}

// ---------------------------------------------------------------------
// System-level exactness: masks versus cache/lock-directory ground
// truth after every protocol event kind.
// ---------------------------------------------------------------------

/** Tiny geometry so evictions are easy to force: 2 sets x 2 ways. */
SystemConfig
tinyConfig(std::uint32_t pes)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry.blockWords = 4;
    config.cache.geometry.sets = 2;
    config.cache.geometry.ways = 2;
    config.memoryWords = 1 << 16;
    config.validate();
    return config;
}

/**
 * Assert that for every block base in [lo, hi) the filter's copy mask
 * has exactly the bits of the PEs whose cache holds the block, and the
 * lock mask exactly the PEs whose lock directory has an entry on it.
 */
void
expectExactMasks(const System& system, Addr lo, Addr hi)
{
    const std::uint32_t block =
        system.cache(0).config().geometry.blockWords;
    const std::uint32_t pes = system.config().numPes;
    for (Addr base = lo / block * block; base < hi; base += block) {
        PeBitset expect_copies((pes + 63) / 64);
        PeBitset expect_locks((pes + 63) / 64);
        for (PeId pe = 0; pe < pes; ++pe) {
            if (system.cache(pe).present(base))
                expect_copies.set(pe);
            for (const auto& [word, state] :
                 system.cache(pe).lockDirectory().entries()) {
                if (word / block * block == base)
                    expect_locks.set(pe);
            }
        }
        EXPECT_EQ(system.bus().residency().copyMask(base), expect_copies)
            << "copy mask of block " << base;
        EXPECT_EQ(system.bus().residency().lockMask(base), expect_locks)
            << "lock mask of block " << base;
    }
}

TEST(ResidencyMasks, FillSharesAndWriteInvalidates)
{
    System system(tinyConfig(4));
    // All four PEs read block 0 -> four copies.
    for (PeId pe = 0; pe < 4; ++pe)
        system.access(pe, MemOp::R, 0, Area::Heap);
    EXPECT_EQ(system.bus().residency().copyMask(0), 0xfull);
    expectExactMasks(system, 0, 64);

    // PE2 writes -> the other three copies are invalidated.
    system.access(2, MemOp::W, 1, Area::Heap, 42);
    EXPECT_EQ(system.bus().residency().copyMask(0), 1ull << 2);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, SwapOutEvictionClearsTheMask)
{
    System system(tinyConfig(2));
    const Addr block = 4;
    // 2 sets x 4-word blocks: bases 0,32,64 all map to set 0. Three
    // distinct blocks in a 2-way set force an eviction.
    system.access(0, MemOp::R, 0, Area::Heap);
    system.access(0, MemOp::W, 32, Area::Heap, 7); // dirty victim
    system.access(0, MemOp::R, 64, Area::Heap);
    std::uint32_t resident = 0;
    for (Addr base : {Addr{0}, Addr{32}, Addr{64}})
        resident += system.cache(0).present(base) ? 1 : 0;
    EXPECT_EQ(resident, 2u); // one of the three was swapped out
    expectExactMasks(system, 0, 128);
    (void)block;
}

TEST(ResidencyMasks, ExclusiveReadPurgesTheSupplier)
{
    System system(tinyConfig(2));
    // PE0 creates the record with DW (exclusive dirty), PE1 consumes it
    // with ER: the supplier's copy must be purged and its mask bit gone.
    system.access(0, MemOp::DW, 8, Area::Heap, 99);
    EXPECT_EQ(system.bus().residency().copyMask(8), 1ull << 0);
    const System::Access got = system.access(1, MemOp::ER, 8, Area::Heap);
    EXPECT_EQ(got.data, 99u);
    EXPECT_FALSE(system.cache(0).present(8));
    EXPECT_EQ(system.bus().residency().copyMask(8), 1ull << 1);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, ReadPurgeAndReadInvalidate)
{
    System system(tinyConfig(2));
    system.access(0, MemOp::DW, 8, Area::Heap, 5);
    // RP: read and purge own copy without keeping it.
    system.access(0, MemOp::RP, 8, Area::Heap);
    expectExactMasks(system, 0, 64);
    // RI: read once, invalidating every cached copy.
    system.access(0, MemOp::W, 12, Area::Heap, 6);
    system.access(1, MemOp::RI, 12, Area::Heap);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, FlushAllClearsEveryMaskBit)
{
    System system(tinyConfig(3));
    Rng rng(42);
    for (int step = 0; step < 200; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(3));
        const Addr addr = rng.below(256);
        if (rng.chance(1, 3))
            system.access(pe, MemOp::W, addr, Area::Heap, rng.next());
        else
            system.access(pe, MemOp::R, addr, Area::Heap);
    }
    expectExactMasks(system, 0, 256);
    for (PeId pe = 0; pe < 3; ++pe)
        system.cache(pe).flushAll();
    for (Addr base = 0; base < 256; base += 4)
        EXPECT_EQ(system.bus().residency().copyMask(base), 0u);
    expectExactMasks(system, 0, 256);
}

TEST(ResidencyMasks, LockResidencyFollowsAcquireAndRelease)
{
    System system(tinyConfig(2));
    system.access(0, MemOp::LR, 20, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(20), 1ull << 0);
    expectExactMasks(system, 0, 64);
    system.access(0, MemOp::UW, 20, Area::Heap, 11);
    EXPECT_EQ(system.bus().residency().lockMask(20), 0u);

    system.access(1, MemOp::LR, 21, Area::Heap);
    system.access(1, MemOp::U, 21, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(20), 0u);
    expectExactMasks(system, 0, 64);
}

TEST(ResidencyMasks, LockSurvivesBlockEviction)
{
    System system(tinyConfig(2));
    // Lock a word, then evict its block from the holder's cache (set 0
    // holds bases 0,32,64). The lock directory entry — and therefore
    // the lock mask bit — must survive while the copy bit goes away.
    system.access(0, MemOp::LR, 2, Area::Heap);
    system.access(0, MemOp::W, 32, Area::Heap, 1);
    system.access(0, MemOp::W, 64, Area::Heap, 2);
    system.access(0, MemOp::R, 96, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(0), 1ull << 0);
    expectExactMasks(system, 0, 128);
    system.access(0, MemOp::U, 2, Area::Heap);
    EXPECT_EQ(system.bus().residency().lockMask(0), 0u);
    expectExactMasks(system, 0, 128);
}

// ---------------------------------------------------------------------
// Wide machines: the masks stay exact past the 64-PE word boundary.
// ---------------------------------------------------------------------

TEST(ResidencyMasks, WideMachineMasksStayExact)
{
    System system(tinyConfig(128));
    // Sharers straddling the mask-word boundary, then an invalidating
    // write from the far side.
    for (const PeId pe : {0u, 63u, 64u, 65u, 127u})
        system.access(pe, MemOp::R, 0, Area::Heap);
    PeBitset expect(2);
    for (const PeId pe : {0u, 63u, 64u, 65u, 127u})
        expect.set(pe);
    EXPECT_EQ(system.bus().residency().copyMask(0), expect);
    system.access(127, MemOp::W, 1, Area::Heap, 7);
    PeBitset only127(2);
    only127.set(127);
    EXPECT_EQ(system.bus().residency().copyMask(0), only127);
    expectExactMasks(system, 0, 64);

    // DW/ER hand-off across the boundary purges the wide supplier.
    system.access(64, MemOp::DW, 8, Area::Heap, 99);
    const System::Access got = system.access(65, MemOp::ER, 8, Area::Heap);
    EXPECT_EQ(got.data, 99u);
    EXPECT_FALSE(system.cache(64).present(8));
    PeBitset only65(2);
    only65.set(65);
    EXPECT_EQ(system.bus().residency().copyMask(8), only65);

    // RP purges a wide PE's own copy.
    system.access(100, MemOp::DW, 16, Area::Heap, 5);
    system.access(100, MemOp::RP, 16, Area::Heap);
    EXPECT_EQ(system.bus().residency().copyMask(16), 0u);
    expectExactMasks(system, 0, 64);

    // Evictions on a wide PE (2 sets: bases 0,32,64,96 map to set 0).
    for (const Addr base : {Addr{32}, Addr{64}, Addr{96}, Addr{128}})
        system.access(90, MemOp::R, base, Area::Heap);
    expectExactMasks(system, 0, 256);

    // Locks across the boundary, then flushAll clears every copy bit.
    system.access(70, MemOp::LR, 40, Area::Heap);
    PeBitset lock70(2);
    lock70.set(70);
    EXPECT_EQ(system.bus().residency().lockMask(40), lock70);
    system.access(70, MemOp::U, 40, Area::Heap);
    for (PeId pe = 0; pe < 128; ++pe)
        system.cache(pe).flushAll();
    for (Addr base = 0; base < 256; base += 4)
        EXPECT_EQ(system.bus().residency().copyMask(base), 0u);
    expectExactMasks(system, 0, 256);
}

// ---------------------------------------------------------------------
// Mixed streams: the masks stay exact through long runs of every
// command kind, on narrow and wide machines and under injected faults.
// (The ResidencyDifferential names are kept from the filter on/off
// differential these streams used to drive.)
// ---------------------------------------------------------------------

/**
 * Drive @p system through @p steps references of a mixed stream —
 * reads and writes over [0, 256), DW -> ER/RP records bump-allocated
 * from @p record_base, and non-blocking lock traffic on one word per PE
 * at @p lock_base + 4 * pe — checking the masks of every block the
 * stream touches every 100 steps and at the end. Each PE's lock word
 * sits in its own block (LH inhibits a fetch when *any* word of the
 * block is locked elsewhere, so shared blocks would park PEs), which
 * keeps the stream retry-free.
 */
void
runMixedStream(System& system, std::uint64_t seed, int steps,
               Addr lock_base, Addr record_base)
{
    const std::uint32_t pes = system.config().numPes;
    const auto check = [&](Addr record_end) {
        expectExactMasks(system, 0, 256);
        expectExactMasks(system, lock_base, lock_base + 4 * pes);
        expectExactMasks(system, record_base, record_end);
    };
    Rng rng(seed);
    std::vector<Addr> records;
    std::vector<bool> holds(pes, false);
    Addr next_record = record_base;
    for (int step = 0; step < steps; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(pes));
        const std::uint64_t roll = rng.below(100);
        MemOp op;
        Addr addr;
        Word wdata = 0;
        if (roll < 20) {
            addr = lock_base + pe * 4;
            if (holds[pe]) {
                op = rng.chance(1, 2) ? MemOp::U : MemOp::UW;
                if (op == MemOp::UW)
                    wdata = rng.next();
                holds[pe] = false;
            } else {
                op = MemOp::LR;
                holds[pe] = true;
            }
        } else if (roll < 30) {
            if (!records.empty() && rng.chance(1, 2)) {
                addr = records.back();
                records.pop_back();
                op = rng.chance(1, 2) ? MemOp::ER : MemOp::RP;
            } else {
                op = MemOp::DW;
                addr = next_record;
                next_record += 4;
                wdata = rng.next();
                records.push_back(addr);
            }
        } else {
            op = roll < 60 ? MemOp::W : MemOp::R;
            addr = rng.below(256);
            if (op == MemOp::W)
                wdata = rng.next();
        }
        const System::Access a =
            system.access(pe, op, addr, Area::Heap, wdata);
        ASSERT_FALSE(a.lockWait) << "step " << step;
        if (step % 100 == 99)
            check(next_record);
    }
    check(next_record);
}

TEST(ResidencyDifferential, FilterOnAndOffAreBitIdentical)
{
    System system(tinyConfig(4));
    runMixedStream(system, 2026, 3000, 448, 512);
}

TEST(ResidencyDifferential, WideMachineFilterOnAndOffAreBitIdentical)
{
    // 128 PEs: lock words and the record area moved clear of each other.
    System system(tinyConfig(128));
    runMixedStream(system, 128128, 2000, 4096, 8192);
}

/**
 * Injected faults change cache and lock state only through the same
 * notifications as the protocol itself, so the masks — and with them
 * the one filtered snoop walk — stay exact under every fault kind.
 */
class ResidencyMasks : public ::testing::TestWithParam<const char*>
{
};

TEST_P(ResidencyMasks, ExactUnderFaultInjection)
{
    const FaultPlan plan =
        FaultPlan::parse(std::string(GetParam()) + ":p=0.05");
    FaultInjector injector(plan, 7);
    System system(tinyConfig(4));
    system.setFaultInjector(&injector);
    runMixedStream(system, 2026, 3000, 448, 512);
    EXPECT_GT(injector.stats(plan.rules[0].site).fires, 0u)
        << injector.summary();
}

INSTANTIATE_TEST_SUITE_P(Sites, ResidencyMasks,
                         ::testing::Values("drop_snoop", "dup_snoop",
                                           "spurious_inv", "forced_miss",
                                           "bit_flip", "corrupt_word"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

} // namespace
} // namespace pim
