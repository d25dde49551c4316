/**
 * @file
 * Attribution engine tests (docs/OBSERVABILITY.md): hand-built access
 * sequences that provably produce each miss class — cold, conflict,
 * capacity, coherence invalidation, lock-purge, flush — plus the
 * exactness invariants (bucket cycles sum to BusStats::totalCycles,
 * classified misses equal the cache miss count), the bucket/pattern
 * mapping, the heat analytics, and the JSON document shape.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/json.h"
#include "obs/attribution.h"
#include "sim/report_json.h"
#include "sim/system.h"

namespace pim {
namespace {

/**
 * The smallest geometry whose miss classes are all reachable:
 * direct-mapped (1 way) x 2 sets x 4-word blocks. Total capacity is 2
 * blocks, so the fully associative shadow holds 2 blocks too; block
 * addresses 0, 16, 32 all map to set 0 while 4 maps to set 1.
 */
struct Rig {
    SystemConfig config;
    std::unique_ptr<System> sys;
    std::unique_ptr<AttributionEngine> attr;

    explicit Rig(std::uint32_t pes = 2)
    {
        config.numPes = pes;
        config.cache.geometry = {4, 1, 2};
        config.memoryWords = 1 << 16;
        config.validate();
        sys = std::make_unique<System>(config);
        attr = std::make_unique<AttributionEngine>(
            pes, config.timing, config.cache.geometry.blockWords,
            config.cache.geometry.ways * config.cache.geometry.sets);
        sys->addEventSink(attr.get());
    }

    Word
    access(PeId pe, MemOp op, Addr addr, Word wdata = 0)
    {
        return sys->access(pe, op, addr, Area::Heap, wdata).data;
    }

    /** The always-on invariants every scenario must close with. */
    void
    checkExact() const
    {
        EXPECT_EQ(attr->crossCheck(sys->bus().stats()), "");
        EXPECT_EQ(attr->classifiedMisses(),
                  sys->totalCacheStats().misses);
    }
};

// ------------------------------------------------------- miss classes

TEST(MissClass, FirstTouchIsCold)
{
    Rig rig;
    rig.access(0, MemOp::R, 0);
    EXPECT_EQ(rig.attr->missCount(MissClass::Cold), 1u);
    EXPECT_EQ(rig.attr->classifiedMisses(), 1u);
    rig.checkExact();
}

TEST(MissClass, HitsAreNotClassified)
{
    Rig rig;
    rig.access(0, MemOp::R, 0);
    rig.access(0, MemOp::R, 1);
    rig.access(0, MemOp::R, 2);
    EXPECT_EQ(rig.attr->classifiedMisses(), 1u);
    rig.checkExact();
}

TEST(MissClass, SetCollisionWithinCapacityIsConflict)
{
    Rig rig;
    // Blocks 0 and 16 both map to set 0 of the direct-mapped cache, but
    // a fully associative cache of the same total size (2 blocks) holds
    // both — so re-reading block 0 is a conflict miss by definition.
    rig.access(0, MemOp::R, 0);
    rig.access(0, MemOp::R, 16);
    rig.access(0, MemOp::R, 0);
    EXPECT_EQ(rig.attr->missCount(MissClass::Cold), 2u);
    EXPECT_EQ(rig.attr->missCount(MissClass::Conflict), 1u);
    EXPECT_EQ(rig.attr->missCount(MissClass::Capacity), 0u);
    rig.checkExact();
}

TEST(MissClass, WorkingSetBeyondCapacityIsCapacity)
{
    Rig rig;
    // Three distinct blocks through a 2-block cache: by the time block
    // 0 is re-read, even the fully associative shadow (LRU over 16, 32)
    // has evicted it — a true capacity miss, not a mapping artifact.
    rig.access(0, MemOp::R, 0);
    rig.access(0, MemOp::R, 16);
    rig.access(0, MemOp::R, 32);
    rig.access(0, MemOp::R, 0);
    EXPECT_EQ(rig.attr->missCount(MissClass::Cold), 3u);
    EXPECT_EQ(rig.attr->missCount(MissClass::Capacity), 1u);
    EXPECT_EQ(rig.attr->missCount(MissClass::Conflict), 0u);
    rig.checkExact();
}

TEST(MissClass, RemoteWriteMakesInvalidationMiss)
{
    Rig rig;
    rig.access(0, MemOp::R, 0);
    rig.access(1, MemOp::W, 0, 7); // I command removes pe0's copy.
    rig.access(0, MemOp::R, 0);
    EXPECT_EQ(rig.attr->missCount(MissClass::Cold), 2u);
    EXPECT_EQ(rig.attr->missCount(MissClass::Invalidation), 1u);
    rig.checkExact();
}

TEST(MissClass, ReadPurgeMakesLockPurgeMiss)
{
    Rig rig;
    rig.access(0, MemOp::W, 0, 5);
    EXPECT_EQ(rig.access(0, MemOp::RP, 0), 5u); // Purges the own copy.
    rig.access(0, MemOp::R, 0);
    EXPECT_EQ(rig.attr->missCount(MissClass::LockPurge), 1u);
    EXPECT_EQ(rig.attr->missCount(MissClass::Invalidation), 0u);
    rig.checkExact();
}

TEST(MissClass, ErOfLastWordPurgesSupplierCopy)
{
    Rig rig;
    // The consumer's ER of the last word read-purges its own copy; the
    // next read of that block is a lock-purge miss, not invalidation.
    for (Addr a = 0; a < 4; ++a)
        rig.access(0, MemOp::DW, a, a + 1);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(rig.access(1, MemOp::ER, a), a + 1);
    rig.access(1, MemOp::R, 0);
    EXPECT_EQ(rig.attr->missCount(MissClass::LockPurge), 1u);
    rig.checkExact();
}

TEST(MissClass, GcFlushMakesFlushMiss)
{
    Rig rig;
    rig.access(0, MemOp::W, 0, 3);
    rig.sys->flushAllCaches();
    rig.access(0, MemOp::R, 0);
    EXPECT_EQ(rig.access(0, MemOp::R, 0), 3u); // Write-back survived.
    EXPECT_EQ(rig.attr->missCount(MissClass::Flush), 1u);
    rig.checkExact();
}

// ------------------------------------------------ bus-cycle buckets

TEST(BusBuckets, MemoryFillMatchesPatternCycles)
{
    Rig rig;
    rig.access(0, MemOp::R, 0);
    const BusStats& stats = rig.sys->bus().stats();
    EXPECT_EQ(rig.attr->bucketCycles(BusBucket::MemoryFill),
              stats.cyclesByPattern[static_cast<int>(
                  BusPattern::MemFetch)]);
    EXPECT_EQ(rig.attr->attributedCycles(), stats.totalCycles);
    rig.checkExact();
}

TEST(BusBuckets, CacheSupplyAndInvalidationSplit)
{
    Rig rig;
    rig.access(0, MemOp::W, 0, 9); // pe0 holds the block dirty (EM).
    rig.access(1, MemOp::R, 0);    // C2C supply from pe0.
    rig.access(1, MemOp::W, 0, 4); // Invalidate broadcast to pe0.
    const BusStats& stats = rig.sys->bus().stats();
    EXPECT_GT(rig.attr->bucketCycles(BusBucket::CacheSupply), 0u);
    EXPECT_EQ(rig.attr->bucketCycles(BusBucket::Invalidation),
              stats.cyclesByPattern[static_cast<int>(
                  BusPattern::Invalidate)]);
    EXPECT_EQ(rig.attr->attributedCycles(), stats.totalCycles);
    rig.checkExact();
}

TEST(BusBuckets, DirtyVictimExcessLandsInCopyBack)
{
    Rig rig;
    // Dirty block 0 in set 0, then fetch block 16 into the same set:
    // the MemFetchVictim occupancy beyond the clean swap-in base cost
    // is attributable copy-back traffic. With the paper's default
    // timing the victim transfer hides entirely under the memory wait,
    // so the visible copy-back share must be zero — not negative, not
    // double-charged.
    rig.access(0, MemOp::W, 0, 1);
    rig.access(0, MemOp::R, 16);
    const BusStats& stats = rig.sys->bus().stats();
    const Cycles victim_occ = stats.cyclesByPattern[static_cast<int>(
        BusPattern::MemFetchVictim)];
    const Cycles clean_base = rig.config.timing.swapInCycles(false);
    EXPECT_EQ(rig.attr->bucketCycles(BusBucket::CopyBack),
              victim_occ > clean_base ? victim_occ - clean_base : 0);
    EXPECT_EQ(rig.attr->attributedCycles(), stats.totalCycles);
    rig.checkExact();
}

TEST(BusBuckets, LockTrafficCoversUnlockAndRejects)
{
    Rig rig;
    ASSERT_FALSE(rig.sys->access(0, MemOp::LR, 8, Area::Heap, 0).lockWait);
    ASSERT_TRUE(rig.sys->access(1, MemOp::LR, 8, Area::Heap, 0).lockWait);
    rig.access(0, MemOp::UW, 8, 2); // UL broadcast wakes pe1.
    ASSERT_FALSE(rig.sys->access(1, MemOp::LR, 8, Area::Heap, 0).lockWait);
    rig.access(1, MemOp::U, 8);
    const BusStats& stats = rig.sys->bus().stats();
    const Cycles expected =
        stats.cyclesByPattern[static_cast<int>(BusPattern::Unlock)] +
        stats.cyclesByPattern[static_cast<int>(BusPattern::LockReject)];
    EXPECT_EQ(rig.attr->bucketCycles(BusBucket::LockTraffic), expected);
    rig.checkExact();
}

// ------------------------------------------------------ heat tables

TEST(Heat, PingPongChainTracksAlternatingWriters)
{
    Rig rig;
    for (int round = 0; round < 4; ++round) {
        rig.access(0, MemOp::W, 0, round);
        rig.access(1, MemOp::W, 0, round);
    }
    const auto hot = rig.attr->hottestBlocks(1);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0].block, 0u);
    EXPECT_GE(hot[0].invMisses, 6u);
    EXPECT_GE(hot[0].maxPingPong, 3u);
    rig.checkExact();
}

TEST(Heat, LockContentionAndWaitTables)
{
    Rig rig;
    ASSERT_FALSE(rig.sys->access(0, MemOp::LR, 8, Area::Heap, 0).lockWait);
    ASSERT_TRUE(rig.sys->access(1, MemOp::LR, 8, Area::Heap, 0).lockWait);
    rig.access(0, MemOp::UW, 8, 1);
    ASSERT_FALSE(rig.sys->access(1, MemOp::LR, 8, Area::Heap, 0).lockWait);
    rig.access(1, MemOp::U, 8);
    const auto locks = rig.attr->hottestLocks(4);
    ASSERT_FALSE(locks.empty());
    EXPECT_EQ(locks[0].word, 8u);
    EXPECT_EQ(locks[0].acquires, 2u);
    EXPECT_GE(locks[0].contended, 1u);
    const auto waits = rig.attr->longestWaits(4);
    ASSERT_FALSE(waits.empty());
    EXPECT_EQ(waits[0].parks, 1u);
    EXPECT_EQ(waits[0].wakes, 1u);
    rig.checkExact();
}

// ------------------------------------------------- report and JSON

TEST(AttributionJson, DocumentShapeAndCrossCheck)
{
    Rig rig;
    rig.access(0, MemOp::W, 0, 1);
    rig.access(1, MemOp::R, 0);
    rig.access(1, MemOp::W, 16, 2);
    const std::string doc =
        rig.attr->jsonDocument(rig.sys->bus().stats());
    const JsonValue parsed = JsonValue::parse(doc);
    EXPECT_EQ(parsed.at("name").asString(), "attribution");
    EXPECT_EQ(parsed.findPath("cross_check.match")->asBool(), true);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  parsed.findPath("miss_classes.total")->asNumber()),
              rig.attr->classifiedMisses());
    ASSERT_NE(parsed.findPath("buckets.0.cycles"), nullptr);
    ASSERT_NE(parsed.findPath("by_pe.0.pe"), nullptr);
    // The ASCII report renders every table without blowing up.
    const std::string report = rig.attr->report();
    EXPECT_NE(report.find("miss classification"), std::string::npos);
    EXPECT_NE(report.find("bus cycles by cause"), std::string::npos);
}

TEST(AttributionJson, ReportAllJsonEmbedsSectionOnlyWhenAsked)
{
    Rig rig;
    rig.access(0, MemOp::R, 0);
    const JsonValue without = JsonValue::parse(reportAllJson(*rig.sys));
    EXPECT_FALSE(without.has("attribution"));
    const std::string with = reportAllJson(*rig.sys, rig.attr.get());
    const JsonValue parsed = JsonValue::parse(with);
    ASSERT_TRUE(parsed.has("attribution"));
    EXPECT_EQ(parsed.findPath("attribution.cross_check.match")->asBool(),
              true);
}

TEST(AttributionJson, CrossCheckReportsDoctoredStats)
{
    Rig rig;
    rig.access(0, MemOp::R, 0);
    BusStats doctored = rig.sys->bus().stats();
    doctored.totalCycles += 1;
    EXPECT_NE(rig.attr->crossCheck(doctored), "");
}

// ------------------------------------------------------------- copies

TEST(AttributionCopy, MutatingTheCopyLeavesTheSourceUntouched)
{
    Rig source;
    source.access(0, MemOp::R, 0);
    source.access(0, MemOp::R, 16);
    source.access(1, MemOp::W, 4, 3);
    const std::string before = source.attr->report();

    Rig copy;
    copy.access(1, MemOp::R, 32); // state the copy must overwrite
    copy.sys->copyStateFrom(*source.sys);
    copy.attr->copyStateFrom(*source.attr);
    EXPECT_EQ(copy.attr->report(), before);
    copy.checkExact();

    // Re-read block 0, which the copy's fully associative shadow holds
    // (a conflict miss), then 32 pushes 16 out of it (16 is then a
    // capacity miss). Were the copied LRU index still pointing into the
    // source's list, the first touch would unlink the source's node.
    copy.access(0, MemOp::R, 0);
    copy.access(0, MemOp::R, 32);
    copy.access(0, MemOp::R, 16);
    EXPECT_EQ(copy.attr->missCount(MissClass::Conflict), 1u);
    EXPECT_EQ(copy.attr->missCount(MissClass::Capacity), 1u);
    copy.checkExact();
    EXPECT_EQ(source.attr->report(), before);
    source.checkExact();

    // The source classifies as if it had never been copied: 32 pushes
    // 0 out of its shadow, so re-reading 0 is a capacity miss.
    source.access(0, MemOp::R, 32);
    source.access(0, MemOp::R, 0);
    EXPECT_EQ(source.attr->missCount(MissClass::Capacity), 1u);
    EXPECT_EQ(source.attr->missCount(MissClass::Conflict), 0u);
    source.checkExact();
}

} // namespace
} // namespace pim
