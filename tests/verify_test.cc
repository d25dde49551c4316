/**
 * @file
 * Coherence auditor + lock watchdog tests: deliberately broken protocol
 * runs must be detected with a classified SimFault, and clean runs must
 * pass silently. Also covers SystemConfig construction-time validation.
 */

#include <gtest/gtest.h>

#include "common/sim_fault.h"
#include "fault/fault_injector.h"
#include "sim/system.h"
#include "verify/coherence_auditor.h"
#include "verify/lock_watchdog.h"

namespace pim {
namespace {

SystemConfig
smallConfig(std::uint32_t pes = 3)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry = {4, 2, 8};
    config.memoryWords = 1 << 16;
    return config;
}

// ------------------------------------------- SystemConfig validation --

TEST(SystemValidate, AcceptsTheDefaultConfig)
{
    EXPECT_NO_THROW(SystemConfig{}.validate());
    EXPECT_NO_THROW(smallConfig().validate());
}

TEST(SystemValidate, RejectsBadConfigsWithDescriptiveFaults)
{
    struct Case {
        const char* what;
        SystemConfig config;
    };
    std::vector<Case> cases;
    cases.push_back({"numPes", smallConfig(0)});
    Case block{"blockWords", smallConfig()};
    block.config.cache.geometry.blockWords = 3;
    cases.push_back(block);
    Case big_block{"blockWords", smallConfig()};
    big_block.config.cache.geometry.blockWords = 128;
    cases.push_back(big_block);
    Case sets{"sets", smallConfig()};
    sets.config.cache.geometry.sets = 5;
    cases.push_back(sets);
    Case ways{"ways", smallConfig()};
    ways.config.cache.geometry.ways = 0;
    cases.push_back(ways);
    Case locks{"lockEntries", smallConfig()};
    locks.config.cache.lockEntries = 0;
    cases.push_back(locks);
    Case mem{"memoryWords", smallConfig()};
    mem.config.memoryWords = 0;
    cases.push_back(mem);
    Case unaligned{"memoryWords", smallConfig()};
    unaligned.config.memoryWords = 1022; // Not a multiple of 4.
    cases.push_back(unaligned);
    // 65 clusters: one more than a 64-bit route mask holds.
    Case clusters{"clusterSize", smallConfig(130)};
    clusters.config.cluster.clusterSize = 2;
    cases.push_back(clusters);
    // One PE past the residency masks' 4096-PE width.
    cases.push_back({"numPes", smallConfig(4097)});

    for (const Case& c : cases) {
        try {
            c.config.validate();
            FAIL() << c.what << " case was accepted";
        } catch (const SimFault& fault) {
            EXPECT_EQ(fault.kind(), SimFaultKind::Config);
            EXPECT_NE(std::string(fault.what()).find(c.what),
                      std::string::npos)
                << fault.what();
        }
    }
}

TEST(SystemValidate, ConstructionRunsValidation)
{
    SystemConfig config = smallConfig();
    config.cache.geometry.sets = 6;
    EXPECT_THROW(System{config}, SimFault);
}

TEST(SystemValidate, LayoutCoverageOverload)
{
    SystemConfig config = smallConfig();
    EXPECT_NO_THROW(config.validate(config.memoryWords));
    EXPECT_THROW(config.validate(config.memoryWords + 1), SimFault);
}

// ------------------------------------------------------- the auditor --

class Audited : public ::testing::Test
{
  protected:
    Audited() : sys_(smallConfig()), auditor_(sys_), watchdog_(sys_, {})
    {
        sys_.addAccessObserver(&auditor_);
        sys_.addAccessObserver(&watchdog_);
    }

    ~Audited() override { sys_.abandonParkedWaiters(); }

    System::Access
    op(PeId pe, MemOp memop, Addr addr, Word wdata = 0)
    {
        return sys_.access(pe, memop, addr, Area::Heap, wdata);
    }

    System sys_;
    CoherenceAuditor auditor_;
    LockWatchdog watchdog_;
};

TEST_F(Audited, CleanSharingPasses)
{
    op(0, MemOp::W, 100, 7);
    op(1, MemOp::R, 100);
    op(2, MemOp::W, 100, 9);
    op(0, MemOp::R, 100);
    EXPECT_EQ(op(1, MemOp::R, 100).data, 9u);
    op(0, MemOp::DW, 256, 3);
    EXPECT_EQ(op(1, MemOp::RP, 256).data, 3u);
    EXPECT_NO_THROW(auditor_.auditFull());
    EXPECT_GT(auditor_.checksRun(), 0u);
}

TEST_F(Audited, CorruptedTransferIsCaughtAtTheFaultingAccess)
{
    // Transfer #1 (pe0's fill) is clean; transfer #2 is the cache-to-
    // cache supply to pe1 and gets one bit flipped: pe1's copy then
    // disagrees with pe0's retained SM copy, whatever bit was hit.
    FaultInjector injector(FaultPlan::parse("corrupt_word:after=1"), 1);
    sys_.setFaultInjector(&injector);
    op(0, MemOp::W, 100, 7);
    try {
        op(1, MemOp::R, 100);
        FAIL() << "corruption not detected";
    } catch (const SimFault& fault) {
        EXPECT_TRUE(fault.kind() == SimFaultKind::Protocol ||
                    fault.kind() == SimFaultKind::Corruption)
            << fault.what();
    }
}

TEST_F(Audited, LostDirtyBitIsCaught)
{
    // The duplicated snoop reply reuses the Illinois-variant downgrade
    // path twice: the second reply sees an already-downgraded (clean)
    // copy, so the bus believes the block was clean and nobody owns the
    // dirty data any more — both copies now silently disagree with
    // shared memory.
    FaultInjector injector(FaultPlan::parse("dup_snoop:p=1"), 1);
    sys_.setFaultInjector(&injector);
    op(0, MemOp::W, 100, 7);
    try {
        op(1, MemOp::R, 100);
        FAIL() << "lost dirty bit not detected";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Protocol) << fault.what();
    }
}

TEST_F(Audited, BitFlipOnFillIsCaughtOnRead)
{
    // Fill corruption of pe1's copy: the flipped bit lands in one of the
    // four words of the block; pe0 still holds the true copy, so the
    // per-access copy-agreement check fires whatever word was hit.
    FaultInjector injector(FaultPlan::parse("bit_flip:after=1"), 1);
    sys_.setFaultInjector(&injector);
    op(0, MemOp::W, 100, 7); // Fill #1: pe0, clean.
    try {
        op(1, MemOp::R, 100); // Fill #2: pe1, corrupted.
        FAIL() << "fill corruption not detected";
    } catch (const SimFault& fault) {
        EXPECT_TRUE(fault.kind() == SimFaultKind::Protocol ||
                    fault.kind() == SimFaultKind::Corruption)
            << fault.what();
    }
}

// ------------------------------------------------------ the watchdog --

TEST_F(Audited, CircularWaitDeadlockIsDetected)
{
    op(0, MemOp::LR, 100);
    op(1, MemOp::LR, 200);
    EXPECT_TRUE(op(2, MemOp::LR, 100).lockWait);
    EXPECT_TRUE(op(0, MemOp::LR, 200).lockWait);
    try {
        op(1, MemOp::LR, 100); // Parks the last runnable PE.
        FAIL() << "deadlock not detected";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Deadlock);
        // The message carries the full lock picture.
        EXPECT_NE(std::string(fault.what()).find("LWAIT"),
                  std::string::npos)
            << fault.what();
    }
}

TEST_F(Audited, ReportStallRaisesDeadlock)
{
    try {
        watchdog_.reportStall();
        FAIL() << "reportStall returned";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Deadlock);
    }
}

TEST(Watchdog, LostUnlockShowsUpAsStarvation)
{
    SystemConfig config = smallConfig(2);
    System sys(config);
    WatchdogConfig bounds;
    bounds.starvationBound = 10;
    LockWatchdog watchdog(sys, bounds);
    sys.addAccessObserver(&watchdog);
    FaultInjector injector(FaultPlan::parse("lost_ul:p=1"), 1);
    sys.setFaultInjector(&injector);

    sys.access(0, MemOp::LR, 100, Area::Heap);
    EXPECT_TRUE(sys.access(1, MemOp::LR, 100, Area::Heap).lockWait);
    sys.access(0, MemOp::U, 100, Area::Heap); // UL lost: pe1 sleeps on.
    try {
        for (int i = 0; i < 100; ++i)
            sys.access(0, MemOp::R, 500 + i, Area::Heap);
        FAIL() << "starvation not detected";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Starvation);
    }
    sys.abandonParkedWaiters();
}

TEST(Watchdog, StuckLwaitPlusSpuriousWakeupIsLivelock)
{
    SystemConfig config = smallConfig(2);
    System sys(config);
    WatchdogConfig bounds;
    bounds.livelockRetries = 5;
    LockWatchdog watchdog(sys, bounds);
    sys.addAccessObserver(&watchdog);
    FaultInjector injector(
        FaultPlan::parse("stuck_lwait:p=1,spurious_wakeup:p=1"), 1);
    sys.setFaultInjector(&injector);

    sys.access(0, MemOp::LR, 100, Area::Heap);
    EXPECT_TRUE(sys.access(1, MemOp::LR, 100, Area::Heap).lockWait);
    // Release leaves a ghost LWAIT answering LH forever; the spurious
    // wakeup un-parks pe1 after every access, so it retries, is
    // rejected by the ghost, and re-parks — livelock.
    sys.access(0, MemOp::U, 100, Area::Heap);
    try {
        for (int i = 0; i < 100; ++i) {
            ASSERT_FALSE(sys.parked(1)) << "spurious wakeup missing";
            sys.access(1, MemOp::LR, 100, Area::Heap);
        }
        FAIL() << "livelock not detected";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Livelock) << fault.what();
        EXPECT_NE(std::string(fault.what()).find("ghost"),
                  std::string::npos)
            << fault.what();
    }
    sys.abandonParkedWaiters();
}

} // namespace
} // namespace pim
