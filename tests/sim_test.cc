/**
 * @file
 * System-level tests: clock bookkeeping, optimization-policy demotion,
 * trace replay (order, parking, determinism), and aggregate statistics.
 */

#include <gtest/gtest.h>

#include "common/sim_fault.h"
#include "sim/system.h"
#include "sim/trace_replay.h"
#include "trace/synth.h"

namespace pim {
namespace {

SystemConfig
smallSystem(std::uint32_t pes = 4)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry = {4, 2, 8};
    config.memoryWords = 1 << 20;
    return config;
}

TEST(OptPolicy, Presets)
{
    EXPECT_EQ(OptPolicy::none().name(), "None");
    EXPECT_EQ(OptPolicy::heapOnly().name(), "Heap");
    EXPECT_EQ(OptPolicy::goalOnly().name(), "Goal");
    EXPECT_EQ(OptPolicy::commOnly().name(), "Comm");
    EXPECT_EQ(OptPolicy::all().name(), "All");
}

TEST(OptPolicy, DemotionRules)
{
    const OptPolicy none = OptPolicy::none();
    EXPECT_EQ(none.apply(Area::Heap, MemOp::DW), MemOp::W);
    EXPECT_EQ(none.apply(Area::Goal, MemOp::ER), MemOp::R);
    EXPECT_EQ(none.apply(Area::Goal, MemOp::RP), MemOp::R);
    EXPECT_EQ(none.apply(Area::Goal, MemOp::DW), MemOp::W);
    EXPECT_EQ(none.apply(Area::Comm, MemOp::RI), MemOp::R);
    EXPECT_EQ(none.apply(Area::Heap, MemOp::LR), MemOp::LR);

    const OptPolicy heap = OptPolicy::heapOnly();
    EXPECT_EQ(heap.apply(Area::Heap, MemOp::DW), MemOp::DW);
    EXPECT_EQ(heap.apply(Area::Goal, MemOp::DW), MemOp::W);
    EXPECT_EQ(heap.apply(Area::Comm, MemOp::RI), MemOp::R);

    const OptPolicy all = OptPolicy::all();
    EXPECT_EQ(all.apply(Area::Goal, MemOp::ER), MemOp::ER);
    // No optimized commands are defined outside heap/goal/comm.
    EXPECT_EQ(all.apply(Area::Susp, MemOp::DW), MemOp::W);
    EXPECT_EQ(all.apply(Area::Instruction, MemOp::ER), MemOp::R);
}

TEST(System, ClocksAdvanceIndependently)
{
    System sys(smallSystem());
    sys.access(0, MemOp::R, 100, Area::Heap, 0); // miss: 13 cycles
    EXPECT_EQ(sys.clock(0), 13u);
    EXPECT_EQ(sys.clock(1), 0u);
    sys.access(0, MemOp::R, 101, Area::Heap, 0); // hit: 1 cycle
    EXPECT_EQ(sys.clock(0), 14u);
    EXPECT_EQ(sys.makespan(), 14u);
}

TEST(System, EarliestRunnablePicksMinClock)
{
    System sys(smallSystem());
    sys.access(0, MemOp::R, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 200, Area::Heap, 0);
    EXPECT_EQ(sys.earliestRunnable(), 2u); // untouched PEs at clock 0
    sys.advanceClock(2, 100);
    sys.advanceClock(3, 100);
    EXPECT_EQ(sys.earliestRunnable(), 0u);
}

TEST(System, EarliestRunnableSkipsParked)
{
    System sys(smallSystem(2));
    sys.access(0, MemOp::LR, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // parks pe1
    ASSERT_TRUE(sys.parked(1));
    EXPECT_EQ(sys.earliestRunnable(), 0u);
    sys.access(0, MemOp::U, 100, Area::Heap, 0); // wake pe1
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // retry completes
}

TEST(System, RefStatsCountCompletedOnly)
{
    System sys(smallSystem(2));
    sys.access(0, MemOp::LR, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // rejected: not counted
    EXPECT_EQ(sys.refStats().total(), 1u);
    sys.access(0, MemOp::UW, 100, Area::Heap, 1);
    sys.access(1, MemOp::R, 100, Area::Heap, 0); // retry completes
    EXPECT_EQ(sys.refStats().total(), 3u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::LR), 1u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::UW), 1u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::R), 1u);
}

TEST(System, PolicyDemotionVisibleInRefStats)
{
    SystemConfig config = smallSystem(1);
    config.policy = OptPolicy::none();
    System sys(config);
    sys.access(0, MemOp::DW, 100, Area::Heap, 1);
    sys.access(0, MemOp::ER, 100, Area::Goal, 0);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::DW), 0u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::W), 1u);
    EXPECT_EQ(sys.refStats().opTotal(MemOp::R), 1u);
}

TEST(System, FlushAllCachesReachesMemory)
{
    System sys(smallSystem());
    sys.access(0, MemOp::W, 100, Area::Heap, 42);
    sys.access(1, MemOp::W, 200, Area::Heap, 43);
    sys.flushAllCaches();
    EXPECT_EQ(sys.memory().read(100), 42u);
    EXPECT_EQ(sys.memory().read(200), 43u);
    EXPECT_FALSE(sys.cache(0).present(100));
}

TEST(System, TotalCacheStatsAggregates)
{
    System sys(smallSystem(2));
    sys.access(0, MemOp::R, 100, Area::Heap, 0);
    sys.access(1, MemOp::R, 200, Area::Heap, 0);
    const CacheStats total = sys.totalCacheStats();
    EXPECT_EQ(total.accesses, 2u);
    EXPECT_EQ(total.misses, 2u);
}

TEST(TraceReplay, CompletesAllRefs)
{
    System sys(smallSystem());
    RandomTrafficConfig config;
    config.numPes = 4;
    config.refsPerPe = 500;
    config.spanWords = 256;
    const std::vector<MemRef> trace = makeRandomTraffic(config);
    TraceReplay replay(sys, trace);
    replay.run();
    EXPECT_EQ(replay.completed(), trace.size());
    EXPECT_EQ(sys.refStats().total(), trace.size());
}

TEST(TraceReplay, DeterministicAcrossRuns)
{
    RandomTrafficConfig config;
    config.numPes = 4;
    config.refsPerPe = 1000;
    config.lockPctX100 = 500;
    config.spanWords = 128;
    const std::vector<MemRef> trace = makeRandomTraffic(config);

    Cycles cycles[2];
    for (int run = 0; run < 2; ++run) {
        System sys(smallSystem());
        TraceReplay replay(sys, trace);
        replay.run();
        cycles[run] = sys.bus().stats().totalCycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(TraceReplay, LockPairsReplayWithContention)
{
    System sys(smallSystem());
    // Four PEs all lock the same hot word: heavy LWAIT traffic.
    const std::vector<MemRef> trace =
        makeLockTraffic(4, 100, 200, 50, 10000, 7);
    TraceReplay replay(sys, trace);
    replay.run();
    EXPECT_EQ(replay.completed(), trace.size());
    EXPECT_GT(replay.lockRejects(), 0u);
    // Everyone unlocked at the end.
    for (PeId pe = 0; pe < 4; ++pe)
        EXPECT_EQ(sys.cache(pe).lockDirectory().heldCount(), 0u);
}

TEST(TraceReplay, ProducerConsumerOptimizedCheaperThanPlain)
{
    const std::vector<MemRef> optimized =
        makeProducerConsumer(0, 1, 4, 4096, 4096, 8, 200, true);
    const std::vector<MemRef> plain =
        makeProducerConsumer(0, 1, 4, 4096, 4096, 8, 200, false);

    System sys_opt(smallSystem());
    TraceReplay(sys_opt, optimized).run();
    System sys_plain(smallSystem());
    TraceReplay(sys_plain, plain).run();

    EXPECT_LT(sys_opt.bus().stats().totalCycles,
              sys_plain.bus().stats().totalCycles);
    // The optimized handoff avoids all copy-backs to memory.
    EXPECT_EQ(sys_opt.bus().stats().memoryWrites, 0u);
    EXPECT_GT(sys_plain.bus().stats().memoryWrites, 0u);
}

TEST(TraceReplayDeath, UnreleasedLockIsFatal)
{
    System sys(smallSystem(2));
    std::vector<MemRef> trace;
    trace.push_back({100, MemOp::LR, Area::Heap, 0});
    trace.push_back({100, MemOp::R, Area::Heap, 1}); // waits forever
    TraceReplay replay(sys, trace);
    try {
        replay.run();
        FAIL() << "expected a deadlock fault";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Deadlock);
        EXPECT_NE(fault.message().find("pe1 on block 100"),
                  std::string::npos) << fault.message();
    }
    EXPECT_TRUE(sys.pendingWaiters().empty());
}

TEST(TraceReplayDeath, BadPeIsFatal)
{
    System sys(smallSystem(2));
    std::vector<MemRef> trace;
    trace.push_back({100, MemOp::R, Area::Heap, 5});
    EXPECT_DEATH(TraceReplay(sys, trace).run(), "pe");
}

} // namespace
} // namespace pim
