/**
 * @file
 * Conformance-engine tests: the golden RefMachine semantics, the
 * command/replay language, the lock-stepped harness, the exhaustive
 * explorer (clean protocol passes; every seeded mutation is caught),
 * and the trace fuzzer with ddmin shrinking (docs/TESTING.md).
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <utility>

#include "common/sim_fault.h"
#include "model/explorer.h"
#include "model/fuzzer.h"

namespace pim {
namespace {

ProtoCmd
cmd(PeId pe, MemOp op, Addr addr, Word value = 0)
{
    return ProtoCmd{pe, op, addr, value};
}

// ---------------------------------------------------------------- commands

TEST(Command, ToStringFormats)
{
    EXPECT_EQ(cmdToString(cmd(0, MemOp::W, 5, 3)), "P0:W@5=3");
    EXPECT_EQ(cmdToString(cmd(1, MemOp::R, 2)), "P1:R@2");
    EXPECT_EQ(cmdToString(cmd(2, MemOp::LR, 7)), "P2:LR@7");
    EXPECT_EQ(cmdToString(cmd(0, MemOp::UW, 1, 9)), "P0:UW@1=9");
}

TEST(Command, TraceRoundTrips)
{
    const std::vector<ProtoCmd> trace = {
        cmd(0, MemOp::LR, 0),       cmd(1, MemOp::R, 1),
        cmd(0, MemOp::UW, 0, 12),   cmd(1, MemOp::DW, 2, 5),
        cmd(2, MemOp::ER, 3),       cmd(0, MemOp::RP, 2),
    };
    EXPECT_EQ(parseTrace(traceToString(trace)), trace);
}

TEST(Command, ParseIgnoresWhitespaceAndEmpties)
{
    const std::vector<ProtoCmd> trace =
        parseTrace("  P0:W@0=1 ; ;\n P1:R@0 ;");
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0], cmd(0, MemOp::W, 0, 1));
    EXPECT_EQ(trace[1], cmd(1, MemOp::R, 0));
}

TEST(Command, ParseRejectsGarbage)
{
    for (const char* bad : {"X0:W@0=1", "P0W@0", "P0:ZZ@0", "P0:W@x=1"}) {
        try {
            parseTrace(bad);
            FAIL() << "accepted: " << bad;
        } catch (const SimFault& fault) {
            EXPECT_EQ(fault.kind(), SimFaultKind::Parse) << bad;
        }
    }
}

// -------------------------------------------------------------- RefMachine

TEST(RefMachine, WriteThenReadIsChecked)
{
    RefMachine ref(2, 2, 8, 2);
    ref.apply(cmd(0, MemOp::W, 3, 42), {});
    const RefOutcome out = ref.apply(cmd(1, MemOp::R, 3), {});
    EXPECT_FALSE(out.lockWait);
    EXPECT_TRUE(out.checked);
    EXPECT_EQ(out.value, 42u);
}

TEST(RefMachine, LockWaitLeavesStateUnchanged)
{
    RefMachine ref(2, 2, 8, 2);
    ref.apply(cmd(0, MemOp::W, 0, 7), {});
    ref.apply(cmd(0, MemOp::LR, 1), {}); // locks word 1, block [0,2)
    EXPECT_TRUE(ref.wouldLockWait(1, 0)); // same block, other PE
    const RefOutcome out = ref.apply(cmd(1, MemOp::R, 0), {});
    EXPECT_TRUE(out.lockWait);
    EXPECT_FALSE(out.checked);
    EXPECT_EQ(ref.valueOf(0), 7u); // untouched
    EXPECT_FALSE(ref.wouldLockWait(0, 0)); // own lock never waits
}

TEST(RefMachine, UnlockWriteReleasesAndDefines)
{
    RefMachine ref(2, 2, 8, 2);
    ref.apply(cmd(0, MemOp::LR, 0), {});
    EXPECT_TRUE(ref.holdsLock(0, 0));
    EXPECT_EQ(ref.heldCount(0), 1u);
    ref.apply(cmd(0, MemOp::UW, 0, 5), {});
    EXPECT_FALSE(ref.holdsLock(0, 0));
    EXPECT_EQ(ref.heldCount(0), 0u);
    EXPECT_EQ(ref.valueOf(0), 5u);
    EXPECT_FALSE(ref.wouldLockWait(1, 0));
}

TEST(RefMachine, FreshDwZeroesBlock)
{
    RefMachine ref(2, 2, 8, 2);
    ref.apply(cmd(0, MemOp::W, 1, 99), {});
    RefPreFacts pre;
    pre.freshAlloc = true;
    ref.apply(cmd(0, MemOp::DW, 0, 4), pre);
    EXPECT_EQ(ref.valueOf(0), 4u);
    EXPECT_EQ(ref.valueOf(1), 0u) << "fresh alloc must zero the block";
}

TEST(RefMachine, DirtyPurgeUndefinesBlock)
{
    RefMachine ref(2, 2, 8, 2);
    ref.apply(cmd(0, MemOp::W, 0, 3), {});
    EXPECT_TRUE(ref.isDefined(0));
    RefPreFacts pre;
    pre.purgesDirty = true;
    const RefOutcome out = ref.apply(cmd(0, MemOp::RP, 0), pre);
    EXPECT_TRUE(out.checked);
    EXPECT_EQ(out.value, 3u); // the purging read still sees the value
    EXPECT_FALSE(ref.isDefined(0));
    EXPECT_FALSE(ref.isDefined(1));
}

// ----------------------------------------------------------------- harness

HarnessConfig
tinyConfig(ProtocolMutation mutation = ProtocolMutation::None)
{
    HarnessConfig config;
    config.numPes = 2;
    config.blocks = 1;
    config.blockWords = 2;
    config.mutation = mutation;
    return config;
}

TEST(Harness, CleanHandoffSequencePasses)
{
    ConformanceHarness harness(tinyConfig());
    // Producer locks, consumer parks, UW hands the value over, the
    // woken consumer retries — the paper's Section 3.1 choreography.
    harness.step(cmd(0, MemOp::LR, 0));
    const std::vector<ProtoCmd> park = {cmd(1, MemOp::R, 0)};
    harness.step(park[0]); // parks
    EXPECT_TRUE(harness.anyParked());
    harness.step(cmd(0, MemOp::UW, 0, 11));
    // After the UL wakeup the only enabled P1 command is its retry.
    bool retried = false;
    for (const ProtoCmd& next : harness.enabledCommands()) {
        if (next.pe == 1) {
            EXPECT_EQ(next, park[0]);
            harness.step(next);
            retried = true;
            break;
        }
    }
    EXPECT_TRUE(retried);
    EXPECT_FALSE(harness.anyParked());
    EXPECT_GE(harness.checksRun(), 4u);
}

TEST(Harness, SnapshotIsScheduleCanonical)
{
    // Two different paths to the same protocol situation must merge.
    ConformanceHarness a(tinyConfig());
    a.step(cmd(0, MemOp::W, 0, 1));
    a.step(cmd(1, MemOp::R, 1));

    ConformanceHarness b(tinyConfig());
    b.step(cmd(1, MemOp::R, 1));
    b.step(cmd(0, MemOp::W, 0, 1));

    // Same final states (P0 wrote after P1's read invalidated nothing
    // both orders end EM@P0-after-inv vs ... — only assert determinism
    // of the snapshot for identical replays here).
    ConformanceHarness c(tinyConfig());
    c.step(cmd(0, MemOp::W, 0, 1));
    c.step(cmd(1, MemOp::R, 1));
    EXPECT_EQ(a.snapshot(), c.snapshot());
    EXPECT_EQ(a.snapshotHash(), c.snapshotHash());
    EXPECT_NE(a.snapshot(), b.snapshot()); // LRU/ownership order differs
}

TEST(Harness, InvalidConfigIsAConfigFaultBeforeSizing)
{
    // A wrapped negative block size used to size the reference machine
    // (and die in std::bad_alloc) before the System validated it.
    HarnessConfig config = tinyConfig();
    config.blockWords = static_cast<std::uint32_t>(-2);
    try {
        ConformanceHarness harness(config);
        FAIL() << "accepted blockWords " << config.blockWords;
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Config);
        EXPECT_NE(fault.message().find("blockWords"), std::string::npos)
            << fault.message();
    }
}

TEST(Harness, CopyStateBehavesLikeTheSource)
{
    ConformanceHarness source(tinyConfig());
    source.step(cmd(0, MemOp::LR, 0));
    source.step(cmd(1, MemOp::R, 0)); // parks on P0's lock

    ConformanceHarness copy(tinyConfig());
    copy.step(cmd(1, MemOp::W, 1, 2)); // state the copy must overwrite
    copy.copyStateFrom(source);
    EXPECT_EQ(copy.snapshot(), source.snapshot());
    EXPECT_TRUE(copy.anyParked());
    EXPECT_EQ(copy.enabledCommands(), source.enabledCommands());

    // The same unlock wakes the same waiter in both, and diverging
    // afterwards leaves the source where it was.
    copy.step(cmd(0, MemOp::UW, 0, 11));
    source.step(cmd(0, MemOp::UW, 0, 11));
    EXPECT_EQ(copy.snapshot(), source.snapshot());
    const std::vector<std::uint64_t> before = source.snapshot();
    copy.step(cmd(1, MemOp::R, 0));
    EXPECT_EQ(source.snapshot(), before);
    EXPECT_NE(copy.snapshot(), before);
}

TEST(Harness, EnabledRespectsLockOwnership)
{
    ConformanceHarness harness(tinyConfig());
    EXPECT_FALSE(harness.enabled(cmd(0, MemOp::U, 0))) << "no lock held";
    harness.step(cmd(0, MemOp::LR, 0));
    EXPECT_TRUE(harness.enabled(cmd(0, MemOp::U, 0)));
    EXPECT_FALSE(harness.enabled(cmd(1, MemOp::U, 0)));
    EXPECT_FALSE(harness.enabled(cmd(0, MemOp::LR, 0))) << "already held";
}

// ---------------------------------------------------------------- explorer

TEST(Explorer, CleanProtocolHasNoDivergence)
{
    ExploreConfig config;
    config.harness = tinyConfig();
    config.depth = 5;
    const ExploreResult result = explore(config);
    EXPECT_FALSE(result.divergence) << result.divergenceMessage;
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.states, 9660u);
    EXPECT_EQ(result.edges, 63004u);
    // One step per edge plus one per node rebuilt past the prefix it
    // shares with the node built before it.
    EXPECT_EQ(result.checks, 76491u);
}

TEST(Explorer, ThreePeTwoBlockCleanSlice)
{
    ExploreConfig config;
    config.harness = tinyConfig();
    config.harness.numPes = 3;
    config.harness.blocks = 2;
    config.harness.sets = 2;
    config.depth = 4;
    const ExploreResult result = explore(config);
    EXPECT_FALSE(result.divergence) << result.divergenceMessage;
    EXPECT_EQ(result.states, 325284u);
    EXPECT_EQ(result.edges, 1352064u);
}

class ExplorerMutation
    : public ::testing::TestWithParam<ProtocolMutation>
{
};

TEST_P(ExplorerMutation, IsCaughtWithShortTrace)
{
    ExploreConfig config;
    config.harness = tinyConfig(GetParam());
    config.depth = 8;
    const ExploreResult result = explore(config);
    ASSERT_TRUE(result.divergence)
        << "mutation " << protocolMutationName(GetParam())
        << " was not detected";
    EXPECT_LE(result.divergenceTrace.size(), 12u);
    EXPECT_FALSE(result.divergenceMessage.empty());
    // The search reaches the divergence through the same states and
    // edges on every build of the explorer.
    struct Counts {
        ProtocolMutation mutation;
        std::uint64_t states;
        std::uint64_t edges;
    };
    for (const Counts& want :
         {Counts{ProtocolMutation::SmSharedAsClean, 21, 69},
          Counts{ProtocolMutation::WriteSharedSkipsInv, 139, 398},
          Counts{ProtocolMutation::ErKeepsSupplier, 16, 46},
          Counts{ProtocolMutation::UnlockDropsUl, 306, 860}}) {
        if (want.mutation == GetParam()) {
            EXPECT_EQ(result.states, want.states);
            EXPECT_EQ(result.edges, want.edges);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, ExplorerMutation,
    ::testing::Values(ProtocolMutation::SmSharedAsClean,
                      ProtocolMutation::WriteSharedSkipsInv,
                      ProtocolMutation::ErKeepsSupplier,
                      ProtocolMutation::UnlockDropsUl),
    [](const ::testing::TestParamInfo<ProtocolMutation>& info) {
        return protocolMutationName(info.param);
    });

// --------------------------------------------------------------- branching

/**
 * Everything copyStateFrom must carry, including what snapshot() leaves
 * out: bus and cache statistics, clocks, reference counts, the check
 * count and the attribution tallies.
 */
void
expectSameState(ConformanceHarness& branched, ConformanceHarness& replayed,
                const std::string& trace)
{
    EXPECT_EQ(branched.snapshot(), replayed.snapshot()) << trace;
    EXPECT_EQ(branched.checksRun(), replayed.checksRun()) << trace;
    const System& a = branched.system();
    const System& b = replayed.system();
    EXPECT_TRUE(a.bus().stats() == b.bus().stats()) << trace;
    for (PeId pe = 0; pe < a.numPes(); ++pe) {
        EXPECT_EQ(a.clock(pe), b.clock(pe)) << trace;
        EXPECT_TRUE(a.cache(pe).stats() == b.cache(pe).stats()) << trace;
    }
    for (int area = 0; area < kNumAreaSlots; ++area) {
        for (int op = 0; op < kNumMemOps; ++op) {
            EXPECT_EQ(a.refStats().count(static_cast<Area>(area),
                                         static_cast<MemOp>(op)),
                      b.refStats().count(static_cast<Area>(area),
                                         static_cast<MemOp>(op)))
                << trace;
        }
    }
    EXPECT_EQ(branched.attribution().crossCheck(a.bus().stats()), "")
        << trace;
    EXPECT_EQ(branched.attribution().report(),
              replayed.attribution().report())
        << trace;
}

/**
 * Walk every node of the exploration of @p config to @p depth in BFS
 * order. Each node is built by branching: copying its parent's state
 * into a harness that held an unrelated state, then stepping one
 * command, down the node's whole trace. It must equal a fresh replay
 * of the trace. @return Distinct states walked.
 */
std::uint64_t
walkBranchedNodes(const HarnessConfig& config, std::uint32_t depth)
{
    ConformanceHarness root(config);
    ConformanceHarness ping(config);
    ConformanceHarness pong(config);
    std::set<std::vector<std::uint64_t>> visited = {root.snapshot()};
    std::deque<std::vector<ProtoCmd>> frontier = {{}};
    while (!frontier.empty()) {
        const std::vector<ProtoCmd> trace = std::move(frontier.front());
        frontier.pop_front();

        ConformanceHarness* node = &ping;
        ConformanceHarness* spare = &pong;
        node->copyStateFrom(root);
        for (const ProtoCmd& next : trace) {
            spare->copyStateFrom(*node);
            spare->step(next);
            std::swap(node, spare);
        }
        ConformanceHarness replayed(config);
        replayed.replay(trace);
        expectSameState(*node, replayed, traceToString(trace));
        if (::testing::Test::HasFailure() || trace.size() >= depth)
            continue;

        for (const ProtoCmd& next : node->enabledCommands()) {
            spare->copyStateFrom(*node);
            spare->step(next);
            if (visited.insert(spare->snapshot()).second) {
                std::vector<ProtoCmd> extended = trace;
                extended.push_back(next);
                frontier.push_back(std::move(extended));
            }
        }
    }
    return visited.size();
}

TEST(ExplorerBranching, EveryNodeMatchesAFreshReplay)
{
    HarnessConfig config = tinyConfig();
    EXPECT_EQ(walkBranchedNodes(config, 6), 20332u);

    config.protocol = ProtocolKind::Dragon;
    EXPECT_EQ(walkBranchedNodes(config, 6), 21472u);

    config = tinyConfig();
    config.numPes = 3;
    config.clusterSize = 1;
    EXPECT_EQ(walkBranchedNodes(config, 3), 4127u);

    // Eviction pressure (three one-word blocks in two ways): the LRU
    // ticks and the random-replacement RNG must survive the copy.
    config = tinyConfig();
    config.blocks = 3;
    config.blockWords = 1;
    config.ways = 2;
    EXPECT_EQ(walkBranchedNodes(config, 3), 4585u);
    config.replacement = ReplacementKind::Random;
    EXPECT_EQ(walkBranchedNodes(config, 3), 4777u);
}

// ------------------------------------------------------------------ fuzzer

TEST(Fuzzer, CleanProtocolSurvivesCampaign)
{
    FuzzConfig config;
    config.harness = tinyConfig();
    config.harness.numPes = 3;
    config.harness.blocks = 2;
    config.harness.sets = 2;
    config.seed = 11;
    config.traces = 8;
    config.len = 120;
    const FuzzResult result = fuzz(config);
    EXPECT_FALSE(result.divergence) << result.divergenceMessage;
    EXPECT_EQ(result.tracesRun, 8u);
    EXPECT_GT(result.commandsRun, 0u);
}

TEST(Fuzzer, IsDeterministicPerSeed)
{
    FuzzConfig config;
    config.harness = tinyConfig(ProtocolMutation::UnlockDropsUl);
    config.seed = 3;
    config.traces = 20;
    config.len = 200;
    const FuzzResult a = fuzz(config);
    const FuzzResult b = fuzz(config);
    ASSERT_TRUE(a.divergence);
    EXPECT_EQ(a.failingSeed, b.failingSeed);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.shrunk, b.shrunk);
}

class FuzzerMutation : public ::testing::TestWithParam<ProtocolMutation>
{
};

TEST_P(FuzzerMutation, ShrinksToTinyReproducer)
{
    FuzzConfig config;
    config.harness = tinyConfig(GetParam());
    config.seed = 5;
    config.traces = 40;
    config.len = 250;
    const FuzzResult result = fuzz(config);
    ASSERT_TRUE(result.divergence)
        << "mutation " << protocolMutationName(GetParam())
        << " escaped the fuzzer";
    ASSERT_FALSE(result.shrunk.empty());
    EXPECT_LE(result.shrunk.size(), 12u);
    EXPECT_LE(result.shrunk.size(), result.trace.size());
    EXPECT_FALSE(result.shrunkMessage.empty());

    // The shrunk script must replay to the same class of divergence.
    ConformanceHarness replayer(config.harness);
    bool reproduced = false;
    try {
        replayer.replayLenient(result.shrunk);
        reproduced = replayer.enabledCommands().empty() &&
                     replayer.anyParked();
    } catch (const SimFault&) {
        reproduced = true;
    }
    EXPECT_TRUE(reproduced);

    // Local minimality: dropping any single command loses the bug.
    for (std::size_t skip = 0; skip < result.shrunk.size(); ++skip) {
        std::vector<ProtoCmd> smaller;
        for (std::size_t i = 0; i < result.shrunk.size(); ++i) {
            if (i != skip)
                smaller.push_back(result.shrunk[i]);
        }
        ConformanceHarness lens(config.harness);
        bool still = false;
        try {
            lens.replayLenient(smaller);
            still = lens.enabledCommands().empty() && lens.anyParked();
        } catch (const SimFault&) {
            still = true;
        }
        EXPECT_FALSE(still) << "command " << skip << " is removable";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, FuzzerMutation,
    ::testing::Values(ProtocolMutation::SmSharedAsClean,
                      ProtocolMutation::WriteSharedSkipsInv,
                      ProtocolMutation::ErKeepsSupplier,
                      ProtocolMutation::UnlockDropsUl),
    [](const ::testing::TestParamInfo<ProtocolMutation>& info) {
        return protocolMutationName(info.param);
    });

TEST(Fuzzer, ShrinkTraceKeepsDivergence)
{
    // Hand the shrinker a long trace with one embedded bug trigger and
    // plenty of chaff; it must strip the chaff.
    const HarnessConfig config = tinyConfig(ProtocolMutation::ErKeepsSupplier);
    std::vector<ProtoCmd> trace;
    for (int i = 0; i < 10; ++i)
        trace.push_back(cmd(0, MemOp::W, 1, static_cast<Word>(i + 1)));
    trace.push_back(cmd(0, MemOp::R, 0));
    trace.push_back(cmd(1, MemOp::ER, 0));
    std::string message;
    const std::vector<ProtoCmd> shrunk =
        shrinkTrace(config, trace, &message);
    EXPECT_LE(shrunk.size(), 2u);
    EXPECT_FALSE(message.empty());
}

} // namespace
} // namespace pim
