/**
 * @file
 * The serialized RefSource driver (runParallelCore, docs/ARCHITECTURE.md
 * "Threading model"): a differential against a hand-rolled legacy
 * driver loop at the PE counts the tools accept, flat and clustered,
 * over lock, optimized-command and write-through mixes; and the
 * classified deadlock it throws when every unfinished PE is parked.
 */

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_fault.h"
#include "sim/par_workload.h"
#include "sim/parallel_core.h"
#include "sim/system.h"

namespace pim {
namespace {

/** Everything the driver must reproduce bit for bit. */
struct Observables {
    Cycles makespan = 0;
    std::uint64_t busTransactions = 0;
    Cycles busCycles = 0;
    Cycles interClusterCycles = 0;
    std::uint64_t protocolHash = 0;
    std::uint64_t refTotal = 0;
    std::uint64_t refWrites = 0;
    std::vector<std::uint64_t> snapshot;

    bool operator==(const Observables& o) const = default;
};

Observables
collect(const System& system, std::uint64_t mem_words)
{
    Observables obs;
    obs.makespan = system.makespan();
    for (int p = 0; p < kNumBusPatterns; ++p)
        obs.busTransactions += system.bus().stats().transByPattern[p];
    obs.busCycles = system.bus().stats().totalCycles;
    obs.interClusterCycles = system.bus().stats().interClusterCycles;
    obs.protocolHash = system.protocolHash(0, mem_words);
    obs.refTotal = system.refStats().total();
    obs.refWrites = system.refStats().opTotal(MemOp::W);
    obs.snapshot = system.protocolSnapshot(0, mem_words);
    return obs;
}

/** Workload mixes (the shapes of the former jobs-invariance tests). */
enum class Mix { Default, LockMix, Optimized, WriteThrough };

const char*
mixName(Mix mix)
{
    switch (mix) {
      case Mix::Default:      return "default";
      case Mix::LockMix:      return "lockmix";
      case Mix::Optimized:    return "optimized";
      case Mix::WriteThrough: return "writethrough";
    }
    return "?";
}

struct DriverCase {
    std::uint32_t pes = 0;
    bool clustered = false;
    Mix mix = Mix::Default;

    /** "6pes_flat_default": the test name suffix and printed value. */
    std::string
    name() const
    {
        return std::to_string(pes) + "pes_" +
               (clustered ? "clustered_" : "flat_") + mixName(mix);
    }
};

void
PrintTo(const DriverCase& c, std::ostream* os)
{
    *os << c.name();
}

class ParallelCoreTest : public ::testing::TestWithParam<DriverCase>
{
};

TEST_P(ParallelCoreTest, SerializedMatchesManualDriverLoop)
{
    const DriverCase& c = GetParam();
    ParShape shape;
    // About 12K references per run, whatever the PE count.
    shape.stepsPerPe = std::max<std::uint64_t>(100, 12000 / c.pes);
    SystemConfig config;
    config.numPes = c.pes;
    switch (c.mix) {
      case Mix::Default:
        break;
      case Mix::LockMix:
        shape.lockPct = 25;
        shape.sharedPct = 5;
        break;
      case Mix::Optimized:
        shape.optPct = 30;
        shape.sharedPct = 4;
        break;
      case Mix::WriteThrough:
        config.cache.writeThrough = true;
        break;
    }
    if (c.clustered) {
        // Clusters of 8; the 6-PE point uses 2 so that it, too, spans
        // more than one cluster.
        config.cluster.clusterSize = c.pes < 16 ? 2 : 8;
        config.cluster.hopCycles = 2;
    }

    // Manual legacy loop: always step the (clock, pe)-minimal live PE,
    // pulling its next operation only after selecting it.
    ParWorkloadSource manual_source(shape, c.pes, 4);
    config.memoryWords = manual_source.memoryWords();
    Observables manual;
    std::uint64_t manual_refs = 0;
    {
        System system(config);
        std::vector<std::optional<ParOp>> pending(c.pes);
        std::vector<bool> done(c.pes, false);
        while (true) {
            PeId best = kNoPe;
            for (PeId pe = 0; pe < c.pes; ++pe) {
                if (done[pe] || system.parked(pe))
                    continue;
                if (best == kNoPe ||
                    system.clock(pe) < system.clock(best))
                    best = pe;
            }
            if (best == kNoPe)
                break;
            if (!pending[best].has_value()) {
                ParOp op;
                if (!manual_source.next(best, &op)) {
                    done[best] = true;
                    continue;
                }
                pending[best] = op;
            }
            const ParOp& op = *pending[best];
            const System::Access access =
                system.access(best, op.op, op.addr, op.area, op.wdata);
            if (!access.lockWait) {
                manual_source.complete(best, op, access.data);
                pending[best].reset();
                manual_refs += 1;
            }
        }
        manual = collect(system, config.memoryWords);
    }
    EXPECT_GT(manual.busTransactions, 0u);
    if (c.clustered) {
        EXPECT_GT(manual.interClusterCycles, 0u);
    }

    ParWorkloadSource core_source(shape, c.pes, 4);
    System system(config);
    const ParallelRunResult result =
        runParallelCore(system, core_source, ParallelCoreOptions{});
    EXPECT_EQ(result.completedRefs, manual_refs);
    EXPECT_GE(result.completedRefs, shape.stepsPerPe * c.pes);
    EXPECT_TRUE(collect(system, config.memoryWords) == manual);
}

std::vector<DriverCase>
driverCases()
{
    std::vector<DriverCase> cases;
    for (std::uint32_t pes : {6u, 32u, 64u, 128u}) {
        for (bool clustered : {false, true}) {
            for (Mix mix : {Mix::Default, Mix::LockMix, Mix::Optimized,
                            Mix::WriteThrough}) {
                cases.push_back({pes, clustered, mix});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelCoreTest, ::testing::ValuesIn(driverCases()),
    [](const ::testing::TestParamInfo<DriverCase>& info) {
        return info.param.name();
    });

// ---------------------------------------------------------------------
// Classified deadlock
// ---------------------------------------------------------------------

/** Per-PE scripted operation lists. */
class ScriptSource : public RefSource
{
  public:
    explicit ScriptSource(std::vector<std::vector<ParOp>> script)
        : script_(std::move(script)), next_(script_.size(), 0)
    {
    }

    bool
    next(PeId pe, ParOp* out) override
    {
        if (next_[pe] == script_[pe].size())
            return false;
        *out = script_[pe][next_[pe]++];
        return true;
    }

  private:
    std::vector<std::vector<ParOp>> script_;
    std::vector<std::size_t> next_;
};

TEST(ParallelCoreDeadlock, CrossedLocksThrowNamingParkedPes)
{
    // PE0 locks word 0 then wants word 64; PE1 locks word 64 then wants
    // word 0: each parks on the block the other holds.
    SystemConfig config;
    config.numPes = 2;
    config.memoryWords = 128;
    System system(config);
    const auto lr = [](Addr addr) {
        return ParOp{MemOp::LR, addr, Area::Heap, 0};
    };
    ScriptSource source({{lr(0), lr(64)}, {lr(64), lr(0)}});
    try {
        runParallelCore(system, source, ParallelCoreOptions{});
        FAIL() << "expected a deadlock fault";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Deadlock);
        EXPECT_NE(fault.message().find("runParallelCore"),
                  std::string::npos) << fault.message();
        EXPECT_NE(fault.message().find("pe0 on block 64"),
                  std::string::npos) << fault.message();
        EXPECT_NE(fault.message().find("pe1 on block 0"),
                  std::string::npos) << fault.message();
    }
    // The fault abandoned the parked waiters, so tearing the System
    // down passes its parked-PE leak check.
    EXPECT_TRUE(system.pendingWaiters().empty());
}

} // namespace
} // namespace pim
