/**
 * @file
 * The conformance harness: one full System lock-stepped against the
 * golden RefMachine, with every divergence turned into a SimFault.
 *
 * Per step the harness (1) computes the contract facts the reference
 * needs (fresh allocation, dirty purge) from the System's pre-state,
 * (2) applies the command to both machines, (3) cross-checks lock-wait
 * decisions, read values, the shared block invariants
 * (verify/invariants.h), exact per-pattern bus-cycle accounting, the
 * paper's op-specific claims (zero bus cycles for an exclusive LR hit,
 * SM on a dirty cache-to-cache supply with no memory write, ER purging
 * the supplier and the reader-after-last-word), a full sweep of every
 * defined word against the golden memory, and that every parked PE is
 * actually waiting on a held remote lock.
 *
 * Command generation (enabledCommands) only produces commands whose
 * preconditions hold — locks released by their holder, directory
 * capacity respected, DW only on unlocked unshared blocks, and no
 * command that would close a busy-wait deadlock cycle — so the
 * exhaustive explorer can interleave them freely without tripping
 * driver-contract aborts.
 */

#ifndef PIMCACHE_MODEL_HARNESS_H_
#define PIMCACHE_MODEL_HARNESS_H_

#include <cstdint>
#include <vector>

#include "cache/mutation.h"
#include "cache/protocol.h"
#include "cache/replacement.h"
#include "model/command.h"
#include "model/protocol_model.h"
#include "model/ref_machine.h"
#include "obs/attribution.h"
#include "sim/system.h"

namespace pim {

/** Shape of the explored configuration. */
struct HarnessConfig {
    std::uint32_t numPes = 2;
    std::uint32_t blocks = 1;     ///< Blocks in the explored span.
    std::uint32_t blockWords = 2; ///< Words per block.
    std::uint32_t ways = 1;
    std::uint32_t sets = 1;
    std::uint32_t lockEntries = 2;
    /** Seeded protocol bug to arm (None = faithful protocol). */
    ProtocolMutation mutation = ProtocolMutation::None;
    /**
     * Clustered snooping-bus topology (docs/ARCHITECTURE.md): PEs per
     * cluster (0 = single bus) and the interconnect hop cost. Clustering
     * is a pure timing feature, so every divergence check — including
     * the exact bus accounting and attribution cross-checks — must hold
     * with it on, which the conform suite fuzzes.
     */
    std::uint32_t clusterSize = 0;
    std::uint32_t hopCycles = 4;
    /**
     * Protocol variant under conformance (the zoo, cache/protocol.h).
     * The RefMachine's architectural semantics are protocol-independent;
     * the per-variant golden claims come from protocolGoldenTable().
     */
    ProtocolKind protocol = ProtocolKind::PIM;
    /** Replacement policy under conformance. */
    ReplacementKind replacement = ReplacementKind::LRU;

    /** The explored address span is [0, spanWords()). */
    Addr
    spanWords() const
    {
        return static_cast<Addr>(blocks) * blockWords;
    }

    bool operator==(const HarnessConfig&) const = default;
};

/** System + RefMachine in lock-step; throws SimFault on divergence. */
class ConformanceHarness
{
  public:
    /**
     * @throws SimFault (Config) when @p config does not describe a valid
     * System, before anything is sized from it.
     */
    explicit ConformanceHarness(const HarnessConfig& config);
    ~ConformanceHarness();

    ConformanceHarness(const ConformanceHarness&) = delete;
    ConformanceHarness& operator=(const ConformanceHarness&) = delete;

    /**
     * Make this harness's state equal @p other's: the reference machine,
     * the System (System::copyStateFrom), the attribution engine, the
     * pending retries and the check count. Afterwards both behave
     * identically on every command, as if this one had replayed
     * @p other's trace. The configs must be equal (asserted).
     */
    void copyStateFrom(const ConformanceHarness& other);

    /**
     * Execute @p cmd on both machines and run every cross-check.
     * @p cmd must be enabled (asserted).
     * @throws SimFault (Protocol/Corruption) on the first divergence,
     * with the divergent condition and both machines' views.
     */
    void step(const ProtoCmd& cmd);

    /** True if @p cmd can be stepped right now (preconditions hold). */
    bool enabled(const ProtoCmd& cmd) const;

    /**
     * Every enabled command, deterministically ordered: for each PE its
     * forced retry (if parked-and-woken) or the generated alphabet over
     * the span with per-(PE, op) write values.
     */
    std::vector<ProtoCmd> enabledCommands() const;

    /** step() every command of @p trace in order (all must be enabled). */
    void replay(const std::vector<ProtoCmd>& trace);

    /**
     * step() the enabled commands of @p trace, silently skipping
     * disabled ones — the trace shrinker's replay mode, where removing
     * a chunk can orphan later commands (an unlock whose lock-read was
     * removed, a retry whose park never happened).
     * @return Number of commands actually executed.
     */
    std::size_t replayLenient(const std::vector<ProtoCmd>& trace);

    /**
     * Canonical state of the whole lock-stepped pair: the System's
     * protocol snapshot over the span, each PE's pending retry, and the
     * reference machine. Two harnesses with equal snapshots behave
     * identically on every future command — the explorer's merge key.
     */
    std::vector<std::uint64_t> snapshot() const;

    /** snapshot() into @p out, replacing its contents (reuses capacity). */
    void snapshot(std::vector<std::uint64_t>& out) const;

    /** splitmix64-style hash of snapshot(). */
    std::uint64_t snapshotHash() const;

    /** Cross-check groups executed so far (one per step). */
    std::uint64_t checksRun() const { return checks_; }

    /** True while any PE is parked on a lock. */
    bool anyParked() const;

    const HarnessConfig& config() const { return config_; }
    System& system() { return sys_; }
    const RefMachine& ref() const { return ref_; }
    const AttributionEngine& attribution() const { return attribution_; }

  private:
    Addr blockBaseOf(Addr addr) const
    {
        return addr - addr % config_.blockWords;
    }

    /** Deadlock gate: would @p cmd wait on a PE that cannot progress? */
    bool lockWaitSafe(const ProtoCmd& cmd) const;

    HarnessConfig config_;
    /** Golden per-variant claims for the Divergence-5 checks. */
    ProtocolGoldenTable golden_;
    RefMachine ref_;
    System sys_;
    AttributionEngine attribution_; ///< Always-on bucket-sum cross-check.
    std::vector<ProtoCmd> pending_;  ///< Per-PE retry command.
    std::vector<bool> hasPending_;   ///< Retry valid (parked or woken).
    std::uint64_t checks_ = 0;
    /** step()'s per-PE pre-command block states (reused buffer). */
    std::vector<CacheState> preState_;
};

} // namespace pim

#endif // PIMCACHE_MODEL_HARNESS_H_
