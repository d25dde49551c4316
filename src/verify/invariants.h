/**
 * @file
 * The paper's protocol invariants as a shared, reusable library.
 *
 * Both runtime checkers (the CoherenceAuditor attached to live Systems)
 * and offline checkers (the src/model conformance engine: exhaustive
 * explorer and differential trace fuzzer) enforce the same conditions,
 * so a new invariant added here strengthens every tier of testing at
 * once (docs/TESTING.md).
 *
 * Per-block state invariants (paper Section 3, states EM/EC/SM/S/INV):
 *  1. At most one cache holds the block dirty (EM or SM).
 *  2. If any cache holds it exclusive (EM or EC), no other copy exists.
 *  3. All valid copies agree word-for-word (SM supplies S copies without
 *     updating memory, so copies must agree even while memory is stale).
 *  4. With no dirty copy anywhere, valid copies match shared memory —
 *     unless the block is purge-marked (ER/RP dropped the last dirty
 *     copy by software contract; Bus::purgedDirtyMarked).
 *  5. While a PE holds a lock on any word of the block, no *other*
 *     cache holds a valid copy: lock acquisition gains exclusiveness
 *     (I/FI + LK) and the LH response inhibits remote fetches until UL.
 *
 * Per-transaction bus-accounting invariant: every BusStats delta must
 * decompose into whole transactions, each charged exactly its paper
 * Section 4.2 pattern cost (13/7/10/5/2 cycles with the default
 * timing) — checked by comparing per-pattern cycle and transaction
 * deltas against BusTiming.
 */

#ifndef PIMCACHE_VERIFY_INVARIANTS_H_
#define PIMCACHE_VERIFY_INVARIANTS_H_

#include <ostream>
#include <string>
#include <type_traits>

#include "bus/bus.h"
#include "common/types.h"

namespace pim {

class System;

/**
 * The who/what/when prefix of a violation message ("step P0:W@0=1",
 * "after pe2 R at address 7"), built only when a check fails: the
 * checks run on every step of the explorer and every audited access,
 * and formatting the prefix up front cost more than the checks. Wraps
 * a fixed string or any callable returning std::string; the wrapped
 * object must outlive the context.
 */
class CheckContext
{
  public:
    CheckContext(const char* text)
        : object_(text),
          build_([](const void* object) {
              return std::string(static_cast<const char*>(object));
          })
    {
    }

    template <typename Fn,
              typename = std::enable_if_t<
                  std::is_invocable_r_v<std::string, const Fn&>>>
    CheckContext(const Fn& build)
        : object_(&build),
          build_([](const void* object) {
              return std::string((*static_cast<const Fn*>(object))());
          })
    {
    }

    /** The prefix text. */
    std::string str() const { return build_(object_); }

  private:
    const void* object_;
    std::string (*build_)(const void*);
};

inline std::ostream&
operator<<(std::ostream& out, const CheckContext& context)
{
    return out << context.str();
}

/**
 * "block N [pe0=EM pe1=INV ...] memory: ..." — the per-cache states and
 * memory words of the block, for violation messages.
 */
std::string describeBlockState(const System& system, Addr block_base);

/**
 * Check invariants 1-5 for the block containing @p block_base.
 * @param context Prefix for the violation message (who/what/when).
 * @throws SimFault (Protocol) on the first violation.
 */
void checkBlockInvariants(const System& system, Addr block_base,
                          const CheckContext& context);

/**
 * Check the bus-accounting invariant over the delta from @p before to
 * @p after: for every BusPattern, the cycle delta must equal the
 * transaction delta times the pattern's BusTiming cost, and the total
 * must equal the per-pattern sum.
 * @throws SimFault (Protocol) on a mismatch.
 */
void checkBusAccounting(const BusStats& before, const BusStats& after,
                        const BusTiming& timing,
                        const CheckContext& context);

/** The fixed BusTiming cost of one transaction of @p pattern. */
Cycles busPatternCost(BusPattern pattern, const BusTiming& timing);

} // namespace pim

#endif // PIMCACHE_VERIFY_INVARIANTS_H_
