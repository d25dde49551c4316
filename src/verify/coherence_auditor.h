/**
 * @file
 * Runtime checker of the paper's coherence invariants (Section 3).
 *
 * Attached to a System as an AccessObserver, the auditor re-checks the
 * protocol's correctness conditions on the touched block after every
 * memory operation, and maintains a shadow copy of every written word so
 * that data corruption (from injected faults or real protocol bugs) is
 * caught at the first read that returns a wrong value.
 *
 * The invariants themselves live in verify/invariants.h (shared with the
 * offline conformance engine in src/model): at most one dirty copy, no
 * exclusive copy coexisting with others, all copies agree word-for-word,
 * clean copies match memory unless purge-marked, and a held lock implies
 * no remote copy of the locked block.
 *
 * The first violation throws a SimFault (Protocol for state/copy
 * violations, Corruption for shadow-value mismatches) with full context:
 * PE, operation, address, per-cache block states and the differing words.
 */

#ifndef PIMCACHE_VERIFY_COHERENCE_AUDITOR_H_
#define PIMCACHE_VERIFY_COHERENCE_AUDITOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "sim/system.h"
#include "verify/invariants.h"

namespace pim {

/** Per-access coherence invariant checker + shadow memory. */
class CoherenceAuditor : public AccessObserver
{
  public:
    /** Observes @p system; call system.addAccessObserver(&auditor). */
    explicit CoherenceAuditor(System& system);

    /**
     * Check every valid block in every cache plus the whole shadow
     * memory (end-of-run sweep; per-access checks only cover the block
     * being touched). Throws SimFault on the first violation.
     */
    void auditFull();

    /** Per-access invariant checks executed so far. */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Words currently tracked by the shadow memory. */
    std::uint64_t shadowWords() const
    {
        return static_cast<std::uint64_t>(shadow_.size());
    }

    // AccessObserver ------------------------------------------------------
    void beforeAccess(PeId pe, MemOp op, Addr addr, Area area) override;
    void afterAccess(PeId pe, MemOp op, Addr addr, Area area, Word data,
                     Word wdata, bool lock_wait) override;

  private:
    Addr blockBaseOf(Addr addr) const;

    /** Shared block invariants for the block containing @p addr. */
    void auditBlock(Addr block_base, const CheckContext& context);

    /** Shadow check for one read. */
    void checkReadValue(PeId pe, MemOp op, Addr addr, Word data);

    /** "pe0=EM pe1=INV ..." for the block, for violation messages. */
    std::string describeBlock(Addr block_base) const;

    System& system_;
    std::uint32_t blockWords_;
    /** Last value written per word (only words some PE wrote). */
    std::unordered_map<Addr, Word> shadow_;
    /** beforeAccess: would this DW/DWD zero-fill a fresh block? */
    bool pendingFreshAlloc_ = false;
    std::uint64_t checksRun_ = 0;
};

} // namespace pim

#endif // PIMCACHE_VERIFY_COHERENCE_AUDITOR_H_
