/**
 * @file
 * Software optimization policy: which storage areas use the optimized
 * memory commands.
 *
 * The paper's Table 4 evaluates five configurations: None (no optimized
 * commands), Heap (DW in the heap area only), Goal (ER, RP and DW in the
 * goal area only), Comm (RI in the communication area only), and All.
 * The emulator always *emits* the optimized command it would like; this
 * policy demotes commands that the evaluated configuration does not
 * enable (DW -> W, ER/RP -> R, RI -> R), exactly as an unoptimized
 * compiler would have emitted plain loads and stores.
 */

#ifndef PIMCACHE_SIM_OPT_POLICY_H_
#define PIMCACHE_SIM_OPT_POLICY_H_

#include <string>

#include "trace/ref.h"

namespace pim {

/** Per-area enablement of the optimized commands. */
struct OptPolicy {
    bool heapDw = true;  ///< DW in the heap area.
    bool goalOpt = true; ///< ER, RP and DW in the goal area.
    bool commRi = true;  ///< RI in the communication area.

    /** Demote @p op as the policy requires for @p area. */
    MemOp
    apply(Area area, MemOp op) const
    {
        switch (area) {
          case Area::Heap:
            if ((op == MemOp::DW || op == MemOp::DWD) && !heapDw)
                return MemOp::W;
            return op;
          case Area::Goal:
            if (!goalOpt)
                return demoteMemOp(op);
            return op;
          case Area::Comm:
            if (op == MemOp::RI && !commRi)
                return MemOp::R;
            return op;
          default:
            // No optimized commands are defined for the other areas.
            return demoteMemOp(op);
        }
    }

    static OptPolicy none() { return {false, false, false}; }
    static OptPolicy heapOnly() { return {true, false, false}; }
    static OptPolicy goalOnly() { return {false, true, false}; }
    static OptPolicy commOnly() { return {false, false, true}; }
    static OptPolicy all() { return {true, true, true}; }

    /** The paper's column label for this policy. */
    std::string
    name() const
    {
        if (heapDw && goalOpt && commRi)
            return "All";
        if (!heapDw && !goalOpt && !commRi)
            return "None";
        if (heapDw && !goalOpt && !commRi)
            return "Heap";
        if (!heapDw && goalOpt && !commRi)
            return "Goal";
        if (!heapDw && !goalOpt && commRi)
            return "Comm";
        std::string out;
        if (heapDw)
            out += "Heap+";
        if (goalOpt)
            out += "Goal+";
        if (commRi)
            out += "Comm+";
        if (!out.empty())
            out.pop_back();
        return out;
    }

    bool operator==(const OptPolicy&) const = default;
};

} // namespace pim

#endif // PIMCACHE_SIM_OPT_POLICY_H_
