/**
 * @file
 * Trace-driven simulation: replay a recorded or synthetic reference
 * stream through a System.
 *
 * References are issued in trace order (which preserves the producer /
 * consumer dependencies the trace was generated with); each reference
 * runs at its PE's local clock. A PE parked on a remote lock is skipped
 * until the UL broadcast wakes it, at which point its pending reference
 * is retried before the trace proceeds for that PE.
 */

#ifndef PIMCACHE_SIM_TRACE_REPLAY_H_
#define PIMCACHE_SIM_TRACE_REPLAY_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/system.h"
#include "trace/ref.h"

namespace pim {

/** Drives a vector of references through a System. */
class TraceReplay
{
  public:
    /** @param system Target system; @param trace interleaved references. */
    TraceReplay(System& system, const std::vector<MemRef>& trace);

    /**
     * Replay the whole trace. Throws SimFault(Deadlock) if every
     * remaining PE is parked on a lock that no remaining reference will
     * release (a malformed trace).
     */
    void run();

    /** References successfully completed. */
    std::uint64_t completed() const { return completed_; }

    /** Lock-rejected attempts encountered during the replay. */
    std::uint64_t lockRejects() const { return lockRejects_; }

  private:
    System& system_;
    const std::vector<MemRef>& trace_;
    std::uint64_t completed_ = 0;
    std::uint64_t lockRejects_ = 0;
};

} // namespace pim

#endif // PIMCACHE_SIM_TRACE_REPLAY_H_
