#include "model/explorer.h"

#include <deque>
#include <memory>
#include <unordered_set>

#include "common/hash.h"
#include "common/sim_fault.h"

namespace pim {

namespace {

struct SnapshotHash {
    std::size_t
    operator()(const std::vector<std::uint64_t>& snapshot) const
    {
        return static_cast<std::size_t>(
            hashWords(snapshot.data(), snapshot.size()));
    }
};

} // namespace

ExploreResult
explore(const ExploreConfig& config)
{
    ExploreResult result;
    // Keyed by the exact snapshot, not a hash of it: a collision would
    // silently drop a state. Each key is stored at its exact size.
    std::unordered_set<std::vector<std::uint64_t>, SnapshotHash> visited;
    std::deque<std::vector<ProtoCmd>> frontier;
    std::vector<std::uint64_t> snapshot;

    // path[d] is the node at depth d of the last trace built (built);
    // child is the scratch harness every edge branches into.
    std::vector<std::unique_ptr<ConformanceHarness>> path;
    path.push_back(std::make_unique<ConformanceHarness>(config.harness));
    std::vector<ProtoCmd> built;
    ConformanceHarness child(config.harness);

    path[0]->snapshot(snapshot);
    visited.insert(snapshot);
    frontier.push_back({});
    result.states = 1;

    while (!frontier.empty()) {
        const std::vector<ProtoCmd> trace = std::move(frontier.front());
        frontier.pop_front();

        // Rebuild the node: keep the prefix it shares with the last one
        // built and re-step the rest (validated edges; cannot diverge).
        std::size_t shared = 0;
        while (shared < built.size() && shared < trace.size() &&
               built[shared] == trace[shared]) {
            shared += 1;
        }
        for (std::size_t d = shared; d < trace.size(); ++d) {
            if (path.size() == d + 1) {
                path.push_back(
                    std::make_unique<ConformanceHarness>(config.harness));
            }
            path[d + 1]->copyStateFrom(*path[d]);
            path[d + 1]->step(trace[d]);
            result.checks += 1;
        }
        built.assign(trace.begin(), trace.end());
        const ConformanceHarness& node = *path[trace.size()];
        const std::vector<ProtoCmd> commands = node.enabledCommands();

        if (commands.empty() && node.anyParked()) {
            // Nobody can move but PEs are still parked: a busy-wait
            // deadlock the generation rules should have made unreachable.
            result.divergence = true;
            result.divergenceMessage =
                "deadlock: no command is enabled but PEs are parked";
            result.divergenceTrace = trace;
            return result;
        }
        if (trace.size() >= config.depth)
            continue;

        for (const ProtoCmd& cmd : commands) {
            child.copyStateFrom(node);
            result.edges += 1;
            result.checks += 1;
            try {
                child.step(cmd);
            } catch (const SimFault& fault) {
                result.divergence = true;
                result.divergenceMessage = fault.message();
                result.divergenceTrace = trace;
                result.divergenceTrace.push_back(cmd);
                return result;
            }
            child.snapshot(snapshot);
            if (visited.find(snapshot) == visited.end()) {
                visited.insert(snapshot);
                result.states += 1;
                std::vector<ProtoCmd> extended = trace;
                extended.push_back(cmd);
                frontier.push_back(std::move(extended));
                if (result.states >= config.maxStates) {
                    result.truncated = true;
                    return result;
                }
            }
        }
    }
    return result;
}

} // namespace pim
