#include "model/fuzzer.h"

#include <algorithm>

#include "common/hash.h"
#include "common/rng.h"
#include "common/sim_fault.h"

namespace pim {

namespace {

constexpr const char* kDeadlockMessage =
    "deadlock: no command is enabled but PEs are parked";

/**
 * Does @p trace still reproduce a divergence under lenient replay?
 * (Commands orphaned by the removal of their prerequisites skip.)
 */
bool
diverges(const HarnessConfig& config, const std::vector<ProtoCmd>& trace,
         std::string* message_out)
{
    ConformanceHarness harness(config);
    try {
        harness.replayLenient(trace);
    } catch (const SimFault& fault) {
        *message_out = fault.message();
        return true;
    }
    if (harness.enabledCommands().empty() && harness.anyParked()) {
        *message_out = kDeadlockMessage;
        return true;
    }
    return false;
}

} // namespace

std::vector<ProtoCmd>
shrinkTrace(const HarnessConfig& harness_config,
            const std::vector<ProtoCmd>& trace, std::string* message_out)
{
    std::vector<ProtoCmd> current = trace;
    std::string message;

    // Delta-debugging: try to delete chunks, halving the chunk size
    // down to single commands; restart a pass after every successful
    // deletion so earlier chunks are reconsidered.
    for (std::size_t chunk = std::max<std::size_t>(current.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
        bool removed = true;
        while (removed) {
            removed = false;
            for (std::size_t i = 0; i + chunk <= current.size();) {
                std::vector<ProtoCmd> candidate;
                candidate.reserve(current.size() - chunk);
                candidate.insert(candidate.end(), current.begin(),
                                 current.begin() + i);
                candidate.insert(candidate.end(),
                                 current.begin() + i + chunk,
                                 current.end());
                if (diverges(harness_config, candidate, &message)) {
                    current = std::move(candidate);
                    removed = true;
                    // Stay at the same index: the next chunk slid here.
                } else {
                    i += 1;
                }
            }
        }
        if (chunk == 1)
            break;
    }

    // The survivors still diverge; report their divergence message.
    if (message_out != nullptr) {
        if (message.empty())
            diverges(harness_config, current, &message);
        *message_out = message;
    }
    return current;
}

FuzzResult
fuzz(const FuzzConfig& config)
{
    FuzzResult result;
    for (std::uint32_t t = 0; t < config.traces; ++t) {
        const std::uint64_t trace_seed = hashCombine(config.seed, t);
        Rng rng(trace_seed);
        ConformanceHarness harness(config.harness);
        std::vector<ProtoCmd> trace;
        result.tracesRun += 1;

        for (std::uint32_t i = 0; i < config.len; ++i) {
            const std::vector<ProtoCmd> commands =
                harness.enabledCommands();
            if (commands.empty()) {
                if (harness.anyParked()) {
                    result.divergence = true;
                    result.divergenceMessage = kDeadlockMessage;
                }
                break;
            }
            ProtoCmd cmd = commands[rng.below(commands.size())];
            if (memOpWrites(cmd.op)) {
                // Randomize the written value when the command allows it
                // (a forced retry must replay verbatim and stays put).
                ProtoCmd alt = cmd;
                alt.value = rng.below(16) + 1;
                if (harness.enabled(alt))
                    cmd = alt;
            }
            trace.push_back(cmd);
            result.commandsRun += 1;
            try {
                harness.step(cmd);
            } catch (const SimFault& fault) {
                result.divergence = true;
                result.divergenceMessage = fault.message();
            }
            if (result.divergence)
                break;
        }

        if (result.divergence) {
            result.failingSeed = trace_seed;
            result.trace = trace;
            if (config.shrink) {
                result.shrunk = shrinkTrace(config.harness, trace,
                                            &result.shrunkMessage);
            } else {
                result.shrunk = trace;
                result.shrunkMessage = result.divergenceMessage;
            }
            return result;
        }
    }
    return result;
}

} // namespace pim
