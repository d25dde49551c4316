/**
 * @file
 * Protocol conformance engine CLI (docs/TESTING.md, ctest label
 * `conform`).
 *
 * Modes:
 *  - exhaustive exploration (default): BFS over all interleavings of
 *    the bounded command alphabet for a small configuration, with the
 *    full differential + invariant check battery on every edge.
 *      pim_conform --pes=2 --blocks=1 --depth=8
 *  - differential fuzzing: seeded random long traces, shrunk to a
 *    minimal reproducer on divergence.
 *      pim_conform --fuzz --seed=7 --traces=50 --len=300
 *  - replay: run a shrunk reproducer script back under full checking.
 *      pim_conform --replay='P0:W@0=1;P1:R@0'
 *
 * --protocol=NAME selects the coherence-protocol variant under test
 * (see --list-protocols; default pim) and --replacement=NAME the
 * replacement policy (lru, fifo, random) — the zoo's conformance axis.
 *
 * --mutate=NAME arms one seeded protocol bug (see --list-mutations);
 * with --expect-divergence the exit code inverts, so the conformance
 * ctest suite proves the engine catches every mutation — and prints the
 * shrunk reproducer it found. --max-shrunk=N additionally fails if the
 * reproducer needs more than N commands.
 *
 * Unknown options exit 1: a mistyped or retired flag must not silently
 * run a different check. For the same reason a count option (--pes,
 * --blocks, --ways, --sets, --lock-entries, --depth, --max-states,
 * --traces, --len, --max-shrunk) that is negative or not a decimal
 * integer exits 2, like an unknown mutation, protocol or policy name.
 * A configuration the System rejects (say --block-words=3) is a
 * SimFault(Config), exit 10.
 */

#include <charconv>
#include <cstdio>
#include <limits>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "model/explorer.h"
#include "model/fuzzer.h"
#include "sim/system.h"

using namespace pim;

namespace {

/**
 * Value of the count option --@p name, or @p fallback when it is
 * absent. Exits 2 unless the value is a decimal integer in [0, @p max]:
 * a negative count used to wrap to about 4 billion, and a non-numeric
 * one to read as zero, and either ran a different check than asked.
 */
std::uint64_t
countOption(const Options& opt, const char* name, std::uint64_t fallback,
            std::uint64_t max = std::numeric_limits<std::uint32_t>::max())
{
    if (!opt.has(name))
        return fallback;
    const std::string text = opt.getString(name);
    const char* const end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc() || stop != end || value > max) {
        std::fprintf(stderr,
                     "pim_conform: --%s needs a non-negative integer of at "
                     "most %llu (got '%s')\n",
                     name, static_cast<unsigned long long>(max),
                     text.c_str());
        std::exit(2);
    }
    return value;
}

HarnessConfig
harnessFromOptions(const Options& opt)
{
    HarnessConfig config;
    config.numPes = static_cast<std::uint32_t>(countOption(opt, "pes", 2));
    config.blocks =
        static_cast<std::uint32_t>(countOption(opt, "blocks", 1));
    config.blockWords =
        static_cast<std::uint32_t>(opt.getInt("block-words", 2));
    config.ways = static_cast<std::uint32_t>(countOption(opt, "ways", 1));
    config.sets = static_cast<std::uint32_t>(countOption(opt, "sets", 1));
    config.lockEntries =
        static_cast<std::uint32_t>(countOption(opt, "lock-entries", 2));
    config.clusterSize =
        static_cast<std::uint32_t>(opt.getInt("cluster-size", 0));
    config.hopCycles =
        static_cast<std::uint32_t>(opt.getInt("hop-cycles", 4));
    const std::string mutate = opt.getString("mutate", "none");
    if (!parseProtocolMutation(mutate, &config.mutation)) {
        std::fprintf(stderr,
                     "pim_conform: unknown mutation '%s' "
                     "(see --list-mutations)\n",
                     mutate.c_str());
        std::exit(2);
    }
    const std::string protocol = opt.getString("protocol", "pim");
    if (!parseProtocolKind(protocol, &config.protocol)) {
        std::fprintf(stderr,
                     "pim_conform: unknown protocol '%s' "
                     "(see --list-protocols)\n",
                     protocol.c_str());
        std::exit(2);
    }
    const std::string replacement = opt.getString("replacement", "lru");
    if (!parseReplacementKind(replacement, &config.replacement)) {
        std::fprintf(stderr,
                     "pim_conform: unknown replacement policy '%s' "
                     "(lru, fifo, random)\n",
                     replacement.c_str());
        std::exit(2);
    }
    return config;
}

void
printDivergence(const std::string& message,
                const std::vector<ProtoCmd>& trace)
{
    std::printf("DIVERGENCE: %s\n", message.c_str());
    std::printf("trace (%zu commands):\n", trace.size());
    for (const ProtoCmd& cmd : trace)
        std::printf("  %s\n", cmdToString(cmd).c_str());
    std::printf("replay: pim_conform --replay='%s'\n",
                traceToString(trace).c_str());
}

/**
 * Exit code honoring --expect-divergence and --max-shrunk (@p max_shrunk,
 * the largest reproducer accepted).
 */
int
verdict(const Options& opt, bool diverged, std::size_t shrunk_len,
        std::size_t max_shrunk)
{
    const bool expect = opt.getBool("expect-divergence");
    if (expect && !diverged) {
        std::printf("FAIL: expected a divergence, found none\n");
        return 1;
    }
    if (!expect && diverged)
        return 1;
    if (expect && shrunk_len > max_shrunk) {
        std::printf("FAIL: shrunk reproducer has %zu commands, "
                    "cap is %zu\n",
                    shrunk_len, max_shrunk);
        return 1;
    }
    std::printf("OK\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = Options::parse(argc, argv);
    const std::string unknown = opt.unknownOption(
        {"pes", "blocks", "block-words", "ways", "sets", "lock-entries",
         "cluster-size", "hop-cycles", "mutate", "protocol", "replacement",
         "list-mutations", "list-protocols", "replay", "fuzz", "seed",
         "traces", "len", "no-shrink", "depth", "max-states",
         "expect-divergence", "max-shrunk"});
    if (!unknown.empty()) {
        std::fprintf(stderr, "pim_conform: unknown option --%s\n",
                     unknown.c_str());
        return 1;
    }

    if (opt.getBool("list-mutations")) {
        for (int i = 1; i < kNumProtocolMutations; ++i) {
            std::printf("%s\n", protocolMutationName(
                                    static_cast<ProtocolMutation>(i)));
        }
        return 0;
    }

    if (opt.getBool("list-protocols")) {
        for (int i = 0; i < kNumProtocolKinds; ++i) {
            std::printf("%s\n",
                        protocolKindName(static_cast<ProtocolKind>(i)));
        }
        return 0;
    }

    const HarnessConfig harness = harnessFromOptions(opt);
    // Every count is checked before any mode runs, used or not.
    const auto traces =
        static_cast<std::uint32_t>(countOption(opt, "traces", 20));
    const auto len = static_cast<std::uint32_t>(countOption(opt, "len", 200));
    const auto depth = static_cast<std::uint32_t>(countOption(opt, "depth", 8));
    const std::uint64_t max_states = countOption(
        opt, "max-states", 500000, std::numeric_limits<std::uint64_t>::max());
    const std::size_t no_cap = std::numeric_limits<std::size_t>::max();
    const auto max_shrunk = static_cast<std::size_t>(
        countOption(opt, "max-shrunk", no_cap, no_cap));

    try {
        if (opt.has("replay")) {
            const std::vector<ProtoCmd> trace =
                parseTrace(opt.getString("replay"));
            ConformanceHarness replayer(harness);
            bool diverged = false;
            std::string message;
            std::size_t executed = 0;
            try {
                executed = replayer.replayLenient(trace);
            } catch (const SimFault& fault) {
                diverged = true;
                message = fault.message();
                executed = static_cast<std::size_t>(replayer.checksRun());
            }
            std::printf("replayed %zu of %zu commands, %llu check "
                        "groups\n",
                        executed, trace.size(),
                        static_cast<unsigned long long>(
                            replayer.checksRun()));
            if (diverged)
                printDivergence(message, trace);
            return verdict(opt, diverged, trace.size(), max_shrunk);
        }

        if (opt.getBool("fuzz")) {
            FuzzConfig config;
            config.harness = harness;
            config.seed = static_cast<std::uint64_t>(opt.getInt("seed", 1));
            config.traces = traces;
            config.len = len;
            config.shrink = !opt.getBool("no-shrink");
            const FuzzResult result = fuzz(config);
            std::printf("fuzz: %llu traces, %llu commands, protocol=%s, "
                        "mutation=%s\n",
                        static_cast<unsigned long long>(result.tracesRun),
                        static_cast<unsigned long long>(result.commandsRun),
                        protocolKindName(harness.protocol),
                        protocolMutationName(harness.mutation));
            if (result.divergence) {
                std::printf("failing seed: %llu\n",
                            static_cast<unsigned long long>(
                                result.failingSeed));
                printDivergence(result.shrunkMessage.empty()
                                    ? result.divergenceMessage
                                    : result.shrunkMessage,
                                result.shrunk);
            }
            return verdict(opt, result.divergence, result.shrunk.size(),
                           max_shrunk);
        }

        ExploreConfig config;
        config.harness = harness;
        config.depth = depth;
        config.maxStates = max_states;
        const ExploreResult result = explore(config);
        std::printf("explore: %llu states, %llu edges, %llu step checks, "
                    "depth=%u, protocol=%s, mutation=%s%s\n",
                    static_cast<unsigned long long>(result.states),
                    static_cast<unsigned long long>(result.edges),
                    static_cast<unsigned long long>(result.checks),
                    config.depth, protocolKindName(harness.protocol),
                    protocolMutationName(harness.mutation),
                    result.truncated ? " (truncated by --max-states)" : "");
        if (result.divergence)
            printDivergence(result.divergenceMessage,
                            result.divergenceTrace);
        return verdict(opt, result.divergence,
                       result.divergenceTrace.size(), max_shrunk);
    } catch (const SimFault& fault) {
        std::fprintf(stderr, "pim_conform: error: kind=%s exit=%d %s\n",
                     simFaultKindName(fault.kind()),
                     simFaultExitCode(fault.kind()), fault.what());
        return simFaultExitCode(fault.kind());
    }
}
