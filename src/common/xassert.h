/**
 * @file
 * Assertion and error-termination helpers.
 *
 * Follows the gem5 distinction: panic() for internal invariant violations
 * (a simulator bug), fatal() for user errors (bad configuration, malformed
 * input programs). Both are always on, independent of NDEBUG, because a
 * silently incoherent cache model is worse than a slow one.
 */

#ifndef PIMCACHE_COMMON_XASSERT_H_
#define PIMCACHE_COMMON_XASSERT_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pim {

[[noreturn]] inline void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    // Keep what a bench already printed (partial tables) on the way down.
    std::fflush(nullptr);
    std::abort();
}

[[noreturn]] inline void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s:%d: %s\n", file, line, msg.c_str());
    std::exit(1);
}

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
formatMsg(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace pim

/** Internal invariant violation: always-on assert. */
#define PIM_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::pim::panicImpl(__FILE__, __LINE__,                            \
                             ::pim::formatMsg("assertion failed: ", #cond,  \
                                              " ", ##__VA_ARGS__));         \
        }                                                                   \
    } while (0)

/** Unconditional internal error. */
#define PIM_PANIC(...)                                                      \
    ::pim::panicImpl(__FILE__, __LINE__, ::pim::formatMsg(__VA_ARGS__))

/** Unconditional user-facing error (bad input, bad configuration). */
#define PIM_FATAL(...)                                                      \
    ::pim::fatalImpl(__FILE__, __LINE__, ::pim::formatMsg(__VA_ARGS__))

#endif // PIMCACHE_COMMON_XASSERT_H_
