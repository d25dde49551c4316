/**
 * @file
 * Tiny command-line / environment option parser for benches, tools and
 * examples.
 *
 * Supports "--name value", "--name=value" and boolean "--name" flags, plus
 * environment-variable fallbacks so the whole bench directory can be
 * steered with REPRO_SCALE / REPRO_PES without editing command lines.
 */

#ifndef PIMCACHE_COMMON_OPTIONS_H_
#define PIMCACHE_COMMON_OPTIONS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pim {

/** Parsed command-line options with typed accessors. */
class Options
{
  public:
    Options() = default;

    /**
     * Parse argv. Unknown options are accepted (benches share a parser);
     * positional arguments are collected in order.
     */
    static Options parse(int argc, const char* const* argv);

    /** True if --name was present. */
    bool has(const std::string& name) const;

    /** String value of --name, or @p fallback. */
    std::string getString(const std::string& name,
                          const std::string& fallback = "") const;

    /** Integer value of --name, or @p fallback. */
    std::int64_t getInt(const std::string& name, std::int64_t fallback) const;

    /** Double value of --name, or @p fallback. */
    double getDouble(const std::string& name, double fallback) const;

    /** Boolean flag: present without value, or value in {1,true,yes,on}. */
    bool getBool(const std::string& name, bool fallback = false) const;

    /**
     * The first option name (in name order) not listed in @p known, or
     * "" when every option is known: for tools that must reject a
     * mistyped or retired flag rather than silently ignore it.
     */
    std::string
    unknownOption(std::initializer_list<std::string_view> known) const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** Inject or override an option programmatically. */
    void set(const std::string& name, const std::string& value);

    /**
     * Environment fallback: value of --name if present, else env var
     * @p env_name, else @p fallback.
     */
    std::int64_t getIntEnv(const std::string& name, const char* env_name,
                           std::int64_t fallback) const;

    /**
     * Environment fallback: value of --name if present, else env var
     * @p env_name, else @p fallback.
     */
    std::string getStringEnv(const std::string& name, const char* env_name,
                             const std::string& fallback = "") const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** Read an integer environment variable, or @p fallback. */
std::int64_t envInt(const char* name, std::int64_t fallback);

} // namespace pim

#endif // PIMCACHE_COMMON_OPTIONS_H_
