#include "common/options.h"

#include <cstdlib>

#include "common/strutil.h"
#include "common/xassert.h"

namespace pim {

Options
Options::parse(int argc, const char* const* argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            opts.positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            opts.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            opts.values_[arg] = argv[++i];
        } else {
            opts.values_[arg] = "";
        }
    }
    return opts;
}

bool
Options::has(const std::string& name) const
{
    return values_.count(name) != 0;
}

std::string
Options::unknownOption(std::initializer_list<std::string_view> known) const
{
    for (const auto& [name, value] : values_) {
        bool listed = false;
        for (std::string_view flag : known)
            listed = listed || name == flag;
        if (!listed)
            return name;
    }
    return "";
}

std::string
Options::getString(const std::string& name, const std::string& fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
Options::getInt(const std::string& name, std::int64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    return std::strtoll(it->second.c_str(), nullptr, 0);
}

double
Options::getDouble(const std::string& name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    return std::strtod(it->second.c_str(), nullptr);
}

bool
Options::getBool(const std::string& name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string& v = it->second;
    return v.empty() || v == "1" || v == "true" || v == "yes" || v == "on";
}

void
Options::set(const std::string& name, const std::string& value)
{
    values_[name] = value;
}

std::int64_t
Options::getIntEnv(const std::string& name, const char* env_name,
                   std::int64_t fallback) const
{
    if (has(name))
        return getInt(name, fallback);
    return envInt(env_name, fallback);
}

std::string
Options::getStringEnv(const std::string& name, const char* env_name,
                      const std::string& fallback) const
{
    if (has(name))
        return getString(name, fallback);
    const char* value = std::getenv(env_name);
    if (value == nullptr || value[0] == '\0')
        return fallback;
    return value;
}

std::int64_t
envInt(const char* name, std::int64_t fallback)
{
    const char* value = std::getenv(name);
    if (value == nullptr || value[0] == '\0')
        return fallback;
    return std::strtoll(value, nullptr, 0);
}

} // namespace pim
