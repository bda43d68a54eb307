/**
 * @file
 * Numeric flag values shared by the command-line tools. Each tool
 * defines its own `cli::usageError` (its name in the message, exit
 * status 1), so a malformed number reads like every other usage
 * error of that tool.
 */

#ifndef VALLEY_TOOLS_CLI_ARGS_HH
#define VALLEY_TOOLS_CLI_ARGS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/spec.hh"

namespace valley {
namespace cli {

/** Print `msg` as the tool's usage error and exit 1 (one per tool). */
[[noreturn]] void usageError(const std::string &msg);

/**
 * An integer flag's value (`spec::parseU64`) that fits in `max`, the
 * range of the field it sets; usage error otherwise.
 */
inline std::uint64_t
intArg(const char *flag, const std::string &value,
       std::uint64_t max = std::numeric_limits<unsigned>::max())
{
    const std::optional<std::uint64_t> v = spec::parseU64(value);
    if (!v)
        usageError(std::string(flag) + ": '" + value +
                   "' is not a non-negative integer");
    if (*v > max)
        usageError(std::string(flag) + ": " + value + " is above " +
                   std::to_string(max));
    return *v;
}

/** A real flag's value (`spec::parseF64`); usage error if malformed. */
inline double
realArg(const char *flag, const std::string &value)
{
    const std::optional<double> v = spec::parseF64(value);
    if (!v)
        usageError(std::string(flag) + ": '" + value +
                   "' is not a finite number");
    return *v;
}

} // namespace cli
} // namespace valley

#endif // VALLEY_TOOLS_CLI_ARGS_HH
