/**
 * @file
 * JSON string escaping shared by the hand-written JSON writers: the
 * metrics snapshot, the Chrome-trace flush and the grid report.
 */

#ifndef VALLEY_COMMON_JSON_HH
#define VALLEY_COMMON_JSON_HH

#include <string>

namespace valley {

/**
 * `s` escaped for the inside of a JSON string literal: `"` and `\`
 * get a backslash, newline, carriage return and tab their short
 * escapes, and every other control character below 0x20 a `\u00XX`
 * escape. All other bytes pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

} // namespace valley

#endif // VALLEY_COMMON_JSON_HH
