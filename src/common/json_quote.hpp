// JSON string quoting shared by every JSON writer in the simulator
// (report tables, run manifests, Chrome traces, the analyzer corpus).
#pragma once

#include <string>
#include <string_view>

namespace hulkv {

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, newline and tab use their short escapes, and any
/// other control character below 0x20 becomes `\u00XX`.
std::string json_quote(std::string_view s);

}  // namespace hulkv
