#pragma once

#include <string>
#include <string_view>

namespace idxl::obs {

/// Append `s` to `out` as the body of a JSON string literal: quotes,
/// backslashes, and control characters are escaped per RFC 8259. Every
/// exporter that writes user-controlled strings into JSON — the metrics
/// snapshot, the lifecycle dump, the Chrome-trace writer — shares
/// this one definition, so a task named `evil"\name` cannot corrupt any of
/// the dumps.
void json_escape(std::string& out, std::string_view s);

/// `s` as a complete JSON string literal, surrounding quotes included.
std::string json_quote(std::string_view s);

}  // namespace idxl::obs
