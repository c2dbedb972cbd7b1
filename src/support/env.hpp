#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "support/error.hpp"

namespace idxl {

/// The count in environment variable `name`, or `fallback` when it is unset
/// or empty. A set value must be a whole number from 1 to UINT32_MAX with
/// nothing after it; anything else (a sign, "abc", "12x", 0, overflow)
/// throws a RuntimeError naming the variable rather than wrapping around or
/// silently reading as 0.
inline uint32_t env_u32(const char* name, uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  IDXL_REQUIRE(*end == '\0' && errno == 0 && parsed >= 1 &&
                   parsed <= static_cast<long long>(UINT32_MAX),
               std::string(name) + " must be a positive 32-bit integer (got '" + v + "')");
  return static_cast<uint32_t>(parsed);
}

}  // namespace idxl
