// Strict number parsing for command-line flags and NDNP_* environment
// variables. The whole value must parse: "12abc", "-5", "0.8x" and "" are
// rejected with exit status 2 and a message naming the flag or variable,
// instead of being cut short or wrapped the way atoll/atof/strtoull do.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace ndnp::util {

/// The whole of `value` as an integer in [0, max]; exits 2 naming `flag`
/// otherwise (no sign, no trailing characters).
inline std::uint64_t parse_count(
    const char* argv0, const char* flag, const char* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* end = value + std::strlen(value);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed > max) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n", argv0, flag,
                 value);
    std::exit(2);
  }
  return parsed;
}

/// The whole of `value` as a finite number in [0, max]; exits 2 naming
/// `flag` otherwise.
inline double parse_real(const char* argv0, const char* flag, const char* value,
                         double max = std::numeric_limits<double>::max()) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(parsed >= 0.0 && parsed <= max)) {
    if (max < std::numeric_limits<double>::max())
      std::fprintf(stderr, "%s: %s expects a number in [0, %g], got '%s'\n", argv0, flag, max,
                   value);
    else
      std::fprintf(stderr, "%s: %s expects a non-negative number, got '%s'\n", argv0, flag,
                   value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace ndnp::util
