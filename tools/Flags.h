//===- tools/Flags.h - Strict numeric flag values for the CLI tools -------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dc_run and dc_serve read numeric flag values by one rule: the whole
/// token must be a number in range. A tool that gets nullopt prints its
/// usage and exits 2.
///
//===----------------------------------------------------------------------===//

#ifndef DC_TOOLS_FLAGS_H
#define DC_TOOLS_FLAGS_H

#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>

namespace dc::flags {

/// The whole of \p Text as a decimal integer in [Min, Max], or nullopt.
inline std::optional<long long> parseInt(const char *Text, long long Min,
                                         long long Max) {
  const char *End = Text + std::strlen(Text);
  long long V = 0;
  auto [Ptr, Ec] = std::from_chars(Text, End, V);
  if (Ec != std::errc() || Ptr != End || V < Min || V > Max)
    return std::nullopt;
  return V;
}

/// The whole of \p Text as a finite, non-negative number, or nullopt.
inline std::optional<double> parseSeconds(const char *Text) {
  const char *End = Text + std::strlen(Text);
  double V = 0;
  auto [Ptr, Ec] = std::from_chars(Text, End, V);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(V) || V < 0)
    return std::nullopt;
  return V;
}

} // namespace dc::flags

#endif // DC_TOOLS_FLAGS_H
