// Strict numeric command-line flags, shared by nlft-fuzz and nlft-analyze.
#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace nlft::cli {

/// Parses the value of a numeric flag: a whole decimal digit string (no
/// sign, blank or trailing character) that fits T and is at least `min`.
/// Anything else throws std::invalid_argument naming the flag; the tools
/// print it and exit 2, so a malformed value never runs as a made-up one.
template <typename T>
T parseFlag(std::string_view flag, std::string_view text, T min = 0) {
  T value{};
  const bool digits =
      !text.empty() && text.find_first_not_of("0123456789") == std::string_view::npos;
  if (!digits || std::from_chars(text.data(), text.data() + text.size(), value).ec != std::errc{} ||
      value < min) {
    throw std::invalid_argument(std::string{flag} + " expects a whole number from " +
                                std::to_string(min) + " to " +
                                std::to_string(std::numeric_limits<T>::max()) + ", got '" +
                                std::string{text} + "'");
  }
  return value;
}

}  // namespace nlft::cli
