// Strict command-line parsing, shared by the tools, the
// fault_injection_campaign example and the benches: a malformed or unknown
// argument exits 2 before any work starts, never runs as a default.
#pragma once

#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
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

/// Prints why the command line is refused and the usage line to stderr, and
/// returns 2, the exit status for a refused command line.
inline int refuse(std::string_view problem, std::string_view usage) {
  std::fprintf(stderr, "%.*s\nusage: %.*s\n", static_cast<int>(problem.size()), problem.data(),
               static_cast<int>(usage.size()), usage.data());
  return 2;
}

/// The command line of a bench whose one flag is `--smoke`: whether it was
/// given, or nullopt once any other argument has been refused (main then
/// returns 2).
inline std::optional<bool> parseSmokeFlag(int argc, char** argv, std::string_view program) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} != "--smoke") {
      refuse(std::string{program} + ": unknown argument '" + argv[i] + "'",
             std::string{program} + " [--smoke]");
      return std::nullopt;
    }
    smoke = true;
  }
  return smoke;
}

}  // namespace nlft::cli
