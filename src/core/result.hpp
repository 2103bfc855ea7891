// Task results, comparison and majority voting for temporal error masking.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace nlft::tem {

/// The output of one task copy (the "write output" data of Fig. 2).
using TaskResult = std::vector<std::uint32_t>;

/// Bytewise comparison of two results (the TEM comparison step).
[[nodiscard]] inline bool resultsMatch(const TaskResult& a, const TaskResult& b) { return a == b; }

/// Majority vote over any number of candidate results: returns the index of
/// the first candidate that another candidate agrees with, or nullopt when
/// all differ pairwise.
[[nodiscard]] inline std::optional<std::size_t> majorityVote(
    std::span<const TaskResult> candidates) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      if (candidates[i] == candidates[j]) return i;
    }
  }
  return std::nullopt;
}

}  // namespace nlft::tem
