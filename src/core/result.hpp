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
[[nodiscard]] bool resultsMatch(const TaskResult& a, const TaskResult& b);

/// Majority vote over any number of candidate results: returns the index of
/// the first candidate that another candidate agrees with, or nullopt when
/// all differ pairwise.
[[nodiscard]] std::optional<std::size_t> majorityVote(std::span<const TaskResult> candidates);

}  // namespace nlft::tem
