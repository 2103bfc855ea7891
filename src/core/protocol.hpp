// The Temporal Error Masking decision procedure (paper Section 2.5, Fig. 3),
// free of any executor. tem::TemExecutor (kernel) and fi::classifyTemWith
// (interpreted machine) drive it; each keeps only what "another copy fits"
// means to it, how a copy's end becomes a result or a detected error, and
// how a decision is labelled. Omissions: "vote failed" when the last
// permitted copy produced a result and no two of the two or more results
// agree; "no time" when no further copy is permitted or fits and no vote is
// possible.
#pragma once

#include <cstdint>
#include <vector>

#include "core/result.hpp"

namespace nlft::tem {

/// What the caller does after a copy ends.
enum class Action : std::uint8_t {
  RunCopy,
  DeliverClean,          ///< scenario (i): two results agree and no error was seen
  DeliverByVote,         ///< scenario (ii): a comparison mismatch, then a 2-of-3 majority
  DeliverByReplacement,  ///< scenario (iii)/(iv): a replacement copy's result agrees
  OmitVoteFailed,
  OmitNoTime,
};

struct Decision {
  Action action = Action::RunCopy;
  std::size_t result = 0;  ///< index of the delivered result (Deliver* actions)
  bool mismatch = false;   ///< this copy's result was the second and differs from the first

  [[nodiscard]] bool delivers() const {
    return action == Action::DeliverClean || action == Action::DeliverByVote ||
           action == Action::DeliverByReplacement;
  }
};

/// One job's TEM state: the copies started, the results so far and whether
/// a mismatch or a detected error has been seen. begin() readies it for the
/// next job and keeps the result buffers, so a caller that swaps its
/// results in allocates nothing once they have grown.
class Protocol {
 public:
  /// Started copies per job, replacements included (paper: 3).
  static constexpr int kMaxCopies = 3;

  void begin() {
    copiesStarted_ = 0;
    resultCount_ = 0;
    sawMismatch_ = sawDetectedError_ = false;
  }
  /// Counts a started copy and returns its 1-based index.
  int startCopy() { return ++copiesStarted_; }

  /// The running copy produced `result`, which is swapped in (`result` is
  /// left holding a spare buffer). `anotherCopyFits`: whether the caller
  /// could still start a copy in time.
  [[nodiscard]] Decision onResult(TaskResult& result, bool anotherCopyFits) {
    if (resultCount_ == results_.size()) results_.emplace_back();
    results_[resultCount_++].swap(result);
    const bool mismatch = resultCount_ == 2 && !resultsMatch(results_[0], results_[1]);
    sawMismatch_ = sawMismatch_ || mismatch;
    if (resultCount_ < 2) return {anotherCopyOrNoTime(anotherCopyFits)};
    if (const auto voted = majorityVote({results_.data(), resultCount_})) {
      return {!hadError()    ? Action::DeliverClean
              : sawMismatch_ ? Action::DeliverByVote
                             : Action::DeliverByReplacement,
              *voted};
    }
    if (copiesStarted_ >= kMaxCopies) return {Action::OmitVoteFailed, 0, mismatch};
    return {anotherCopyOrNoTime(anotherCopyFits), 0, mismatch};
  }
  /// The running copy ended in a detected error and produced no result.
  [[nodiscard]] Decision onDetectedError(bool anotherCopyFits) {
    sawDetectedError_ = true;
    return {anotherCopyOrNoTime(anotherCopyFits)};
  }

  [[nodiscard]] int copiesStarted() const { return copiesStarted_; }
  [[nodiscard]] std::size_t resultCount() const { return resultCount_; }
  [[nodiscard]] const TaskResult& result(std::size_t index) const { return results_[index]; }
  [[nodiscard]] bool hadError() const { return sawMismatch_ || sawDetectedError_; }

 private:
  [[nodiscard]] Action anotherCopyOrNoTime(bool anotherCopyFits) const {
    return copiesStarted_ < kMaxCopies && anotherCopyFits ? Action::RunCopy : Action::OmitNoTime;
  }

  int copiesStarted_ = 0;
  std::vector<TaskResult> results_;  ///< the first `resultCount_` are this job's
  std::size_t resultCount_ = 0;
  bool sawMismatch_ = false;
  bool sawDetectedError_ = false;
};

}  // namespace nlft::tem
