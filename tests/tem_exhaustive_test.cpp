// Exhaustive enumeration of TEM behaviour: every combination of
// {clean, corrupted, EDM-error} across the three possible copies of a job
// (27 patterns), checked against an independently written reference model
// of the Section 2.5 protocol. Corruptions are pairwise distinct (a second
// fault never reproduces the first one's wrong value).
#include <gtest/gtest.h>

#include "core/tem.hpp"

namespace nlft::tem {
namespace {

using rt::TaskId;
using util::Duration;
using util::SimTime;

enum class CopyFate : int { Clean = 0, Corrupt = 1, EdmError = 2 };

constexpr std::uint32_t kGood = 42;

std::uint32_t copyValue(CopyFate fate, int copyIndex) {
  return fate == CopyFate::Corrupt ? 100u + static_cast<std::uint32_t>(copyIndex) : kGood;
}

struct Expected {
  enum class Kind : std::uint8_t {
    DeliveredClean,
    MaskedByVote,
    MaskedByReplacement,
    OmissionVoteFailed,
    OmissionNoTime,
  } kind;
  std::uint32_t value = kGood;  // meaningful for delivered kinds
};

/// Reference model of the TEM protocol (written against the paper's text,
/// not against the implementation).
Expected reference(const std::array<CopyFate, 3>& pattern) {
  std::vector<std::uint32_t> results;
  bool sawMismatch = false;
  bool sawEdm = false;
  for (int copy = 1; copy <= 3; ++copy) {
    const CopyFate fate = pattern[copy - 1];
    if (fate == CopyFate::EdmError) {
      // The copy produced nothing: no comparison/vote happens now. If this
      // was the last permitted copy, the job is omitted for lack of time —
      // a "vote failed" omission requires three actual results.
      sawEdm = true;
      continue;
    }
    results.push_back(copyValue(fate, copy));
    if (results.size() >= 2) {
      if (results.size() == 2 && results[0] != results[1]) sawMismatch = true;
      // Majority vote over collected results.
      for (std::size_t i = 0; i < results.size(); ++i) {
        for (std::size_t j = i + 1; j < results.size(); ++j) {
          if (results[i] == results[j]) {
            if (!sawMismatch && !sawEdm) return {Expected::Kind::DeliveredClean, results[i]};
            if (sawMismatch && results.size() >= 3)
              return {Expected::Kind::MaskedByVote, results[i]};
            return {Expected::Kind::MaskedByReplacement, results[i]};
          }
        }
      }
      if (copy == 3) return {Expected::Kind::OmissionVoteFailed};
    }
  }
  return {Expected::Kind::OmissionNoTime};  // copy budget exhausted
}

class TemExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(TemExhaustive, MatchesReferenceModel) {
  const int code = GetParam();
  const std::array<CopyFate, 3> pattern{static_cast<CopyFate>(code % 3),
                                        static_cast<CopyFate>((code / 3) % 3),
                                        static_cast<CopyFate>((code / 9) % 3)};

  sim::Simulator simulator;
  rt::Cpu cpu{simulator};
  rt::RtKernel kernel{simulator, cpu};
  TemExecutor tem{kernel};

  rt::TaskConfig config;
  config.name = "exhaustive";
  config.priority = 1;
  config.period = Duration::milliseconds(40);
  config.wcet = Duration::milliseconds(2);
  const auto behavior = [&pattern](const CopyContext& ctx, CopyPlan& plan) {
    const CopyFate fate = pattern[std::min(ctx.copyIndex, 3) - 1];
    plan.executionTime = Duration::milliseconds(2);
    if (fate == CopyFate::EdmError) {
      plan.end = CopyPlan::End::DetectedError;
      plan.executionTime = Duration::milliseconds(1);
    } else {
      plan.result = {copyValue(fate, ctx.copyIndex)};
    }
  };
  const TaskId task = tem.addCriticalTask(config, behavior);

  std::optional<std::uint32_t> delivered;
  kernel.setResultSink([&](const rt::JobResult& r) { delivered = r.data[0]; });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(39'000));

  const Expected expected = reference(pattern);
  const TemStats& stats = tem.stats(task);
  switch (expected.kind) {
    case Expected::Kind::DeliveredClean:
      ASSERT_TRUE(delivered.has_value());
      EXPECT_EQ(*delivered, expected.value);
      EXPECT_EQ(stats.deliveredCleanly, 1u);
      break;
    case Expected::Kind::MaskedByVote:
      ASSERT_TRUE(delivered.has_value());
      EXPECT_EQ(*delivered, expected.value);
      EXPECT_EQ(stats.maskedByVote, 1u);
      break;
    case Expected::Kind::MaskedByReplacement:
      ASSERT_TRUE(delivered.has_value());
      EXPECT_EQ(*delivered, expected.value);
      EXPECT_EQ(stats.maskedByReplacement, 1u);
      break;
    case Expected::Kind::OmissionVoteFailed:
      EXPECT_FALSE(delivered.has_value());
      EXPECT_EQ(stats.omissionsVoteFailed, 1u);
      break;
    case Expected::Kind::OmissionNoTime:
      EXPECT_FALSE(delivered.has_value());
      EXPECT_EQ(stats.omissionsNoTime, 1u);
      break;
  }
  // A delivered result is never a corrupted value, in ANY pattern: with
  // pairwise-distinct corruptions, only the good value can win a vote.
  if (delivered) {
    EXPECT_EQ(*delivered, kGood);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, TemExhaustive, ::testing::Range(0, 27));

}  // namespace
}  // namespace nlft::tem
