// Voting and control-flow monitoring units.
#include <gtest/gtest.h>

#include "core/control_flow.hpp"
#include "core/policies.hpp"
#include "core/result.hpp"

namespace nlft::tem {
namespace {

// --- majority voting ---

TEST(Voter, TwoMatchingOfThree) {
  const TaskResult a{1, 2, 3};
  const TaskResult b{9, 9, 9};
  const std::vector<TaskResult> abb{a, b, b};
  const std::vector<TaskResult> bab{b, a, b};
  const std::vector<TaskResult> bba{b, b, a};
  EXPECT_EQ(majorityVote(abb), b);
  EXPECT_EQ(majorityVote(bab), b);
  EXPECT_EQ(majorityVote(bba), b);
}

TEST(Voter, AllThreeDifferentFails) {
  const std::vector<TaskResult> all{{1}, {2}, {3}};
  EXPECT_FALSE(majorityVote(all).has_value());
}

TEST(Voter, AllEqualSucceeds) {
  const std::vector<TaskResult> all{{7, 7}, {7, 7}, {7, 7}};
  EXPECT_EQ(majorityVote(all), (TaskResult{7, 7}));
}

TEST(Voter, TwoResultsBehaveLikeComparison) {
  const std::vector<TaskResult> match{{5}, {5}};
  const std::vector<TaskResult> differ{{5}, {6}};
  EXPECT_TRUE(majorityVote(match).has_value());
  EXPECT_FALSE(majorityVote(differ).has_value());
}

TEST(Voter, EmptyAndSingleCandidateFail) {
  const std::vector<TaskResult> none{};
  const std::vector<TaskResult> one{{1}};
  EXPECT_FALSE(majorityVote(none).has_value());
  EXPECT_FALSE(majorityVote(one).has_value());
}

TEST(Voter, LengthMismatchIsAMismatch) {
  EXPECT_FALSE(resultsMatch({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(resultsMatch({}, {}));
}

// Exhaustive sweep: every placement of one corrupted result among three must
// still deliver the good value.
class VoterPlacement : public ::testing::TestWithParam<int> {};

TEST_P(VoterPlacement, SingleCorruptionAlwaysMasked) {
  const TaskResult good{0xAA, 0xBB};
  const TaskResult bad{0xAA, 0xFF};
  std::vector<TaskResult> candidates{good, good, good};
  candidates[GetParam()] = bad;
  const auto voted = majorityVote(candidates);
  ASSERT_TRUE(voted.has_value());
  EXPECT_EQ(*voted, good);
}

INSTANTIATE_TEST_SUITE_P(Positions, VoterPlacement, ::testing::Values(0, 1, 2));

// --- control-flow monitoring ---

TEST(SignatureMonitor, LegalPathAccepted) {
  SignatureMonitor monitor;
  monitor.addLegalPath({1, 2, 3, 4});
  monitor.begin();
  for (std::uint32_t block : {1u, 2u, 3u, 4u}) monitor.enterBlock(block);
  EXPECT_TRUE(monitor.finishAndCheck());
}

TEST(SignatureMonitor, SkippedBlockDetected) {
  SignatureMonitor monitor;
  monitor.addLegalPath({1, 2, 3, 4});
  monitor.begin();
  for (std::uint32_t block : {1u, 3u, 4u}) monitor.enterBlock(block);  // jumped over 2
  EXPECT_FALSE(monitor.finishAndCheck());
}

TEST(SignatureMonitor, WrongOrderDetected) {
  SignatureMonitor monitor;
  monitor.addLegalPath({1, 2, 3});
  monitor.begin();
  for (std::uint32_t block : {2u, 1u, 3u}) monitor.enterBlock(block);
  EXPECT_FALSE(monitor.finishAndCheck());
}

TEST(SignatureMonitor, MultipleLegalPaths) {
  SignatureMonitor monitor;
  monitor.addLegalPath({1, 2, 4});  // branch taken
  monitor.addLegalPath({1, 3, 4});  // branch not taken
  monitor.begin();
  for (std::uint32_t block : {1u, 3u, 4u}) monitor.enterBlock(block);
  EXPECT_TRUE(monitor.finishAndCheck());
  monitor.begin();
  for (std::uint32_t block : {1u, 2u, 4u}) monitor.enterBlock(block);
  EXPECT_TRUE(monitor.finishAndCheck());
}

TEST(SignatureMonitor, BeginResetsState) {
  SignatureMonitor monitor;
  monitor.addLegalPath({1, 2});
  monitor.begin();
  monitor.enterBlock(1);
  monitor.begin();
  for (std::uint32_t block : {1u, 2u}) monitor.enterBlock(block);
  EXPECT_TRUE(monitor.finishAndCheck());
}

}  // namespace
}  // namespace nlft::tem
