// Equivalence and fault-injection tests for the interpreted CU task.
#include "bbw/cu_task.hpp"

#include <gtest/gtest.h>

#include "bbw/vehicle.hpp"

namespace nlft::bbw {
namespace {

class CuTaskEquivalence : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(CuTaskEquivalence, AssemblyMatchesFixedPointReference) {
  const std::int32_t pedal = GetParam();
  const fi::TaskImage image = makeCuTaskImage(pedal);
  const fi::CopyRun run = fi::goldenRun(image);
  ASSERT_EQ(run.end, fi::CopyRun::End::Output);
  const auto expected = distributeFixedPoint(pedal);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(static_cast<std::int32_t>(run.output[w]), expected[w]) << "wheel " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(PedalSweep, CuTaskEquivalence,
                         ::testing::Values(0, 1, 64, 128, 200, 255, 256, 300, -5));

TEST(CuTask, ClampsOutOfRangePedal) {
  EXPECT_EQ(distributeFixedPoint(-100), distributeFixedPoint(0));
  EXPECT_EQ(distributeFixedPoint(1000), distributeFixedPoint(256));
}

TEST(CuTask, FrontRearProportioning) {
  const auto torques = distributeFixedPoint(256);
  EXPECT_EQ(torques[FrontLeft], torques[FrontRight]);
  EXPECT_EQ(torques[RearLeft], torques[RearRight]);
  EXPECT_EQ(torques[FrontLeft] * 2, torques[RearLeft] * 3);  // 60:40 = 3:2
}

TEST(CuTask, TemCampaignMasksLargeMajority) {
  const fi::TaskImage image = makeCuTaskImage(200);
  fi::CampaignConfig config;
  config.experiments = 2000;
  config.seed = 77;
  config.jobBudgetFactor = 3.8;
  const fi::TemCampaignStats stats = fi::runTemCampaign(image, config);
  ASSERT_GT(stats.activated(), 100u);
  EXPECT_GT(stats.pMask().proportion, 0.8);
  EXPECT_GT(stats.coverage().proportion, 0.97);
}

TEST(CuTask, SpecificRegisterFaultIsMasked) {
  const fi::TaskImage image = makeCuTaskImage(200);
  fi::FaultSpec fault;
  fault.location = fi::RegisterBitFlip{4, 10};  // front torque register
  fault.afterInstructions = 9;                  // after mul, before store
  fault.targetCopy = 1;
  const fi::TemOutcome outcome = fi::runTemExperiment(image, fault);
  EXPECT_TRUE(outcome == fi::TemOutcome::MaskedByVote ||
              outcome == fi::TemOutcome::NotActivated)
      << static_cast<int>(outcome);
}

TEST(CuTask, BudgetCoversLongestPath) {
  // All pedal branches fit the budget timer.
  for (int pedal : {-5, 0, 128, 256, 400}) {
    const fi::TaskImage image = makeCuTaskImage(pedal);
    const fi::CopyRun run = fi::goldenRun(image);
    EXPECT_LT(run.instructions, image.maxInstructionsPerCopy) << pedal;
  }
}

}  // namespace
}  // namespace nlft::bbw
