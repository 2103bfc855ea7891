// The interpreted-ISA wheel task must agree with the C++ fixed-point control
// law on every input — a parameterized equivalence sweep — and behave well
// under TEM fault injection.
#include "bbw/wheel_task.hpp"

#include <gtest/gtest.h>

#include "bbw/control.hpp"
#include "bbw/guest_programs.hpp"

namespace nlft::bbw {
namespace {

struct WheelCase {
  std::int32_t requestQ8;
  std::int32_t slipQ8;
  std::int32_t limitQ8;
};

class WheelTaskEquivalence : public ::testing::TestWithParam<WheelCase> {};

TEST_P(WheelTaskEquivalence, AssemblyMatchesFixedPointReference) {
  const WheelCase testCase = GetParam();
  const fi::TaskImage image =
      makeWheelTaskImage(testCase.requestQ8, testCase.slipQ8, testCase.limitQ8);
  const fi::CopyRun run = fi::goldenRun(image);
  ASSERT_EQ(run.end, fi::CopyRun::End::Output);

  std::int32_t expectedLimit = 0;
  const std::int32_t expectedTorque = wheelControlFixedPoint(
      testCase.requestQ8, testCase.slipQ8, testCase.limitQ8, &expectedLimit);
  EXPECT_EQ(static_cast<std::int32_t>(run.output[0]), expectedTorque);
  EXPECT_EQ(static_cast<std::int32_t>(run.output[1]), expectedLimit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WheelTaskEquivalence,
    ::testing::Values(
        WheelCase{800 * 256, 0, -1},        // no slip, no limit
        WheelCase{800 * 256, 20, -1},       // below target
        WheelCase{800 * 256, 38, -1},       // exactly at target (not above)
        WheelCase{800 * 256, 39, -1},       // just above target
        WheelCase{800 * 256, 50, -1},       // reduce once
        WheelCase{800 * 256, 64, -1},       // exactly at release (reduce once)
        WheelCase{800 * 256, 65, -1},       // above release (reduce twice)
        WheelCase{800 * 256, 200, -1},      // deep lock-up
        WheelCase{800 * 256, 10, 400 * 256},   // recovery with active limit
        WheelCase{800 * 256, 10, 790 * 256},   // recovery that releases
        WheelCase{800 * 256, 50, 400 * 256},   // reduce an existing limit
        WheelCase{800 * 256, 70, 400 * 256},   // hard dump of existing limit
        WheelCase{0, 50, -1},               // zero request
        WheelCase{1, 300, -1},              // tiny request, huge slip
        WheelCase{1500 * 256, 45, 2},       // tiny limit
        WheelCase{123 * 256 + 7, 41, 99 * 256 + 3}));  // non-round values

TEST(WheelTask, ExhaustiveRandomEquivalence) {
  util::Rng rng{321};
  for (int trial = 0; trial < 300; ++trial) {
    const auto request = static_cast<std::int32_t>(rng.uniformInt(2000 * 256));
    const auto slip = static_cast<std::int32_t>(rng.uniformInt(300));
    const std::int32_t limit =
        rng.bernoulli(0.5) ? -1 : static_cast<std::int32_t>(rng.uniformInt(2000 * 256));
    const fi::TaskImage image = makeWheelTaskImage(request, slip, limit);
    const fi::CopyRun run = fi::goldenRun(image);
    ASSERT_EQ(run.end, fi::CopyRun::End::Output);
    std::int32_t expectedLimit = 0;
    const std::int32_t expectedTorque =
        wheelControlFixedPoint(request, slip, limit, &expectedLimit);
    ASSERT_EQ(static_cast<std::int32_t>(run.output[0]), expectedTorque)
        << request << " " << slip << " " << limit;
    ASSERT_EQ(static_cast<std::int32_t>(run.output[1]), expectedLimit);
  }
}

TEST(WheelTask, FitsItsInstructionBudget) {
  const fi::TaskImage image = makeWheelTaskImage(800 * 256, 50, -1);
  const fi::CopyRun run = fi::goldenRun(image);
  EXPECT_LT(run.instructions, image.maxInstructionsPerCopy);
  EXPECT_GT(run.instructions, 10u);
}

TEST(WheelTask, TemCampaignOnBrakeTaskMatchesPaperRegime) {
  const fi::TaskImage image = makeWheelTaskImage(800 * 256, 50, 600 * 256);
  fi::CampaignConfig config;
  config.experiments = 1200;
  config.seed = 2025;
  config.jobBudgetFactor = 3.8;
  const fi::TemCampaignStats stats = fi::runTemCampaign(image, config);
  ASSERT_GT(stats.activated(), 80u);
  // The paper assumed P_T = 0.9 from brake-task fault injection [7].
  EXPECT_GT(stats.pMask().proportion, 0.80);
  EXPECT_GT(stats.coverage().proportion, 0.97);
}

TEST(WheelTask, TemCountsOneComparisonPerJob) {
  // Seed 1346 draws one experiment on the nominal wheel image whose copies
  // run clean, corrupt, then EDM-detected: the two results disagree once,
  // so the comparison is counted once, not again after the third copy.
  const GuestProgram& wheel = guestPrograms().front();
  ASSERT_EQ(wheel.name, "wheel");
  fi::CampaignConfig config;
  config.experiments = 1;
  config.seed = 1346;
  const fi::TemCampaignStats stats = fi::runTemCampaign(wheel.makeNominalImage(), config);
  ASSERT_EQ(stats.omissionVoteFailed, 1u);
  EXPECT_EQ(stats.mechanisms.temComparison, 1u);
}

TEST(WheelTask, FsNodeLeaksSilentCorruptionOnBrakeTask) {
  const fi::TaskImage image = makeWheelTaskImage(800 * 256, 50, 600 * 256);
  fi::CampaignConfig config;
  config.experiments = 1200;
  config.seed = 2025;
  const fi::FsCampaignStats stats = fi::runFsCampaign(image, config);
  EXPECT_GT(stats.undetected, 0u);  // wrong brake torque delivered silently
}

}  // namespace
}  // namespace nlft::bbw
