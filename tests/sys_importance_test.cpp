// Importance-sampling estimator correctness (docs/ESTIMATORS.md):
//  - identity bias (boosts == 1) reproduces plain Monte-Carlo BIT FOR BIT,
//    with every likelihood-ratio weight exactly 1.0;
//  - on a non-rare configuration the IS estimate agrees with plain MC within
//    overlapping 95% intervals (unbiasedness cross-check);
//  - on a rare-event configuration IS resolves the probability plain MC
//    cannot, with a tighter interval at equal trial count;
//  - results are bit-identical across thread counts;
//  - sequential early stopping honours the precision target.
#include "sysmodel/importance.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nlft::sys {
namespace {

constexpr double kYear = 8760.0;

SystemSpec degradedWheelSpec(NodeBehavior behavior) {
  SystemSpec s;
  s.behavior = behavior;
  s.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  return s;
}

/// A configuration where failures are common enough (F(1y) ~ 0.15, driven by
/// uncovered errors) that plain MC measures them well: IS vs plain MC
/// agreement is a sharp unbiasedness test here.
SystemSpec nonRareSpec() {
  SystemSpec s;
  s.behavior = NodeBehavior::FailSilent;
  s.params.coverage = 0.95;
  s.groups = {{"cu", 2, 1}};
  return s;
}

MonteCarloConfig mcConfig(std::size_t trials, std::uint64_t seed) {
  MonteCarloConfig config;
  config.trials = trials;
  config.seed = seed;
  config.checkpointHours = {kYear};
  return config;
}

TEST(ImportanceSampling, IdentityBiasReproducesPlainMonteCarloExactly) {
  const SystemSpec s = degradedWheelSpec(NodeBehavior::Nlft);
  const MonteCarloConfig config = mcConfig(5000, 21);
  ImportanceSamplingConfig identity;
  identity.arrivalBoost = 1.0;
  identity.uncoveredBoost = 1.0;

  const MonteCarloResult plain = estimateReliability(s, config);
  const IsReliabilityResult is = estimateReliabilityIs(s, config, identity);

  ASSERT_EQ(is.checkpoints.size(), plain.checkpoints.size());
  // Same seed + same RNG consumption: every trial classifies identically, so
  // the IS failure probability equals the plain MC failure fraction (the
  // incremental mean and the exact ratio can differ in the last ulp only).
  EXPECT_DOUBLE_EQ(is.checkpoints[0].failureProbability,
                   1.0 - plain.checkpoints[0].reliability.proportion);
  // Every weight is exactly 1.0: sum-of-weights and ESS equal the trial
  // count exactly, and the weight coefficient of variation is exactly zero.
  EXPECT_EQ(is.weightDiagnostics.sumWeights(), static_cast<double>(is.trials));
  EXPECT_EQ(is.weightDiagnostics.effectiveSampleSize(),
            static_cast<double>(is.trials));
  EXPECT_EQ(is.weightDiagnostics.weightCv(), 0.0);
}

TEST(ImportanceSampling, AgreesWithPlainMonteCarloOnNonRareConfig) {
  const SystemSpec s = nonRareSpec();
  const MonteCarloConfig config = mcConfig(20000, 22);
  ImportanceSamplingConfig bias;
  bias.arrivalBoost = 2.0;

  const MonteCarloResult plain = estimateReliability(s, config);
  const IsReliabilityResult is = estimateReliabilityIs(s, config, bias);

  const auto& mc = plain.checkpoints[0].reliability;
  const double mcFailLow = 1.0 - mc.high;
  const double mcFailHigh = 1.0 - mc.low;
  const double isLow = is.checkpoints[0].failureProbability - is.checkpoints[0].halfWidth;
  const double isHigh = is.checkpoints[0].failureProbability + is.checkpoints[0].halfWidth;
  // Overlapping 95% intervals — the estimators target the same quantity.
  EXPECT_LT(isLow, mcFailHigh);
  EXPECT_GT(isHigh, mcFailLow);
  EXPECT_GT(is.weightDiagnostics.effectiveSampleSize(), 0.0);
}

TEST(ImportanceSampling, ResolvesRareEventTighterThanPlainMonteCarlo) {
  // Paper parameters, NLFT degraded wheel group: one-year system failure is
  // rare enough that a few thousand plain trials see almost none.
  const SystemSpec s = degradedWheelSpec(NodeBehavior::Nlft);
  const MonteCarloConfig config = mcConfig(4000, 23);
  ImportanceSamplingConfig bias;
  bias.arrivalBoost = 15.0;
  bias.uncoveredBoost = 5.0;

  const MonteCarloResult plain = estimateReliability(s, config);
  const IsReliabilityResult is = estimateReliabilityIs(s, config, bias);

  EXPECT_GT(is.checkpoints[0].failureProbability, 0.0);
  const auto& mc = plain.checkpoints[0].reliability;
  const double plainHalfWidth = (mc.high - mc.low) / 2.0;
  EXPECT_LT(is.checkpoints[0].halfWidth, plainHalfWidth);
}

TEST(ImportanceSampling, CensoredWeightsStayUnbiasedOnShortHorizons) {
  // Regression test for the horizon-censored likelihood ratio. On a short
  // mission almost every boosted arrival draw lands past the horizon; with
  // the raw density ratio those censored draws have unbounded weight
  // variance (E[w^2] diverges for boosts >= 2), the effective sample size
  // collapses to a handful of trials and the estimate comes out orders of
  // magnitude low. The survival-ratio censoring keeps the weights bounded:
  // the IS estimate must agree with plain MC and keep a healthy ESS.
  const SystemSpec s = degradedWheelSpec(NodeBehavior::Nlft);
  MonteCarloConfig config = mcConfig(12000, 26);
  config.checkpointHours = {48.0};
  ImportanceSamplingConfig bias;
  bias.arrivalBoost = 15.0;
  bias.uncoveredBoost = 5.0;

  const MonteCarloResult plain = estimateReliability(s, config);
  const IsReliabilityResult is = estimateReliabilityIs(s, config, bias);

  const auto& mc = plain.checkpoints[0].reliability;
  const double isLow = is.checkpoints[0].failureProbability - is.checkpoints[0].halfWidth;
  const double isHigh = is.checkpoints[0].failureProbability + is.checkpoints[0].halfWidth;
  EXPECT_LT(isLow, 1.0 - mc.low);
  EXPECT_GT(isHigh, 1.0 - mc.high);
  // The broken (uncensored) estimator drops to ESS ~ 4 out of 12000 here.
  EXPECT_GT(is.weightDiagnostics.effectiveSampleSize(), 12000.0 / 4.0);
  EXPECT_LT(is.checkpoints[0].halfWidth, (mc.high - mc.low) / 2.0);
}

TEST(ImportanceSampling, BitIdenticalAcrossThreadCounts) {
  const SystemSpec s = degradedWheelSpec(NodeBehavior::Nlft);
  ImportanceSamplingConfig bias;
  bias.arrivalBoost = 10.0;

  MonteCarloConfig config = mcConfig(3000, 24);
  config.parallelism.chunkSize = 125;
  config.parallelism.threads = 1;
  const IsReliabilityResult serial = estimateReliabilityIs(s, config, bias);
  for (unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const IsReliabilityResult parallel = estimateReliabilityIs(s, config, bias);
    EXPECT_EQ(parallel.checkpoints[0].failureProbability,
              serial.checkpoints[0].failureProbability)
        << "threads=" << threads;
    EXPECT_EQ(parallel.weightDiagnostics.sumWeights(), serial.weightDiagnostics.sumWeights())
        << "threads=" << threads;
  }
}

TEST(ImportanceSampling, EarlyStoppingHonoursPrecisionTarget) {
  const SystemSpec s = nonRareSpec();
  MonteCarloConfig config = mcConfig(50000, 25);
  config.parallelism.chunkSize = 500;
  config.target.ciHalfWidth = 0.02;
  config.target.minTrials = 1000;

  const MonteCarloResult plain = estimateReliability(s, config);
  EXPECT_TRUE(plain.stoppedEarly);
  EXPECT_LT(plain.trials, 50000u);
  EXPECT_EQ(plain.trials % 500, 0u);  // chunk boundary
  const auto& mc = plain.checkpoints[0].reliability;
  EXPECT_LE((mc.high - mc.low) / 2.0, config.target.ciHalfWidth);

  // Same target, different thread count: identical stopped result.
  config.parallelism.threads = 4;
  const MonteCarloResult parallel = estimateReliability(s, config);
  EXPECT_EQ(parallel.trials, plain.trials);
  EXPECT_EQ(parallel.checkpoints[0].reliability.proportion, mc.proportion);
}

TEST(ImportanceSampling, RejectsNonPositiveBoosts) {
  const SystemSpec s = nonRareSpec();
  const MonteCarloConfig config = mcConfig(10, 1);
  EXPECT_THROW((void)estimateReliabilityIs(s, config, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((void)estimateReliabilityIs(s, config, {1.0, -2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace nlft::sys
