// System-level fault-injection campaign: deterministic parallel execution
// (bit-identical statistics at every thread count), the system-level oracle,
// and the measured-coverage feedback into the analytic reliability models.
#include "faults/system_campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bbw/markov_models.hpp"
#include "util/rng.hpp"

namespace nlft::fi {
namespace {

using util::Duration;
using util::SimTime;

/// Small, fast campaign configuration: low speed + short horizon keeps each
/// closed-loop stop cheap without changing any fault-handling mechanism.
SystemCampaignConfig smallConfig() {
  SystemCampaignConfig config;
  config.experiments = 48;
  config.seed = 7;
  config.sim.initialSpeedMps = 15.0;
  config.sim.horizon = Duration::seconds(8);
  return config;
}

void expectIdentical(const SystemCampaignStats& a, const SystemCampaignStats& b) {
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.outcomesByKind, b.outcomesByKind);
  EXPECT_EQ(a.nodeLevel.injected, b.nodeLevel.injected);
  EXPECT_EQ(a.nodeLevel.notActivated, b.nodeLevel.notActivated);
  EXPECT_EQ(a.nodeLevel.maskedByEcc, b.nodeLevel.maskedByEcc);
  EXPECT_EQ(a.nodeLevel.masked, b.nodeLevel.masked);
  EXPECT_EQ(a.nodeLevel.omission, b.nodeLevel.omission);
  EXPECT_EQ(a.nodeLevel.failSilent, b.nodeLevel.failSilent);
  EXPECT_EQ(a.nodeLevel.undetected, b.nodeLevel.undetected);
  EXPECT_EQ(a.stops, b.stops);
  EXPECT_EQ(a.skippedMasked, b.skippedMasked);
  EXPECT_EQ(a.stoppingDistanceM.count(), b.stoppingDistanceM.count());
  // Chunk-order merge: the accumulated moments are bit-identical, not
  // merely approximately equal.
  const double meanA = a.stoppingDistanceM.mean();
  const double meanB = b.stoppingDistanceM.mean();
  EXPECT_EQ(std::memcmp(&meanA, &meanB, sizeof(double)), 0);
  const double varA = a.stoppingDistanceM.variance();
  const double varB = b.stoppingDistanceM.variance();
  EXPECT_EQ(std::memcmp(&varA, &varB, sizeof(double)), 0);
}

TEST(SystemCampaign, BitIdenticalAcrossThreadCounts) {
  SystemCampaignConfig config = smallConfig();
  config.parallelism.chunkSize = 8;  // fixed chunking = fixed RNG substreams

  config.parallelism.threads = 1;
  const SystemCampaignStats serial = runSystemCampaign(config);
  EXPECT_EQ(serial.experiments, config.experiments);

  for (const unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const SystemCampaignStats parallel = runSystemCampaign(config);
    expectIdentical(serial, parallel);
  }
}

TEST(SystemCampaign, ExperimentErrorReachesTheCallerAtEveryThreadCount) {
  SystemCampaignConfig config = smallConfig();
  config.machineTransientWeight = 0.0;
  config.busCorruptionWeight = 0.0;
  config.nodeCrashWeight = 0.0;
  config.correlatedBurstWeight = 0.0;
  config.parallelism.chunkSize = 8;
  for (const unsigned threads : {1u, 2u, 8u}) {
    config.parallelism.threads = threads;
    // Every experiment's sampler rejects the all-zero weights.
    EXPECT_THROW((void)runSystemCampaign(config), std::invalid_argument)
        << "threads=" << threads;
  }
}

TEST(SystemCampaign, SameSeedReproduces) {
  const SystemCampaignConfig config = smallConfig();
  const SystemCampaignStats a = runSystemCampaign(config);
  const SystemCampaignStats b = runSystemCampaign(config);
  expectIdentical(a, b);
}

TEST(SystemCampaign, EveryExperimentIsClassified) {
  const SystemCampaignStats stats = runSystemCampaign(smallConfig());
  std::size_t classified = 0;
  for (std::size_t o = 0; o < kSystemOutcomeCount; ++o) classified += stats.outcomes[o];
  EXPECT_EQ(classified, stats.experiments);
  std::size_t byKind = 0;
  for (const auto& row : stats.outcomesByKind) {
    for (const std::size_t n : row) byKind += n;
  }
  EXPECT_EQ(byKind, stats.experiments);
  EXPECT_EQ(stats.stoppingDistanceM.count(), stats.experiments);
}

TEST(SystemCampaign, SampleScenarioIsDeterministic) {
  const SystemCampaignConfig config = smallConfig();
  util::Rng a{42};
  util::Rng b{42};
  for (int i = 0; i < 20; ++i) {
    const SystemScenario sa = sampleScenario(config, a);
    const SystemScenario sb = sampleScenario(config, b);
    EXPECT_EQ(sa.kind, sb.kind);
    EXPECT_EQ(sa.targets, sb.targets);
    EXPECT_EQ(sa.at.us(), sb.at.us());
    EXPECT_EQ(sa.flipBits, sb.flipBits);
    ASSERT_FALSE(sa.targets.empty());
    for (const net::NodeId node : sa.targets) {
      EXPECT_GE(node, 1u);
      EXPECT_LE(node, 6u);
    }
    EXPECT_GE(sa.at.us(), 200000);
    EXPECT_LE(sa.at.us(), 2000000);
  }
}

// --- The system-level oracle on hand-built scenarios -----------------------

struct OracleFixture : ::testing::Test {
  SystemCampaignConfig config = smallConfig();
  bbw::BbwSimResult golden = goldenStop(config);

  SystemExperiment run(SystemScenario scenario) {
    return runSystemExperiment(config, scenario, golden);
  }
};

TEST_F(OracleFixture, GoldenStopIsAStop) {
  EXPECT_TRUE(golden.stopped);
  EXPECT_GT(golden.stoppingDistanceM, 0.0);
}

TEST_F(OracleFixture, NodeCrashIsFailSilentDegradation) {
  SystemScenario scenario;
  scenario.kind = ScenarioKind::NodeCrash;
  scenario.targets = {bbw::kWheelNodeBase};
  scenario.at = SimTime::fromUs(500000);
  const SystemExperiment experiment = run(scenario);
  EXPECT_EQ(experiment.outcome, SystemOutcome::FailSilentDegradation);
  EXPECT_GT(experiment.sim.failSilentEvents, 0u);
  EXPECT_TRUE(experiment.sim.stopped);
}

TEST_F(OracleFixture, BusCorruptionIsOmissionDegradation) {
  SystemScenario scenario;
  scenario.kind = ScenarioKind::BusCorruption;
  scenario.targets = {bbw::kCuA};
  scenario.at = SimTime::fromUs(500000);
  scenario.flipBits = {5};
  const SystemExperiment experiment = run(scenario);
  EXPECT_EQ(experiment.outcome, SystemOutcome::OmissionDegradation);
  EXPECT_GT(experiment.sim.busFramesDropped, golden.busFramesDropped);
}

TEST_F(OracleFixture, LosingEveryWheelNodeMissesTheStop) {
  SystemScenario scenario;
  scenario.kind = ScenarioKind::CorrelatedBurst;
  scenario.targets = {3, 4, 5, 6};
  scenario.at = SimTime::fromUs(500000);
  const SystemExperiment experiment = run(scenario);
  EXPECT_EQ(experiment.outcome, SystemOutcome::MissedStop);
  EXPECT_GT(experiment.sim.stoppingDistanceM,
            golden.stoppingDistanceM + config.missedStopMarginM);
}

// --- Measured coverage vs the paper's assumed parameters -------------------

TEST(SystemCampaign, MeasuredCoverageConsistentWithPaperAssumptions) {
  SystemCampaignConfig config;
  config.experiments = 400;
  config.seed = 11;
  config.machineTransientWeight = 1.0;  // machine-level transients only
  config.busCorruptionWeight = 0.0;
  config.nodeCrashWeight = 0.0;
  config.correlatedBurstWeight = 0.0;
  config.sim.initialSpeedMps = 15.0;
  config.sim.horizon = Duration::seconds(8);

  const SystemCampaignStats stats = runSystemCampaign(config);
  ASSERT_GT(stats.nodeLevel.activated(), 30u);
  const CoverageEstimate measured = measuredCoverage(stats);

  // The paper assumes P_T = 0.9 and P_OM = 0.05 (Section 5). The measured
  // proportions must be statistically consistent: the assumed value inside
  // the Wilson interval.
  EXPECT_LE(measured.pMask.low, 0.9);
  EXPECT_GE(measured.pMask.high, 0.9);
  EXPECT_LE(measured.pOmission.low, 0.05);
  EXPECT_GE(measured.pOmission.high, 0.05);
  EXPECT_GT(measured.coverage.proportion, 0.9);
}

TEST(SystemCampaign, WithMeasuredCoverageNormalisesByCoverage) {
  CoverageEstimate measured;
  measured.pMask.proportion = 0.90;
  measured.pOmission.proportion = 0.045;
  measured.coverage.proportion = 0.95;
  measured.coverage.trials = 1000;  // a real measurement, not an empty campaign

  const bbw::ReliabilityParameters params = withMeasuredCoverage(measured);
  EXPECT_DOUBLE_EQ(params.coverage, 0.95);
  // C * P_T reproduces the measured unconditional masking proportion.
  EXPECT_NEAR(params.coverage * params.pMask, 0.90, 1e-12);
  EXPECT_NEAR(params.coverage * params.pOmission, 0.045, 1e-12);
  EXPECT_NEAR(params.pMask + params.pOmission + params.pFailSilent, 1.0, 1e-12);

  // The measured parameters drive the Markov models without modification.
  const bbw::BbwStudy study{params};
  const double r = study.systemReliability(bbw::NodeType::Nlft, bbw::FunctionalityMode::Degraded,
                                           24.0 * 365.0);
  EXPECT_GT(r, 0.0);
  EXPECT_LT(r, 1.0);
}

TEST(SystemCampaign, ZeroActivationLeavesBaseParametersUntouched) {
  // No activated faults = no measurement: every Wilson interval comes back
  // with trials == 0 and a zeroed point estimate. The feedback must return
  // the paper-assumed base UNCHANGED — the old behaviour stomped coverage
  // with 0.0, feeding garbage into the Markov models.
  const CoverageEstimate empty{};
  const bbw::ReliabilityParameters base = bbw::ReliabilityParameters::paperDefaults();
  const bbw::ReliabilityParameters params = withMeasuredCoverage(empty, base);
  EXPECT_DOUBLE_EQ(params.pMask, base.pMask);
  EXPECT_DOUBLE_EQ(params.pOmission, base.pOmission);
  EXPECT_DOUBLE_EQ(params.pFailSilent, base.pFailSilent);
  EXPECT_DOUBLE_EQ(params.coverage, base.coverage);
}

TEST(SystemCampaign, ZeroExperimentCampaignFeedsBackCleanly) {
  // The degenerate end-to-end path: a 0-experiment campaign measures
  // nothing, and the measured-coverage feedback must hand back finite,
  // unchanged parameters (wilsonInterval(0, 0) used to reach a division by
  // the zero coverage proportion).
  SystemCampaignConfig config = smallConfig();
  config.experiments = 0;
  const SystemCampaignStats stats = runSystemCampaign(config);
  EXPECT_EQ(stats.experiments, 0u);
  EXPECT_EQ(stats.nodeLevel.activated(), 0u);

  const CoverageEstimate measured = measuredCoverage(stats);
  EXPECT_EQ(measured.coverage.trials, 0u);
  const bbw::ReliabilityParameters base = bbw::ReliabilityParameters::paperDefaults();
  const bbw::ReliabilityParameters params = withMeasuredCoverage(measured, base);
  EXPECT_TRUE(std::isfinite(params.pMask));
  EXPECT_TRUE(std::isfinite(params.pOmission));
  EXPECT_TRUE(std::isfinite(params.pFailSilent));
  EXPECT_DOUBLE_EQ(params.coverage, base.coverage);
}

TEST(SystemCampaign, AllNotActivatedCampaignFeedsBackCleanly) {
  // A campaign whose every machine-level fault failed to activate: injected
  // counts grow but activated() stays 0, which is the same "no measurement"
  // case as an empty campaign.
  SystemCampaignStats stats;
  stats.experiments = 40;
  stats.nodeLevel.injected = 40;
  stats.nodeLevel.notActivated = 30;
  stats.nodeLevel.maskedByEcc = 10;
  ASSERT_EQ(stats.nodeLevel.activated(), 0u);

  const CoverageEstimate measured = measuredCoverage(stats);
  const bbw::ReliabilityParameters base = bbw::ReliabilityParameters::paperDefaults();
  const bbw::ReliabilityParameters params = withMeasuredCoverage(measured, base);
  EXPECT_TRUE(std::isfinite(params.pMask));
  EXPECT_DOUBLE_EQ(params.pMask, base.pMask);
  EXPECT_DOUBLE_EQ(params.coverage, base.coverage);
}

TEST(SystemCampaign, MeasuredReactionsNeverExceedUnitMass) {
  // Noisy small-sample point estimates can satisfy pMask + pOmission >
  // coverage; after conditioning, the reaction masses must still form a
  // distribution (P_OM is capped at the mass P_T leaves over).
  CoverageEstimate measured;
  measured.pMask.proportion = 0.80;
  measured.pMask.trials = 10;
  measured.pOmission.proportion = 0.50;
  measured.pOmission.trials = 10;
  measured.coverage.proportion = 0.90;
  measured.coverage.trials = 10;

  const bbw::ReliabilityParameters params = withMeasuredCoverage(measured);
  EXPECT_LE(params.pMask + params.pOmission, 1.0 + 1e-12);
  EXPECT_GE(params.pFailSilent, 0.0);
  EXPECT_NEAR(params.pMask + params.pOmission + params.pFailSilent, 1.0, 1e-12);
}

TEST(SystemCampaign, MaskedSkipsCountedConsistently) {
  // Experiments whose fault never became an error skip the simulation in
  // every execution mode. The campaign must still reconcile: the skip
  // count equals the not-activated + ECC-masked node outcomes, lands in
  // the Masked outcome bucket, and is mirrored by the
  // "campaign.skipped_masked" metric so registry consumers can explain the
  // gap between campaign.* reducers and the per-sim metrics.
  obs::Registry metrics;
  SystemCampaignConfig config = smallConfig();
  config.experiments = 64;
  config.metrics = &metrics;
  const SystemCampaignStats stats = runSystemCampaign(config);

  ASSERT_GT(stats.skippedMasked, 0u) << "seed produced no skipped experiments; adjust seed";
  EXPECT_EQ(stats.skippedMasked, stats.nodeLevel.notActivated + stats.nodeLevel.maskedByEcc);
  EXPECT_GE(stats.outcome(SystemOutcome::Masked), stats.skippedMasked);
  EXPECT_EQ(metrics.count("campaign.skipped_masked"), stats.skippedMasked);
  // Per-sim registries only see the experiments that ran a simulation.
  EXPECT_EQ(metrics.count("campaign.experiments"), stats.experiments);
}

}  // namespace
}  // namespace nlft::fi
