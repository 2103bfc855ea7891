// Pins the EXPERIMENTS.md headline numbers as regression goldens: the
// reproduction's agreement with the paper's Section 5 figures must not
// drift silently under refactoring. Also pins the machine-level outcome
// split of the TEM and fail-silent campaigns behind P_T, P_OM and C_D, and
// the outcomes of small system campaigns.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bbw/guest_programs.hpp"
#include "bbw/markov_models.hpp"
#include "bbw/params.hpp"
#include "faults/system_campaign.hpp"
#include "obs/metrics.hpp"
#include "util/state_hash.hpp"

namespace nlft::bbw {
namespace {

constexpr double kHoursPerYear = 24.0 * 365.0;

struct ExperimentsGolden : ::testing::Test {
  BbwStudy study{};  // paper defaults (Section 5 parameters)
};

// EXPERIMENTS.md headline table: R(1 year) in degraded mode. The paper
// reads ~0.45 (fail-silent) and ~0.70 (NLFT) off Fig. 12; the reproduction
// measures 0.464 and 0.712.
TEST_F(ExperimentsGolden, OneYearDegradedReliability) {
  EXPECT_NEAR(study.systemReliability(NodeType::FailSilent, FunctionalityMode::Degraded,
                                      kHoursPerYear),
              0.464, 1e-3);
  EXPECT_NEAR(
      study.systemReliability(NodeType::Nlft, FunctionalityMode::Degraded, kHoursPerYear),
      0.712, 1e-3);
}

// EXPERIMENTS.md headline table: MTTF in degraded mode, in years. The paper
// gives ~1.2 (fail-silent) and ~1.9 (NLFT); the reproduction measures
// 1.195 and 1.927.
TEST_F(ExperimentsGolden, DegradedMttfYears) {
  EXPECT_NEAR(study.systemMttfHours(NodeType::FailSilent, FunctionalityMode::Degraded) /
                  kHoursPerYear,
              1.195, 1e-3);
  EXPECT_NEAR(
      study.systemMttfHours(NodeType::Nlft, FunctionalityMode::Degraded) / kHoursPerYear,
      1.927, 1e-3);
}

// The paper's central claim in ordering form: NLFT beats the fail-silent
// baseline in both modes, and degraded mode beats full functionality.
TEST_F(ExperimentsGolden, NlftDominatesFailSilent) {
  for (const FunctionalityMode mode : {FunctionalityMode::Full, FunctionalityMode::Degraded}) {
    EXPECT_GT(study.systemReliability(NodeType::Nlft, mode, kHoursPerYear),
              study.systemReliability(NodeType::FailSilent, mode, kHoursPerYear));
    EXPECT_GT(study.systemMttfHours(NodeType::Nlft, mode),
              study.systemMttfHours(NodeType::FailSilent, mode));
  }
  EXPECT_GT(study.systemReliability(NodeType::Nlft, FunctionalityMode::Degraded, kHoursPerYear),
            study.systemReliability(NodeType::Nlft, FunctionalityMode::Full, kHoursPerYear));
}

/// Every field of TemCampaignStats but `snap`: the mechanism counts, then
/// the experiments and the outcome counts in declaration order.
std::vector<std::size_t> outcomeFields(const fi::TemCampaignStats& s) {
  const fi::DetectionMechanismCounts& m = s.mechanisms;
  return {m.illegalInstruction, m.addressError, m.busError, m.divideByZero, m.mmuViolation,
          m.stackOverflow, m.executionTimeMonitor, m.outputUnreadable, m.temComparison,
          m.eccCorrected, m.endToEndCheck, s.experiments, s.notActivated, s.maskedByEcc,
          s.maskedByVote, s.maskedByRestart, s.omissionVoteFailed, s.omissionNoBudget,
          s.undetected};
}

/// Every field of FsCampaignStats but `snap`, in declaration order.
std::vector<std::size_t> outcomeFields(const fi::FsCampaignStats& s) {
  return {s.experiments, s.notActivated, s.maskedByEcc, s.failSilent, s.detectedByEndToEnd,
          s.undetected};
}

// The machine-level outcome split (vote-failed vs no-budget omissions
// included) of 2 000 TEM and 2 000 fail-silent experiments on every guest
// program, seed 2 (every program has vote-failed omissions there). The snap
// counters are left out: they depend on the execution mode, the outcomes do
// not.
TEST(MachineCampaignGolden, OutcomeSplitPerGuestProgram) {
  const std::map<std::string, std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      golden{
          {"wheel",
           {{22, 51, 57, 0, 0, 0, 101, 0, 241, 129, 0, 2000, 1440, 129, 234, 62, 6, 128, 1},
            {2000, 1494, 82, 180, 0, 244}}},
          {"checked_wheel",
           {{18, 70, 61, 4, 0, 40, 110, 0, 135, 154, 105, 2000, 1344, 154, 132, 226, 2, 141, 1},
            {2000, 1410, 100, 252, 105, 133}}},
          {"cu",
           {{9, 64, 128, 0, 0, 0, 127, 0, 211, 226, 0, 2000, 1303, 226, 197, 200, 4, 55, 15},
            {2000, 1402, 143, 239, 0, 216}}},
      };
  ASSERT_EQ(guestPrograms().size(), golden.size());
  for (const GuestProgram& program : guestPrograms()) {
    SCOPED_TRACE(program.name);
    const fi::TaskImage image = program.makeNominalImage();
    fi::CampaignConfig config;
    config.experiments = 2000;
    config.seed = 2;
    const auto& [tem, fs] = golden.at(program.name);
    EXPECT_EQ(outcomeFields(fi::runTemCampaign(image, config)), tem);
    EXPECT_EQ(outcomeFields(fi::runFsCampaign(image, config)), fs);
  }
}

/// The outputs a system campaign feeds the reliability models with: the
/// experiments, the outcome histogram, the per-kind histograms, the
/// node-level counts, the stops and the skipped (masked, unsimulated)
/// experiments, in that order.
std::vector<std::size_t> outcomeFields(const fi::SystemCampaignStats& s) {
  std::vector<std::size_t> fields{s.experiments};
  fields.insert(fields.end(), s.outcomes.begin(), s.outcomes.end());
  for (const auto& byKind : s.outcomesByKind) {
    fields.insert(fields.end(), byKind.begin(), byKind.end());
  }
  const fi::NodeLevelCounts& n = s.nodeLevel;
  fields.insert(fields.end(), {n.injected, n.notActivated, n.maskedByEcc, n.masked, n.omission,
                               n.failSilent, n.undetected, s.stops, s.skippedMasked});
  return fields;
}

/// A 64-bit digest of a metrics fingerprint string.
std::uint64_t digest(const std::string& text) {
  util::StateHash hash;
  for (const char c : text) hash.u64(static_cast<unsigned char>(c));
  return hash.finish();
}

/// A small, fast system campaign: a low initial speed and a short horizon
/// keep each closed-loop stop cheap; fixed chunking fixes the RNG streams.
fi::SystemCampaignConfig smallSystemCampaign() {
  fi::SystemCampaignConfig config;
  config.experiments = 150;
  config.seed = 33;
  config.sim.initialSpeedMps = 15.0;
  config.sim.horizon = util::Duration::seconds(8);
  config.parallelism.chunkSize = 10;
  return config;
}

// A crude campaign's outputs, and the golden fingerprint of its metrics
// registry (per-simulation kernel, TEM and bus metrics plus the campaign.*
// counters; "wall." metrics are not part of it). Attaching the registry
// must not move a single output.
TEST(SystemCampaignGolden, CrudeCampaignWithAndWithoutRegistry) {
  const std::vector<std::size_t> golden{
      150,                                                              // experiments
      100, 27, 21, 2, 0,                                                // outcomes
      100, 3, 0, 2, 0, 0, 24, 0, 0, 0, 0, 0, 14, 0, 0, 0, 0, 7, 0, 0,  // by kind
      105, 72, 10, 18, 3, 0, 2,                                         // node level
      150, 82};                                                         // stops, skipped
  fi::SystemCampaignConfig config = smallSystemCampaign();
  obs::Registry metrics;
  config.metrics = &metrics;
  EXPECT_EQ(outcomeFields(fi::runSystemCampaign(config)), golden);
  EXPECT_EQ(digest(metrics.goldenFingerprint()), 0xda90070e06ae599eULL);
  config.metrics = nullptr;
  EXPECT_EQ(outcomeFields(fi::runSystemCampaign(config)), golden);
}

// The merged outputs of a stratified campaign over two window bins.
TEST(SystemCampaignGolden, StratifiedCampaign) {
  const std::vector<std::size_t> golden{
      180,                                                               // experiments
      128, 27, 24, 1, 0,                                                 // outcomes
      128, 3, 0, 1, 0, 0, 24, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 12, 0, 0,  // by kind
      132, 90, 12, 26, 3, 0, 1,                                          // node level
      180, 102};                                                         // stops, skipped
  fi::SystemCampaignConfig config = smallSystemCampaign();
  config.experiments = 180;
  EXPECT_EQ(outcomeFields(fi::runStratifiedSystemCampaign(config, 2).total), golden);
}

}  // namespace
}  // namespace nlft::bbw
