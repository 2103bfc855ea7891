// Differential equivalence suite of the snapshot/copy-on-inject engine
// (ctest label "snapshot"; docs/SNAPSHOT.md).
//
// The engine's only correctness claim is EQUIVALENCE: everything observable
// — trace-sink event streams, metrics fingerprints, campaign statistics —
// must be bit-identical whether a run executes straight through or resumes
// from a snapshot, at every split point and every thread count. This suite
// pins that claim on:
//   - every checked-in golden trace, straight vs snapshot-resume at 5
//     seeded split points;
//   - every checked-in fuzz-corpus case, comparing metrics fingerprints and
//     state fingerprints the same way;
//   - the machine-level TEM and fail-silent campaigns, straight vs
//     forked (Auto) execution across threads {1, 2, 8}, and the straight
//     fallback of an image without a clean fixed point;
//   - the MachineBaseline fork path, including out-of-order forks that
//     restart the sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bbw/guest_programs.hpp"
#include "bbw/system_sim.hpp"
#include "faults/campaign.hpp"
#include "faults/golden_trace.hpp"
#include "faults/snapshot_exec.hpp"
#include "fuzz/corpus.hpp"
#include "hw/assembler.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace nlft {
namespace {

using bbw::BbwSimConfig;
using bbw::BbwSystemSim;

/// Five deterministic split points per case, spread over the braking
/// manoeuvre (the stop completes within ~3.5 simulated seconds).
std::vector<std::int64_t> seededSplitPoints(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::int64_t> splits;
  for (int i = 0; i < 5; ++i) {
    splits.push_back(static_cast<std::int64_t>(100'000 + rng.uniformInt(3'200'000)));
  }
  return splits;
}

TEST(SnapshotDifferential, EveryGoldenTraceIsSplitInvariant) {
  for (const std::string& name : fi::goldenScenarioNames()) {
    const std::vector<std::string> straight = fi::recordScenarioTrace(name);
    std::uint64_t seed = 0x600d;
    for (const char c : name) seed = seed * 131 + static_cast<unsigned char>(c);
    for (const std::int64_t splitUs : seededSplitPoints(seed)) {
      SCOPED_TRACE(name + " split=" + std::to_string(splitUs) + "us");
      const std::vector<std::string> resumed = fi::recordScenarioTraceResumed(name, splitUs);
      const fi::TraceDiff diff = fi::compareTraces(straight, resumed);
      EXPECT_TRUE(diff.identical)
          << "first divergence at line " << diff.line << "\n  straight: " << diff.expected
          << "\n  resumed:  " << diff.actual;
    }
  }
}

void applyEvents(BbwSystemSim& sim, const std::vector<bbw::Injection>& events) {
  for (const bbw::Injection& event : events) sim.inject(event);
}

TEST(SnapshotDifferential, EveryCorpusCaseIsSplitInvariant) {
  const std::vector<fuzz::CorpusEntry> corpus = fuzz::loadCorpusDir(NLFT_FUZZ_CORPUS_DIR);
  ASSERT_GE(corpus.size(), 6u);
  for (const fuzz::CorpusEntry& entry : corpus) {
    const BbwSimConfig& config = entry.scenario.params;

    obs::Registry straightMetrics;
    BbwSystemSim straight{config};
    straight.setMetricsRegistry(&straightMetrics);
    applyEvents(straight, entry.scenario.events);
    const bbw::BbwSimResult straightResult = straight.run();
    const std::string straightFingerprint = straightMetrics.goldenFingerprint();
    const std::uint64_t straightState = straight.stateFingerprint();

    for (const std::int64_t splitUs : seededSplitPoints(entry.key)) {
      SCOPED_TRACE(entry.signature + " split=" + std::to_string(splitUs) + "us");
      BbwSystemSim producer{config};
      applyEvents(producer, entry.scenario.events);
      producer.runUntil(util::SimTime::fromUs(splitUs));
      const std::vector<std::uint8_t> checkpoint = producer.saveState();

      // Metrics attach BEFORE restore, so the replayed prefix streams the
      // same live samples (e2e latency histogram) as the straight run.
      obs::Registry resumedMetrics;
      BbwSystemSim resumed{config};
      resumed.setMetricsRegistry(&resumedMetrics);
      resumed.restoreState(checkpoint);
      const bbw::BbwSimResult resumedResult = resumed.run();

      EXPECT_EQ(straightFingerprint, resumedMetrics.goldenFingerprint());
      EXPECT_EQ(straightState, resumed.stateFingerprint());
      EXPECT_EQ(straightResult.stopped, resumedResult.stopped);
      EXPECT_EQ(straightResult.stoppingDistanceM, resumedResult.stoppingDistanceM);
      EXPECT_EQ(straightResult.commandFramesDelivered, resumedResult.commandFramesDelivered);
      EXPECT_EQ(straightResult.errorsMaskedByTem, resumedResult.errorsMaskedByTem);
      EXPECT_EQ(straightResult.busFramesDropped, resumedResult.busFramesDropped);
    }
  }
}

bool sameMechanisms(const fi::DetectionMechanismCounts& a, const fi::DetectionMechanismCounts& b) {
  return a.illegalInstruction == b.illegalInstruction && a.addressError == b.addressError &&
         a.busError == b.busError && a.divideByZero == b.divideByZero &&
         a.mmuViolation == b.mmuViolation && a.stackOverflow == b.stackOverflow &&
         a.executionTimeMonitor == b.executionTimeMonitor &&
         a.outputUnreadable == b.outputUnreadable && a.temComparison == b.temComparison &&
         a.eccCorrected == b.eccCorrected && a.endToEndCheck == b.endToEndCheck;
}

/// Outcome statistics only — the snap counters legitimately differ between
/// execution modes (that difference IS the speedup).
bool sameTemOutcomes(const fi::TemCampaignStats& a, const fi::TemCampaignStats& b) {
  return sameMechanisms(a.mechanisms, b.mechanisms) && a.experiments == b.experiments &&
         a.notActivated == b.notActivated && a.maskedByEcc == b.maskedByEcc &&
         a.maskedByVote == b.maskedByVote && a.maskedByRestart == b.maskedByRestart &&
         a.omissionVoteFailed == b.omissionVoteFailed && a.omissionNoBudget == b.omissionNoBudget &&
         a.undetected == b.undetected;
}

bool sameFsOutcomes(const fi::FsCampaignStats& a, const fi::FsCampaignStats& b) {
  return a.experiments == b.experiments && a.notActivated == b.notActivated &&
         a.maskedByEcc == b.maskedByEcc && a.failSilent == b.failSilent &&
         a.detectedByEndToEnd == b.detectedByEndToEnd && a.undetected == b.undetected;
}

bool sameSnapCounters(const fi::SnapCounters& a, const fi::SnapCounters& b) {
  return a.simulatedCycles == b.simulatedCycles && a.snapshotHits == b.snapshotHits &&
         a.snapshotMisses == b.snapshotMisses && a.snapshotBytes == b.snapshotBytes &&
         a.resumePoints == b.resumePoints && a.replayedCopies == b.replayedCopies &&
         a.executedCopies == b.executedCopies && a.straightFallbacks == b.straightFallbacks;
}

TEST(SnapshotDifferential, CampaignStatisticsMatchAcrossModesAndThreads) {
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    SCOPED_TRACE(program.name);
    const fi::TaskImage image = program.makeNominalImage();
    fi::CampaignConfig config;
    config.experiments = 600;
    config.seed = 29;
    config.parallelism.chunkSize = 75;

    config.mode = fi::ExecutionMode::Straight;
    const fi::TemCampaignStats temStraight = fi::runTemCampaign(image, config);
    const fi::FsCampaignStats fsStraight = fi::runFsCampaign(image, config);

    config.mode = fi::ExecutionMode::Auto;
    const fi::TemCampaignStats temSnapshot = fi::runTemCampaign(image, config);
    const fi::FsCampaignStats fsSnapshot = fi::runFsCampaign(image, config);

    // Auto engaged the fork engine on every experiment: no silent fallback.
    EXPECT_GT(temSnapshot.snap.resumePoints, 0u);
    EXPECT_EQ(temSnapshot.snap.straightFallbacks, 0u);
    EXPECT_GT(fsSnapshot.snap.resumePoints, 0u);
    EXPECT_EQ(fsSnapshot.snap.straightFallbacks, 0u);

    // Straight vs snapshot: identical outcome statistics, fewer simulated
    // cycles.
    EXPECT_TRUE(sameTemOutcomes(temStraight, temSnapshot));
    EXPECT_TRUE(sameFsOutcomes(fsStraight, fsSnapshot));
    EXPECT_LT(temSnapshot.snap.simulatedCycles, temStraight.snap.simulatedCycles);

    // Snapshot mode across threads {2, 8}: EVERYTHING identical, including
    // the snap counters (pure sums merged in chunk order).
    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE(threads);
      config.parallelism.threads = threads;
      const fi::TemCampaignStats temThreaded = fi::runTemCampaign(image, config);
      const fi::FsCampaignStats fsThreaded = fi::runFsCampaign(image, config);
      EXPECT_TRUE(sameTemOutcomes(temSnapshot, temThreaded));
      EXPECT_TRUE(sameSnapCounters(temSnapshot.snap, temThreaded.snap));
      EXPECT_TRUE(sameFsOutcomes(fsSnapshot, fsThreaded));
      EXPECT_TRUE(sameSnapCounters(fsSnapshot.snap, fsThreaded.snap));
    }
    config.parallelism.threads = 1;
  }
}

TEST(SnapshotDifferential, MachineBaselineForkMatchesStraightExecutionEvenOutOfOrder) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> baseline = fi::machineBaselineSnapshot(image);

  hw::Machine start{image.memBytes};
  start.restoreState(baseline);
  fi::MachineBaseline forked{start};
  hw::Machine scratch{image.memBytes};

  // Deliberately out-of-order fork targets: the backward forks restart the
  // sweep from the start state, which sorted campaigns never need.
  for (const std::uint64_t target : {std::uint64_t{12}, std::uint64_t{3}, std::uint64_t{17},
                                     std::uint64_t{8}, std::uint64_t{0}, std::uint64_t{15}}) {
    SCOPED_TRACE(target);
    forked.forkAt(target, scratch);

    hw::Machine straight{image.memBytes};
    straight.restoreState(baseline);
    (void)straight.run(target);
    EXPECT_EQ(straight.saveState(), scratch.saveState());
  }
}

// A task whose clean copy also bumps a scratch counter outside its output:
// every copy leaves memory one increment further along, so the post-reset
// behaviorDigest never reaches a fixed point and the image fails the
// snapshot support check.
constexpr const char* kCountingTaskSource = R"(
      ldi r1, 0x800        ; input base
      ld  r2, [r1+0]
      ld  r3, [r1+4]
      add r4, r2, r3
      mul r5, r2, r3
      ldi r6, 0x900        ; scratch counter, outside input and output
      ld  r7, [r6+0]
      addi r7, r7, 1
      st  r7, [r6+0]
      ldi r8, 0xC00        ; output base
      st  r4, [r8+0]
      st  r5, [r8+4]
      halt
)";

TEST(SnapshotDifferential, ImageWithoutCleanFixedPointRunsStraight) {
  fi::TaskImage image;
  image.program = hw::assemble(kCountingTaskSource);
  image.stackTop = 0x4000;
  image.inputBase = 0x800;
  image.input = {7, 11};
  image.outputBase = 0xC00;
  image.outputWords = 2;
  image.maxInstructionsPerCopy = 40;

  fi::CampaignConfig config;
  config.experiments = 400;
  config.seed = 31;
  config.parallelism.chunkSize = 50;
  config.mode = fi::ExecutionMode::Straight;
  const fi::TemCampaignStats temStraight = fi::runTemCampaign(image, config);
  const fi::FsCampaignStats fsStraight = fi::runFsCampaign(image, config);
  ASSERT_GT(temStraight.activated(), 0u);
  ASSERT_GT(fsStraight.activated(), 0u);

  // Auto falls back to straight execution for the whole campaign: no fork,
  // and every statistic — snap counters included — equals Straight.
  config.mode = fi::ExecutionMode::Auto;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    config.parallelism.threads = threads;
    const fi::TemCampaignStats tem = fi::runTemCampaign(image, config);
    const fi::FsCampaignStats fs = fi::runFsCampaign(image, config);
    EXPECT_EQ(tem.snap.resumePoints, 0u);
    EXPECT_EQ(fs.snap.resumePoints, 0u);
    EXPECT_TRUE(sameTemOutcomes(temStraight, tem));
    EXPECT_TRUE(sameSnapCounters(temStraight.snap, tem.snap));
    EXPECT_TRUE(sameFsOutcomes(fsStraight, fs));
    EXPECT_TRUE(sameSnapCounters(fsStraight.snap, fs.snap));
  }
}

}  // namespace
}  // namespace nlft
