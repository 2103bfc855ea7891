// Differential equivalence suite for the SYSTEM-level snapshot campaign
// engine (docs/SNAPSHOT.md "system campaigns"): forked (Auto) execution —
// restore at the nearest checkpoint before the injection, splice the golden
// tail after rejoin — must be indistinguishable from straight execution in
// every observable: campaign statistics, metrics fingerprints, golden event
// traces. Thread counts and cache budgets may only move wall-clock time and
// the snap.* engine counters, never a result.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "faults/golden_trace.hpp"
#include "faults/snapshot_exec.hpp"
#include "faults/system_campaign.hpp"
#include "obs/metrics.hpp"
#include "snap/cache.hpp"

namespace nlft::fi {
namespace {

using util::Duration;

/// Small, fast campaign configuration (mirrors system_campaign_test.cpp);
/// the injection window stays at the default [0.2, 2.0] s so scenarios land
/// both deep inside the checkpoint timeline and near the stop.
SystemCampaignConfig smallConfig(ExecutionMode mode) {
  SystemCampaignConfig config;
  config.experiments = 48;
  config.seed = 7;
  config.sim.initialSpeedMps = 15.0;
  config.sim.horizon = Duration::seconds(8);
  config.parallelism.chunkSize = 8;  // fixed chunking = fixed RNG substreams
  config.mode = mode;
  return config;
}

/// Everything except the snap engine counters must be bit-identical across
/// execution modes (and thread counts). Floating-point accumulators compare
/// by memcmp: "equal" means equal bit patterns, not approximately equal.
void expectSameResults(const SystemCampaignStats& a, const SystemCampaignStats& b) {
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
  const double meanA = a.stoppingDistanceM.mean();
  const double meanB = b.stoppingDistanceM.mean();
  EXPECT_EQ(std::memcmp(&meanA, &meanB, sizeof(double)), 0);
  const double varA = a.stoppingDistanceM.variance();
  const double varB = b.stoppingDistanceM.variance();
  EXPECT_EQ(std::memcmp(&varA, &varB, sizeof(double)), 0);
}

/// Auto really forked: restores served, and no experiment ran straight.
void expectForked(const SnapCounters& snap) {
  EXPECT_GT(snap.resumePoints, 0u);
  EXPECT_EQ(snap.straightFallbacks, 0u);
}

void expectSameSnapCounters(const SnapCounters& a, const SnapCounters& b) {
  EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
  EXPECT_EQ(a.snapshotHits, b.snapshotHits);
  EXPECT_EQ(a.snapshotMisses, b.snapshotMisses);
  EXPECT_EQ(a.snapshotBytes, b.snapshotBytes);
  EXPECT_EQ(a.resumePoints, b.resumePoints);
  EXPECT_EQ(a.replayedCopies, b.replayedCopies);
  EXPECT_EQ(a.executedCopies, b.executedCopies);
  EXPECT_EQ(a.straightFallbacks, b.straightFallbacks);
}

TEST(SystemSnapshotDifferential, SnapshotStatsBitIdenticalToStraight) {
  ASSERT_TRUE(systemSnapshotSupported(smallConfig(ExecutionMode::Auto).sim));
  const SystemCampaignStats straight = runSystemCampaign(smallConfig(ExecutionMode::Straight));
  const SystemCampaignStats snapshot = runSystemCampaign(smallConfig(ExecutionMode::Auto));
  expectSameResults(straight, snapshot);

  // The engine actually engaged: restores served, at least one experiment
  // answered by a golden-tail splice, and strictly fewer simulated events.
  expectForked(snapshot.snap);
  EXPECT_GT(snapshot.snap.replayedCopies, 0u);
  EXPECT_GT(snapshot.snap.snapshotHits, 0u);
  EXPECT_LT(snapshot.snap.simulatedCycles, straight.snap.simulatedCycles);
  EXPECT_EQ(straight.snap.resumePoints, 0u);
  EXPECT_EQ(straight.snap.replayedCopies, 0u);
  // Straight mode still accounts its simulated work.
  EXPECT_GT(straight.snap.simulatedCycles, 0u);
  EXPECT_EQ(straight.snap.executedCopies + straight.skippedMasked,
            static_cast<std::uint64_t>(straight.experiments));
}

TEST(SystemSnapshotDifferential, ThreadCountInvariantIncludingSnapCounters) {
  SystemCampaignConfig config = smallConfig(ExecutionMode::Auto);
  config.parallelism.threads = 1;
  const SystemCampaignStats serial = runSystemCampaign(config);
  expectForked(serial.snap);
  for (const unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const SystemCampaignStats parallel = runSystemCampaign(config);
    expectSameResults(serial, parallel);
    // snap.* counters are chunk-order merged sums of chunk-private caches:
    // bit-identical at every thread count, not just statistically equal.
    expectSameSnapCounters(serial.snap, parallel.snap);
  }
}

TEST(SystemSnapshotDifferential, MetricsFingerprintIdenticalAcrossModesAndThreads) {
  obs::Registry straightMetrics;
  SystemCampaignConfig config = smallConfig(ExecutionMode::Straight);
  config.metrics = &straightMetrics;
  const SystemCampaignStats straight = runSystemCampaign(config);
  const std::string goldenPrint = straightMetrics.goldenFingerprint();

  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::Registry snapshotMetrics;
    SystemCampaignConfig snapConfig = smallConfig(ExecutionMode::Auto);
    snapConfig.parallelism.threads = threads;
    snapConfig.metrics = &snapshotMetrics;
    const SystemCampaignStats snapshot = runSystemCampaign(snapConfig);
    expectSameResults(straight, snapshot);
    // The golden fingerprint covers every non-"wall." metric — per-sim
    // kernel/TEM/bus registries and the campaign.* reducers. Snapshot
    // restores replay the clean prefix with the registry attached, so the
    // registries agree to the byte even though execution was forked.
    EXPECT_EQ(snapshotMetrics.goldenFingerprint(), goldenPrint) << "threads=" << threads;
    // Metrics-instrumented experiments never splice (rates cannot be
    // patched post hoc), so every simulated experiment ran to completion.
    EXPECT_EQ(snapshot.snap.replayedCopies, 0u);
    expectForked(snapshot.snap);
  }
}

TEST(SystemSnapshotDifferential, TinyCacheEvictsButNeverChangesResults) {
  const SystemCampaignStats straight = runSystemCampaign(smallConfig(ExecutionMode::Straight));

  // A cache budget far below one blob still keeps exactly one entry (the
  // LRU never evicts its last snapshot), so restores stay available while
  // out-of-order scenario times churn the cache hard.
  SystemCampaignConfig tiny = smallConfig(ExecutionMode::Auto);
  tiny.snapshotCacheBytes = 300;
  const SystemCampaignStats small = runSystemCampaign(tiny);
  expectSameResults(straight, small);
  EXPECT_EQ(small.snap.straightFallbacks, 0u);
  EXPECT_GT(small.snap.snapshotMisses, 0u);

  SystemCampaignConfig roomy = smallConfig(ExecutionMode::Auto);
  roomy.snapshotCacheBytes = 64u << 20;
  const SystemCampaignStats large = runSystemCampaign(roomy);
  expectSameResults(straight, large);
  expectForked(large.snap);
  EXPECT_GT(large.snap.snapshotHits, small.snap.snapshotHits);
}

TEST(SystemSnapshotDifferential, StratifiedCampaignMatchesAcrossModes) {
  SystemCampaignConfig straightConfig = smallConfig(ExecutionMode::Straight);
  straightConfig.experiments = 72;
  const StratifiedCampaignResult straight = runStratifiedSystemCampaign(straightConfig, 2);

  SystemCampaignConfig snapConfig = smallConfig(ExecutionMode::Auto);
  snapConfig.experiments = 72;
  const StratifiedCampaignResult snapshot = runStratifiedSystemCampaign(snapConfig, 2);
  expectForked(snapshot.total.snap);

  ASSERT_EQ(straight.strata.size(), snapshot.strata.size());
  for (std::size_t h = 0; h < straight.strata.size(); ++h) {
    expectSameResults(straight.strata[h].stats, snapshot.strata[h].stats);
  }
  expectSameResults(straight.total, snapshot.total);
  EXPECT_LT(snapshot.total.snap.simulatedCycles, straight.total.snap.simulatedCycles);
}

TEST(SystemSnapshotDifferential, ForkedGoldenTracesAreLineIdentical) {
  const bbw::BbwSimConfig base{};
  for (const std::string& name : goldenScenarioNames()) {
    const std::vector<std::string> straight = recordScenarioTrace(name, base);
    const std::int64_t earliestUs = goldenScenarioEarliestUs(name);
    // Fork both mid-prefix and just before the first injection: the
    // restored replay must re-emit the prefix lines verbatim and the armed
    // tail must not depend on where the fork happened.
    for (const std::int64_t forkUs : {earliestUs / 2, earliestUs - 100000}) {
      const std::vector<std::string> forked = recordScenarioTraceForked(name, forkUs, base);
      const TraceDiff diff = compareTraces(straight, forked);
      EXPECT_TRUE(diff.identical)
          << name << " forked at " << forkUs << "us diverges at line " << diff.line
          << "\n  expected: " << diff.expected << "\n  actual:   " << diff.actual;
    }
  }
}

TEST(SystemSnapshotDifferential, CorruptedRestoreAbortsLoudly) {
  bbw::BbwSimConfig config;
  config.initialSpeedMps = 15.0;
  config.horizon = Duration::seconds(8);
  const SystemBaseline baseline{config};
  ASSERT_GT(baseline.checkpoints().size(), 4u);

  // A cache holding ONLY a byte-flipped blob at one checkpoint key: the
  // restore walk probes it first and must throw, never silently fall back
  // to straight execution or to an earlier checkpoint.
  const std::size_t k = baseline.checkpoints().size() / 2;
  const SystemCheckpoint& victim = baseline.checkpoints()[k];
  std::vector<std::uint8_t> corrupted = victim.blob;
  corrupted[corrupted.size() / 2] ^= 0x40;
  snap::SnapshotCache cache{1u << 20};
  cache.insert({static_cast<std::uint64_t>(victim.gridUs), 0}, corrupted);

  bbw::BbwSystemSim scratch{config};
  EXPECT_THROW(
      { (void)baseline.restoreBefore(scratch, victim.clockUs + 1, cache); },
      std::runtime_error);
}

}  // namespace
}  // namespace nlft::fi
