// The parallel execution engine's core guarantee: for a fixed seed and chunk
// size, Monte-Carlo estimates and fault-injection campaigns are bit-identical
// for EVERY thread count, and merged statistics equal serial statistics.
#include "exec/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "faults/campaign.hpp"
#include "hw/assembler.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/statistics.hpp"

namespace nlft {
namespace {

// --- forEachChunk ----------------------------------------------------------

TEST(ForEachChunk, CoversEveryItemExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> touched(1000);
    exec::Parallelism par;
    par.threads = threads;
    par.chunkSize = 17;  // deliberately not dividing 1000
    const std::size_t processed =
        exec::forEachChunk(1000, par, [&](const exec::ChunkRange& range, unsigned) {
          for (std::size_t i = range.begin; i < range.end; ++i) touched[i].fetch_add(1);
        });
    EXPECT_EQ(processed, 1000u);
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  }
}

TEST(ForEachChunk, ChunkBoundariesIndependentOfThreadCount) {
  const auto collect = [](unsigned threads) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(exec::chunkCount(100, 7));
    exec::Parallelism par;
    par.threads = threads;
    par.chunkSize = 7;
    exec::forEachChunk(100, par, [&](const exec::ChunkRange& range, unsigned) {
      ranges[range.index] = {range.begin, range.end};
    });
    return ranges;
  };
  const auto serial = collect(1);
  EXPECT_EQ(serial, collect(2));
  EXPECT_EQ(serial, collect(8));
}

TEST(ForEachChunk, CancellationStopsEarly) {
  std::atomic<bool> stop{false};
  exec::Parallelism par;
  par.threads = 2;
  par.chunkSize = 1;
  std::atomic<std::size_t> ran{0};
  const std::size_t processed = exec::forEachChunk(
      10000, par,
      [&](const exec::ChunkRange&, unsigned) {
        if (ran.fetch_add(1) >= 5) stop.store(true);
      },
      &stop);
  EXPECT_LT(processed, 10000u);
}

TEST(ForEachChunk, ProgressReportsCompleteRun) {
  exec::Parallelism par;
  par.threads = 2;
  par.chunkSize = 50;
  std::size_t lastCompleted = 0;
  std::size_t callbacks = 0;
  std::size_t workers = 0;
  const exec::ProgressFn progress = [&](const exec::ProgressSnapshot& snapshot) {
    lastCompleted = snapshot.completedItems;
    workers = snapshot.perWorkerItems.size();
    EXPECT_EQ(snapshot.totalItems, 1000u);
    ++callbacks;
  };
  exec::forEachChunk(1000, par, [](const exec::ChunkRange&, unsigned) {}, nullptr, progress);
  EXPECT_GT(callbacks, 0u);
  EXPECT_EQ(lastCompleted, 1000u);  // final callback always fires
  EXPECT_EQ(workers, 2u);
}

TEST(ForEachChunk, LowestThrowingChunkReachesTheCaller) {
  // Chunks 3 and 7 of 10 throw; chunk 3 is slow, so with several workers
  // chunk 7 usually throws first. Chunks are claimed in index order, so
  // chunk 3 always runs and its exception is the one a serial run throws.
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::Parallelism par;
    par.threads = threads;
    par.chunkSize = 10;
    std::atomic<std::size_t> ran{0};
    try {
      exec::forEachChunk(100, par, [&](const exec::ChunkRange& range, unsigned) {
        ran.fetch_add(1);
        if (range.index == 3) std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (range.index == 3 || range.index == 7) {
          throw std::runtime_error("chunk " + std::to_string(range.index));
        }
      });
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "chunk 3") << "threads=" << threads;
    }
    EXPECT_GE(ran.load(), 4u) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 4u);  // nothing runs past the throw
    }
  }
}

// --- mergeable statistics --------------------------------------------------

TEST(RunningStatsMerge, EqualsSerialAccumulation) {
  util::Rng rng{123};
  std::vector<double> samples(5000);
  for (double& s : samples) s = rng.normal(3.0, 2.0);

  util::RunningStats serial;
  for (double s : samples) serial.add(s);

  util::RunningStats merged;
  for (std::size_t start = 0; start < samples.size(); start += 700) {
    util::RunningStats part;
    const std::size_t end = std::min(samples.size(), start + 700);
    for (std::size_t i = start; i < end; ++i) part.add(samples[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12 * std::abs(serial.mean()));
  EXPECT_NEAR(merged.variance(), serial.variance(), 1e-9 * serial.variance());
}

TEST(RunningStatsMerge, EmptySidesAreIdentity) {
  util::RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  util::RunningStats empty;
  util::RunningStats copy = stats;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), 2u);
  EXPECT_EQ(copy.mean(), stats.mean());
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), stats.mean());
}

// --- Monte-Carlo determinism across thread counts --------------------------

sys::SystemSpec bbwSpec() {
  sys::SystemSpec spec;
  spec.behavior = sys::NodeBehavior::Nlft;
  spec.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  return spec;
}

TEST(ParallelMonteCarlo, BitIdenticalAcrossThreadCounts) {
  const sys::SystemSpec spec = bbwSpec();
  sys::MonteCarloConfig config;
  config.trials = 8000;
  config.seed = 42;
  config.checkpointHours = {4380.0, 8760.0};

  config.parallelism.threads = 1;
  const sys::MonteCarloResult serial = sys::estimateReliability(spec, config);

  for (unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const sys::MonteCarloResult parallel = sys::estimateReliability(spec, config);
    ASSERT_EQ(parallel.checkpoints.size(), serial.checkpoints.size());
    for (std::size_t c = 0; c < serial.checkpoints.size(); ++c) {
      // Bit-identical, not just close: same survivor counts and, since the
      // Wilson interval is a pure function of them, identical doubles.
      EXPECT_EQ(parallel.checkpoints[c].reliability.successes,
                serial.checkpoints[c].reliability.successes);
      EXPECT_EQ(std::memcmp(&parallel.checkpoints[c].reliability,
                            &serial.checkpoints[c].reliability,
                            sizeof(util::ProportionEstimate)),
                0)
          << "threads=" << threads;
    }
    EXPECT_EQ(parallel.failuresWithinHorizon, serial.failuresWithinHorizon);
    // Chunk-ordered merge: the failure-time statistics are bit-identical too.
    EXPECT_EQ(parallel.failureTimes.count(), serial.failureTimes.count());
    EXPECT_EQ(parallel.failureTimes.mean(), serial.failureTimes.mean());
    EXPECT_EQ(parallel.failureTimes.variance(), serial.failureTimes.variance());
  }
}

TEST(ParallelMonteCarlo, ExplicitChunkSizePreservedAcrossThreadCounts) {
  const sys::SystemSpec spec = bbwSpec();
  sys::MonteCarloConfig config;
  config.trials = 5000;
  config.seed = 7;
  config.checkpointHours = {8760.0};
  config.parallelism.chunkSize = 128;

  config.parallelism.threads = 1;
  const auto serial = sys::estimateReliability(spec, config);
  config.parallelism.threads = 8;
  const auto parallel = sys::estimateReliability(spec, config);
  EXPECT_EQ(parallel.checkpoints[0].reliability.successes,
            serial.checkpoints[0].reliability.successes);
}

TEST(ParallelMonteCarlo, MttfBitIdenticalAcrossThreadCounts) {
  const sys::SystemSpec spec = bbwSpec();
  exec::Parallelism serial;
  const util::RunningStats expected = sys::estimateMttf(spec, 3000, 9, serial);
  for (unsigned threads : {2u, 8u}) {
    exec::Parallelism par;
    par.threads = threads;
    const util::RunningStats actual = sys::estimateMttf(spec, 3000, 9, par);
    EXPECT_EQ(actual.count(), expected.count());
    EXPECT_EQ(actual.mean(), expected.mean());
    EXPECT_EQ(actual.variance(), expected.variance());
    EXPECT_EQ(actual.min(), expected.min());
    EXPECT_EQ(actual.max(), expected.max());
  }
}

TEST(ParallelMonteCarlo, TrialErrorReachesTheCallerAtEveryThreadCount) {
  sys::MonteCarloConfig config;
  config.trials = 4000;
  config.seed = 11;
  config.checkpointHours = {8760.0};
  for (unsigned threads : {1u, 2u, 8u}) {
    config.parallelism.threads = threads;
    // No groups: every trial's lifetime simulation rejects the spec.
    EXPECT_THROW((void)sys::estimateReliability(sys::SystemSpec{}, config),
                 std::invalid_argument)
        << "threads=" << threads;
  }
}

// --- fault-injection campaign determinism across thread counts --------------

fi::TaskImage campaignImage() {
  // Same small control-style task as fi_campaign_test.
  constexpr const char* kSource = R"(
      ldi r1, 0x800
      ld  r2, [r1+0]
      ld  r3, [r1+4]
      ld  r4, [r1+8]
      ld  r5, [r1+12]
      ldi r6, 0
      ldi r7, 0
    loop:
      add r6, r6, r2
      add r6, r6, r3
      addi r7, r7, 1
      cmp r7, r4
      blt loop
      add r9, r6, r5
      ldi r10, 0xC00
      st  r9, [r10+0]
      st  r6, [r10+4]
      halt
)";
  fi::TaskImage image;
  image.program = hw::assemble(kSource);
  image.entry = 0;
  image.stackTop = 0x4000;
  image.inputBase = 0x800;
  image.input = {7, 11, 20, 3};
  image.outputBase = 0xC00;
  image.outputWords = 2;
  image.maxInstructionsPerCopy = 140;
  return image;
}

template <typename Stats>
void expectSameCampaign(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.notActivated, b.notActivated);
  EXPECT_EQ(a.maskedByEcc, b.maskedByEcc);
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_EQ(a.activated(), b.activated());
}

TEST(ParallelCampaign, TemBitIdenticalAcrossThreadCounts) {
  const fi::TaskImage image = campaignImage();
  fi::CampaignConfig config;
  config.experiments = 600;
  config.seed = 99;

  config.parallelism.threads = 1;
  const fi::TemCampaignStats serial = fi::runTemCampaign(image, config);
  EXPECT_EQ(serial.experiments, 600u);

  for (unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const fi::TemCampaignStats parallel = fi::runTemCampaign(image, config);
    expectSameCampaign(parallel, serial);
    EXPECT_EQ(parallel.maskedByVote, serial.maskedByVote);
    EXPECT_EQ(parallel.maskedByRestart, serial.maskedByRestart);
    EXPECT_EQ(parallel.omissionVoteFailed, serial.omissionVoteFailed);
    EXPECT_EQ(parallel.omissionNoBudget, serial.omissionNoBudget);
    EXPECT_EQ(parallel.mechanisms.temComparison, serial.mechanisms.temComparison);
    EXPECT_EQ(parallel.mechanisms.illegalInstruction, serial.mechanisms.illegalInstruction);
    EXPECT_EQ(parallel.mechanisms.executionTimeMonitor, serial.mechanisms.executionTimeMonitor);
  }
}

TEST(ParallelCampaign, FsBitIdenticalAcrossThreadCounts) {
  const fi::TaskImage image = campaignImage();
  fi::CampaignConfig config;
  config.experiments = 600;
  config.seed = 31;

  config.parallelism.threads = 1;
  const fi::FsCampaignStats serial = fi::runFsCampaign(image, config);
  for (unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const fi::FsCampaignStats parallel = fi::runFsCampaign(image, config);
    expectSameCampaign(parallel, serial);
    EXPECT_EQ(parallel.failSilent, serial.failSilent);
    EXPECT_EQ(parallel.detectedByEndToEnd, serial.detectedByEndToEnd);
  }
}

TEST(ParallelCampaign, ProgressReportsEveryExperiment) {
  const fi::TaskImage image = campaignImage();
  fi::CampaignConfig config;
  config.experiments = 300;
  config.seed = 5;
  config.parallelism.threads = 2;
  config.parallelism.chunkSize = 25;
  std::size_t lastCompleted = 0;
  config.onProgress = [&](const exec::ProgressSnapshot& snapshot) {
    lastCompleted = snapshot.completedItems;
    EXPECT_LE(snapshot.completedItems, snapshot.totalItems);
    EXPECT_EQ(std::accumulate(snapshot.perWorkerItems.begin(), snapshot.perWorkerItems.end(),
                              std::size_t{0}),
              snapshot.completedItems);
  };
  (void)fi::runTemCampaign(image, config);
  EXPECT_EQ(lastCompleted, 300u);
}

}  // namespace
}  // namespace nlft
