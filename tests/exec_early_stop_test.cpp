// Sequential early stopping in exec::runChunkedCampaign: the stop decision
// is taken on chunk boundaries only, so a stopped campaign returns a
// deterministic prefix of the full run — bit-identical at every thread count
// (docs/ESTIMATORS.md describes the contract). A chunk that throws reaches
// the caller unless the rule stopped the campaign before it.
#include "exec/chunked_campaign.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

namespace nlft::exec {
namespace {

struct SumStats {
  std::size_t experiments = 0;
  double sum = 0.0;
  std::size_t n = 0;

  void merge(const SumStats& other) {
    experiments += other.experiments;
    sum += other.sum;
    n += other.n;
  }
};

void runChunk(util::Rng& rng, std::size_t count, SumStats& stats) {
  for (std::size_t i = 0; i < count; ++i) {
    stats.sum += rng.uniform01();
    ++stats.n;
  }
}

constexpr std::uint64_t kSeed = 99;

using ChunkBody = std::function<void(util::Rng&, std::size_t, SumStats&)>;

ChunkedCampaignResult<SumStats> runWithRule(std::size_t experiments, unsigned threads,
                                            std::size_t chunkSize,
                                            const EarlyStopRule<SumStats>& rule,
                                            const ChunkBody& body = runChunk) {
  Parallelism parallelism;
  parallelism.threads = threads;
  parallelism.chunkSize = chunkSize;
  return runChunkedCampaign<SumStats>(experiments, kSeed, parallelism, body, rule);
}

/// runChunk is not told its chunk index, but chunk c draws from the c-th
/// fork of Rng{kSeed}, so its first draw names it.
std::size_t chunkIndexOf(const util::Rng& rng, std::size_t chunks) {
  util::Rng probe = rng;
  const std::uint64_t first = probe.next();
  util::Rng root{kSeed};
  for (std::size_t c = 0; c < chunks; ++c) {
    if (root.fork(c).next() == first) return c;
  }
  throw std::logic_error("not a chunk stream of kSeed");
}

/// runChunk, except that chunk 0 is slow (so parallel workers claim later
/// chunks speculatively) and every chunk from `firstThrowing` on throws
/// std::domain_error.
ChunkBody throwingFrom(std::size_t firstThrowing, std::size_t chunks) {
  return [=](util::Rng& rng, std::size_t count, SumStats& stats) {
    const std::size_t chunk = chunkIndexOf(rng, chunks);
    if (chunk == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (chunk >= firstThrowing) throw std::domain_error("chunk failed");
    runChunk(rng, count, stats);
  };
}

TEST(EarlyStop, StopsOnChunkBoundaryOncePredicateHolds) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 300; };
  const auto result = runWithRule(1000, 1, 50, rule);
  EXPECT_TRUE(result.stoppedEarly);
  EXPECT_EQ(result.itemsUsed, 300u);  // first boundary satisfying the rule
  EXPECT_EQ(result.chunksUsed, 6u);
  EXPECT_EQ(result.stats.n, 300u);
  EXPECT_EQ(result.stats.experiments, 300u);
}

TEST(EarlyStop, StoppedResultIsBitIdenticalToShorterCampaign) {
  // A campaign stopped at 300 items must equal, bit for bit, a campaign
  // whose whole budget is 300 items (same seed, same chunk size): early
  // stopping returns a prefix, never a differently sampled run.
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 300; };
  const auto stopped = runWithRule(1000, 1, 50, rule);
  const auto shortRun = runWithRule(300, 1, 50, {});
  EXPECT_EQ(stopped.stats.n, shortRun.stats.n);
  EXPECT_EQ(stopped.stats.sum, shortRun.stats.sum);  // exact double equality
}

TEST(EarlyStop, BitIdenticalAcrossThreadCounts) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats& prefix, std::size_t) { return prefix.sum >= 120.0; };
  const auto serial = runWithRule(2000, 1, 25, rule);
  ASSERT_TRUE(serial.stoppedEarly);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = runWithRule(2000, threads, 25, rule);
    EXPECT_EQ(parallel.itemsUsed, serial.itemsUsed) << "threads=" << threads;
    EXPECT_EQ(parallel.chunksUsed, serial.chunksUsed) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.sum, serial.stats.sum) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.n, serial.stats.n) << "threads=" << threads;
  }
}

TEST(EarlyStop, MinItemsDefersTheDecision) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t) { return true; };  // eager
  rule.minItems = 101;
  const auto result = runWithRule(1000, 1, 50, rule);
  EXPECT_TRUE(result.stoppedEarly);
  // First boundary at or past minItems: 150, not 50.
  EXPECT_EQ(result.itemsUsed, 150u);
}

TEST(EarlyStop, UnreachableRuleRunsTheFullBudget) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t) { return false; };
  const auto result = runWithRule(400, 2, 25, rule);
  EXPECT_FALSE(result.stoppedEarly);
  EXPECT_EQ(result.itemsUsed, 400u);
  EXPECT_EQ(result.stats.n, 400u);
  // And equals the plain (rule-free) campaign bit for bit.
  const auto plain = runWithRule(400, 1, 25, {});
  EXPECT_EQ(result.stats.sum, plain.stats.sum);
}

TEST(EarlyStop, ChunkErrorPastTheStopIsDropped) {
  // 40 chunks of 25; the rule fires at 50 items (chunk boundary 2) and
  // chunks 3.. throw. A serial run never reaches them; parallel workers run
  // them while chunk 0 sleeps, and their errors must not leak out.
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 50; };
  const auto serial = runWithRule(1000, 1, 25, rule, throwingFrom(3, 40));
  ASSERT_TRUE(serial.stoppedEarly);
  EXPECT_EQ(serial.itemsUsed, 50u);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = runWithRule(1000, threads, 25, rule, throwingFrom(3, 40));
    EXPECT_TRUE(parallel.stoppedEarly) << "threads=" << threads;
    EXPECT_EQ(parallel.itemsUsed, serial.itemsUsed) << "threads=" << threads;
    EXPECT_EQ(parallel.chunksUsed, serial.chunksUsed) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.sum, serial.stats.sum) << "threads=" << threads;
  }
}

TEST(EarlyStop, ChunkErrorBeforeTheStopReachesTheCaller) {
  // Same campaign, but the rule would fire only at 200 items: chunk 3 fails
  // first, the prefix can never pass it, and the error propagates.
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 200; };
  for (unsigned threads : {1u, 2u, 8u}) {
    EXPECT_THROW((void)runWithRule(1000, threads, 25, rule, throwingFrom(3, 40)),
                 std::domain_error)
        << "threads=" << threads;
    EXPECT_THROW((void)runWithRule(1000, threads, 25, {}, throwingFrom(3, 40)),
                 std::domain_error)
        << "threads=" << threads << " without a rule";
  }
}

}  // namespace
}  // namespace nlft::exec
