// Deterministic chunked campaign driver shared by every Monte-Carlo style
// experiment runner (fault-injection campaigns, system-level campaigns,
// reliability estimation).
//
// Experiments are split into chunks; each chunk draws from its own RNG
// sub-stream (`Rng::fork(chunkIndex)` off the campaign seed, forked in chunk
// order) and accumulates into a chunk-local Stats. Chunk results merge in
// chunk order afterwards, so for a fixed (seed, chunkSize) the campaign
// statistics are bit-identical at EVERY thread count, including 1.
//
// Sequential early stopping (docs/ESTIMATORS.md): a campaign can carry an
// EarlyStopRule that halts it once a target precision is reached. The stop
// decision is taken on CHUNK BOUNDARIES ONLY — the rule is evaluated on the
// merged prefix [0, k) for increasing k, and the campaign's result is the
// merge of chunks [0, k*) for the smallest satisfying k*. Because prefix
// contents and merge order are pure functions of (seed, chunkSize), the
// returned statistics stay bit-identical at every thread count; workers may
// speculatively execute chunks beyond k*, but those results are discarded
// deterministically.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace nlft::exec {

/// Histogram layout for per-chunk wall time (50 buckets over [0, 10] s).
inline constexpr obs::HistogramSpec kChunkSecondsSpec{0.0, 10.0, 50};

/// Sequential early-stopping rule. `shouldStop(prefix, items)` is evaluated
/// on every completed chunk prefix in increasing order (under a lock, so it
/// may be stateless or cheaply stateful); returning true freezes the
/// campaign result at that prefix. An empty callback disables stopping.
template <typename Stats>
struct EarlyStopRule {
  std::function<bool(const Stats& prefix, std::size_t items)> shouldStop;
  /// Never stop before this many experiments (guards tiny-sample CI math).
  std::size_t minItems = 0;
};

/// Result of a campaign: the merged statistics plus how much of the
/// experiment budget they actually contain.
template <typename Stats>
struct ChunkedCampaignResult {
  Stats stats;
  std::size_t itemsUsed = 0;   ///< experiments included in `stats`
  std::size_t chunksUsed = 0;  ///< chunks included in `stats`
  bool stoppedEarly = false;
};

/// Runs `experiments` seeded experiments chunk by chunk, merging chunk-local
/// statistics in chunk order, with optional sequential early stopping.
///
/// Stats must be default-constructible, copyable, expose a `std::size_t
/// experiments` member (set to the chunk's experiment count before the chunk
/// runs) and `merge(const Stats&)`. `runChunk(rng, count, stats)` runs one
/// chunk's `count` experiments in order from the chunk's forked RNG; state a
/// chunk needs (a snapshot cache, a batch sorted before execution) lives in
/// its body, and counters it folds into `stats` land in the deterministic
/// chunk-order merge.
///
/// An early-stopped campaign is not truncated: its prefix is a complete
/// deterministic result. An exception from `runChunk` reaches the caller at
/// every thread count (see forEachChunk), except that it is dropped when the
/// stop rule fired: a failed chunk never joins the merged prefix, so the
/// rule fired at or before it, and a serial run never reaches it.
///
/// `profile` (optional) receives execution profiling: deterministic
/// structure counters ("exec.items", "exec.chunks", "exec.early_stopped" —
/// they reflect the chunks INCLUDED in the result, so they are identical at
/// every thread count even when workers speculate past the stop boundary)
/// plus non-golden "wall." metrics (per-chunk wall-time histogram,
/// throughput, worker utilization — these do include speculative work).
template <typename Stats, typename RunChunk>
ChunkedCampaignResult<Stats> runChunkedCampaign(
    std::size_t experiments, std::uint64_t seed, const Parallelism& parallelism,
    RunChunk runChunk, const EarlyStopRule<Stats>& stop = {}, const ProgressFn& onProgress = {},
    obs::Registry* profile = nullptr) {
  const std::size_t chunkSize = parallelism.resolvedChunkSize(experiments);
  const std::size_t chunks = chunkCount(experiments, chunkSize);
  util::Rng root{seed};
  std::vector<util::Rng> chunkRngs;
  chunkRngs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) chunkRngs.push_back(root.fork(c));
  std::vector<Stats> accumulators(chunks);

  const auto itemsInChunk = [&](std::size_t c) {
    return std::min(experiments, (c + 1) * chunkSize) - c * chunkSize;
  };

  // Early-stop bookkeeping. The contiguous completed prefix is merged
  // incrementally (in chunk order, under the mutex) and the rule evaluated
  // at every new boundary; the first satisfying prefix wins. `stopClaims`
  // stops workers from claiming chunks past the decision.
  const bool stoppable = static_cast<bool>(stop.shouldStop);
  std::mutex prefixMutex;
  std::vector<std::uint8_t> chunkDone(stoppable ? chunks : 0, 0);
  Stats prefixStats;
  std::size_t prefixChunks = 0;
  std::size_t prefixItems = 0;
  bool ruleFired = false;
  std::size_t stopChunk = chunks;
  std::atomic<bool> stopClaims{false};

  const util::MonotonicStopwatch campaignClock;
  std::atomic<double> busySeconds{0.0};
  std::atomic<std::size_t> ranItems{0};

  const auto chunkBody = [&](const ChunkRange& range, unsigned) {
    const util::MonotonicStopwatch chunkClock;
    const std::size_t count = range.end - range.begin;
    util::Rng rng = chunkRngs[range.index];
    Stats& stats = accumulators[range.index];
    stats.experiments = count;
    runChunk(rng, count, stats);
    if (profile != nullptr) {
      const double seconds = chunkClock.elapsedSeconds();
      busySeconds.fetch_add(seconds, std::memory_order_relaxed);
      ranItems.fetch_add(count, std::memory_order_relaxed);
      profile->observe("wall.exec.chunk_seconds", kChunkSecondsSpec, seconds);
    }
    if (stoppable) {
      std::lock_guard<std::mutex> lock{prefixMutex};
      if (ruleFired) return;
      chunkDone[range.index] = 1;
      while (prefixChunks < chunks && chunkDone[prefixChunks] != 0) {
        prefixStats.merge(accumulators[prefixChunks]);
        prefixItems += itemsInChunk(prefixChunks);
        ++prefixChunks;
        if (prefixItems >= stop.minItems && stop.shouldStop(prefixStats, prefixItems)) {
          ruleFired = true;
          stopChunk = prefixChunks;
          stopClaims.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
  };
  try {
    forEachChunk(experiments, parallelism, chunkBody, &stopClaims, onProgress);
  } catch (...) {
    // Every worker has returned, so ruleFired is final.
    if (!ruleFired) throw;
  }

  ChunkedCampaignResult<Stats> result;
  result.stoppedEarly = ruleFired;
  result.chunksUsed = ruleFired ? stopChunk : chunks;
  if (stoppable) {
    // The incremental prefix merge holds exactly chunks [0, chunksUsed) in
    // chunk order — the full merge when the rule never fired (the last
    // completing chunk drives the prefix to the end), the frozen prefix
    // otherwise (workers stop touching it once the rule fires).
    result.stats = prefixStats;
    result.itemsUsed = prefixItems;
  } else {
    for (const Stats& chunk : accumulators) result.stats.merge(chunk);
    result.itemsUsed = experiments;
  }

  if (profile != nullptr) {
    profile->add("exec.campaigns");
    profile->add("exec.items", result.itemsUsed);
    profile->add("exec.chunks", result.chunksUsed);
    if (result.stoppedEarly) profile->add("exec.early_stopped");
    const double elapsed = campaignClock.elapsedSeconds();
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(parallelism.resolvedThreads(), chunks == 0 ? 1 : chunks));
    profile->gaugeMax("wall.exec.threads", static_cast<double>(workers));
    profile->gaugeMax("wall.exec.campaign_seconds", elapsed);
    if (elapsed > 0.0) {
      profile->gaugeMax("wall.exec.items_per_second",
                        static_cast<double>(ranItems.load()) / elapsed);
      profile->gaugeMax("wall.exec.worker_utilization",
                        busySeconds.load() / (elapsed * static_cast<double>(workers)));
    }
  }
  return result;
}

}  // namespace nlft::exec
