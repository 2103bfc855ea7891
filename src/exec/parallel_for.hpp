// Deterministic chunked parallel execution.
//
// The contract that makes parallel Monte-Carlo and fault-injection campaigns
// bit-identical to their serial runs, for ANY thread count:
//
//  1. [0, items) is split into chunks whose boundaries depend only on
//     `items` and `Parallelism::chunkSize` — never on the thread count.
//  2. The caller derives one independent RNG sub-stream per chunk (fork the
//     root RNG in chunk order BEFORE running) and keeps one accumulator per
//     chunk.
//  3. After forEachChunk returns, per-chunk accumulators are merged in chunk
//     order — completion order is irrelevant.
//
// Threads only decide WHO runs a chunk, never WHAT the chunk computes or how
// results combine. The calling thread is always a worker, so `threads = 1`
// runs inline and default configs pay nothing for the machinery.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace nlft::exec {

/// Degree of parallelism for a campaign or estimation run.
struct Parallelism {
  /// Worker threads; 1 = serial (default), 0 = all hardware threads.
  unsigned threads = 1;
  /// Items per chunk; 0 = auto. Results depend on the chunk size (it fixes
  /// the item-to-RNG-substream mapping) but NOT on `threads`.
  std::size_t chunkSize = 0;

  /// Worker threads to use: `threads`, or all hardware threads for 0;
  /// always at least 1.
  [[nodiscard]] unsigned resolvedThreads() const;
  [[nodiscard]] std::size_t resolvedChunkSize(std::size_t items) const;
};

/// Throughput snapshot passed to progress callbacks.
struct ProgressSnapshot {
  std::size_t completedItems = 0;
  std::size_t totalItems = 0;
  double elapsedSeconds = 0.0;
  double itemsPerSecond = 0.0;  ///< average rate since the run started
  double etaSeconds = 0.0;      ///< remaining work at the average rate
  /// Items completed by each worker; uneven entries reveal load imbalance.
  std::vector<std::size_t> perWorkerItems;
};

/// Progress callback; calls are serialized, at most one per 0.25 s plus the
/// final 100% report.
using ProgressFn = std::function<void(const ProgressSnapshot&)>;

/// A contiguous slice of the item range: [begin, end), with its chunk index.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t index = 0;
};

/// Number of chunks [0, items) splits into for the given chunk size.
[[nodiscard]] std::size_t chunkCount(std::size_t items, std::size_t chunkSize);

/// Runs body(range, worker) over every chunk of [0, items). The calling
/// thread is worker 0 and up to `threads - 1` more threads run beside it;
/// workers claim chunks in index order, so `body` may run concurrently on
/// different chunks. A throwing body stops further claims: once every
/// running chunk has returned, the exception of the lowest-index chunk that
/// threw is rethrown — the one a `threads = 1` run throws. Workers read
/// `stop`, if set, before claiming a chunk: once it is true no further chunk
/// starts and the run ends after the chunks already in flight. On a run that
/// was not stopped `onProgress`, if set, always fires one last time at 100%.
/// Returns the number of items actually processed (< items only when
/// stopped).
std::size_t forEachChunk(std::size_t items, const Parallelism& parallelism,
                         const std::function<void(const ChunkRange&, unsigned worker)>& body,
                         const std::atomic<bool>* stop = nullptr,
                         const ProgressFn& onProgress = {});

}  // namespace nlft::exec
