#include "exec/parallel_for.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "util/time.hpp"

namespace nlft::exec {

namespace {

/// Minimum spacing between two progress callbacks; the final 100% report is
/// always delivered.
constexpr double kProgressIntervalSeconds = 0.25;

/// Shared progress state; workers report completed chunks, the callback is
/// rate-limited and serialized under a mutex.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t totalItems, unsigned workers, const ProgressFn& callback)
      : callback_{callback} {
    snapshot_.totalItems = totalItems;
    snapshot_.perWorkerItems.assign(workers, 0);
  }

  void chunkDone(std::size_t items, unsigned worker) {
    if (!callback_) return;
    std::lock_guard<std::mutex> lock{mutex_};
    snapshot_.completedItems += items;
    snapshot_.perWorkerItems[worker] += items;
    // The very last chunk to finish always reports, so observers see 100%.
    const bool finalReport = snapshot_.completedItems == snapshot_.totalItems;
    const double elapsed = stopwatch_.elapsedSeconds();
    if (!finalReport && elapsed - lastReportAt_ < kProgressIntervalSeconds) return;
    lastReportAt_ = elapsed;
    snapshot_.elapsedSeconds = elapsed;
    snapshot_.itemsPerSecond =
        elapsed > 0.0 ? static_cast<double>(snapshot_.completedItems) / elapsed : 0.0;
    const std::size_t remaining = snapshot_.totalItems - snapshot_.completedItems;
    snapshot_.etaSeconds = snapshot_.itemsPerSecond > 0.0
                               ? static_cast<double>(remaining) / snapshot_.itemsPerSecond
                               : 0.0;
    callback_(snapshot_);
  }

 private:
  const ProgressFn& callback_;
  util::MonotonicStopwatch stopwatch_;
  std::mutex mutex_;
  ProgressSnapshot snapshot_;
  double lastReportAt_ = 0.0;
};

}  // namespace

unsigned Parallelism::resolvedThreads() const {
  if (threads != 0) return threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

std::size_t Parallelism::resolvedChunkSize(std::size_t items) const {
  if (chunkSize != 0) return chunkSize;
  // Auto: ~256 chunks — enough granularity for dynamic load balancing and
  // progress reporting, few enough that per-chunk RNG forks are free. A pure
  // function of `items` so the item-to-substream mapping never depends on
  // the thread count.
  return std::max<std::size_t>(1, items / 256);
}

std::size_t chunkCount(std::size_t items, std::size_t chunkSize) {
  return chunkSize == 0 ? 0 : (items + chunkSize - 1) / chunkSize;
}

std::size_t forEachChunk(std::size_t items, const Parallelism& parallelism,
                         const std::function<void(const ChunkRange&, unsigned worker)>& body,
                         const std::atomic<bool>* stop, const ProgressFn& onProgress) {
  if (items == 0) return 0;
  const std::size_t chunkSize = parallelism.resolvedChunkSize(items);
  const std::size_t chunks = chunkCount(items, chunkSize);
  const unsigned threads =
      std::min<unsigned>(parallelism.resolvedThreads(), static_cast<unsigned>(chunks));

  ProgressMeter meter{items, std::max(threads, 1u), onProgress};
  std::atomic<std::size_t> nextChunk{0};
  std::atomic<std::size_t> processed{0};
  // The lowest-index chunk that threw, and its exception. Every chunk below
  // it was claimed earlier and runs to completion, so it is the exception a
  // serial run reaches first.
  std::atomic<bool> failed{false};
  std::mutex failureMutex;
  std::size_t failedChunk = chunks;
  std::exception_ptr failure;

  const auto drainChunks = [&](unsigned worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
      const std::size_t c = nextChunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      ChunkRange range;
      range.begin = c * chunkSize;
      range.end = std::min(items, range.begin + chunkSize);
      range.index = c;
      try {
        body(range, worker);
        const std::size_t chunkItems = range.end - range.begin;
        processed.fetch_add(chunkItems, std::memory_order_relaxed);
        meter.chunkDone(chunkItems, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock{failureMutex};
        if (c < failedChunk) {
          failedChunk = c;
          failure = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w) helpers.emplace_back(drainChunks, w);
    drainChunks(0);
  }  // the helpers join here
  if (failure) std::rethrow_exception(failure);
  return processed.load();
}

}  // namespace nlft::exec
