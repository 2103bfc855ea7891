// Allocation budget of a simulated event: one fault-free brake-by-wire stop
// with a metrics registry attached must make at most 0.010 heap allocations
// per processed event (it makes about 0.009). Events are plain records,
// and static and dynamic frames, task results, jobs and CPU labels live in
// buffers the simulation reuses, so the steady-state event is
// allocation-free; what remains is growth of those buffers and the
// end-of-run metric folding, which allocates only for a counter the
// registry does not hold yet (adding to one builds no name string). One
// allocation per dynamic-segment frame would exceed the budget, and so would
// a name string per counter and node in the fold (about 117 allocations),
// or keeping the CPU execution segments of a stop without a trace recorder.
//
// This file replaces the global operator new to count allocations, which is
// why it is an executable of its own.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "bbw/system_sim.hpp"
#include "obs/metrics.hpp"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

void* countedAlloc(std::size_t size) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return countedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
// GCC takes the free() inside a replaced operator delete for a mismatched
// new/free pair; here both sides are malloc/free by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace nlft::bbw {
namespace {

TEST(BbwAllocBudget, GoldenStopAllocatesAtMostPointZeroOnePerEvent) {
  obs::Registry registry;
  BbwSystemSim sim{BbwSimConfig{}};
  sim.setMetricsRegistry(&registry);

  gAllocations.store(0);
  gCounting.store(true);
  const BbwSimResult result = sim.run();
  gCounting.store(false);

  ASSERT_TRUE(result.stopped);
  const std::uint64_t events = sim.simulator().processedEvents();
  ASSERT_GT(events, 10000u);
  const double perEvent =
      static_cast<double>(gAllocations.load()) / static_cast<double>(events);
  RecordProperty("allocations", static_cast<int>(gAllocations.load()));
  RecordProperty("events", static_cast<int>(events));
  EXPECT_LE(perEvent, 0.010) << gAllocations.load() << " allocations over " << events
                           << " events";
}

}  // namespace
}  // namespace nlft::bbw
