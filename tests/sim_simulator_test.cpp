#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace nlft::sim {
namespace {

using util::Duration;
using util::SimTime;

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.scheduleAt(SimTime::fromUs(300), [&] { order.push_back(3); });
  simulator.scheduleAt(SimTime::fromUs(100), [&] { order.push_back(1); });
  simulator.scheduleAt(SimTime::fromUs(200), [&] { order.push_back(2); });
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), SimTime::fromUs(300));
}

TEST(Simulator, TieBreakByPriorityThenInsertion) {
  Simulator simulator;
  std::vector<int> order;
  const auto t = SimTime::fromUs(50);
  simulator.scheduleAt(t, [&] { order.push_back(2); }, EventPriority::Application);
  simulator.scheduleAt(t, [&] { order.push_back(1); }, EventPriority::FaultInjection);
  simulator.scheduleAt(t, [&] { order.push_back(3); }, EventPriority::Application);
  simulator.scheduleAt(t, [&] { order.push_back(4); }, EventPriority::Observer);
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesOnlyWhenEventsFire) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), SimTime::zero());
  simulator.scheduleAfter(Duration::milliseconds(5), [] {});
  EXPECT_EQ(simulator.now(), SimTime::zero());
  simulator.step();
  EXPECT_EQ(simulator.now(), SimTime::fromUs(5000));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  const EventId id = simulator.scheduleAfter(Duration::milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(id));  // idempotent
  simulator.runAll();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator simulator;
  const EventId id = simulator.scheduleAfter(Duration::milliseconds(1), [] {});
  simulator.runAll();
  EXPECT_FALSE(simulator.cancel(id));
}

TEST(Simulator, EventsCanScheduleFurtherEvents) {
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) simulator.scheduleAfter(Duration::milliseconds(10), chain);
  };
  simulator.scheduleAfter(Duration::milliseconds(10), chain);
  simulator.runAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(simulator.now(), SimTime::fromUs(50'000));
}

TEST(Simulator, RunUntilStopsAtLimitAndAdvancesClock) {
  Simulator simulator;
  std::vector<int> order;
  simulator.scheduleAt(SimTime::fromUs(100), [&] { order.push_back(1); });
  simulator.scheduleAt(SimTime::fromUs(900), [&] { order.push_back(2); });
  simulator.runUntil(SimTime::fromUs(500));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(simulator.now(), SimTime::fromUs(500));
  simulator.runUntil(SimTime::fromUs(1000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilIncludesEventsAtTheLimit) {
  Simulator simulator;
  bool ran = false;
  simulator.scheduleAt(SimTime::fromUs(500), [&] { ran = true; });
  simulator.runUntil(SimTime::fromUs(500));
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilNotConfusedByCancelledEventAtTop) {
  // Regression: a cancelled event before the limit must not make runUntil
  // execute a live event beyond the limit.
  Simulator simulator;
  bool lateRan = false;
  const EventId cancelled = simulator.scheduleAt(SimTime::fromUs(100), [] {});
  simulator.scheduleAt(SimTime::fromUs(900), [&] { lateRan = true; });
  simulator.cancel(cancelled);
  simulator.runUntil(SimTime::fromUs(500));
  EXPECT_FALSE(lateRan);
  EXPECT_EQ(simulator.now(), SimTime::fromUs(500));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator simulator;
  simulator.scheduleAt(SimTime::fromUs(100), [] {});
  simulator.runAll();
  EXPECT_THROW(simulator.scheduleAt(SimTime::fromUs(50), [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.scheduleAfter(Duration::microseconds(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, PendingAndProcessedCounts) {
  Simulator simulator;
  const EventId a = simulator.scheduleAfter(Duration::milliseconds(1), [] {});
  simulator.scheduleAfter(Duration::milliseconds(2), [] {});
  EXPECT_EQ(simulator.pendingEvents(), 2u);
  simulator.cancel(a);
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.runAll();
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  EXPECT_EQ(simulator.processedEvents(), 1u);
}

TEST(Simulator, CancellingFromWithinAnEvent) {
  Simulator simulator;
  bool secondRan = false;
  EventId second{};
  second = simulator.scheduleAt(SimTime::fromUs(200), [&] { secondRan = true; });
  simulator.scheduleAt(SimTime::fromUs(100), [&] { simulator.cancel(second); });
  simulator.runAll();
  EXPECT_FALSE(secondRan);
}

TEST(Simulator, SameTimeCancellationHonoursPriority) {
  // A fault-injection event at time t can cancel an application event at the
  // same instant, because fault injection runs first.
  Simulator simulator;
  bool appRan = false;
  const auto t = SimTime::fromUs(10);
  const EventId app = simulator.scheduleAt(t, [&] { appRan = true; },
                                           EventPriority::Application);
  simulator.scheduleAt(t, [&] { simulator.cancel(app); }, EventPriority::FaultInjection);
  simulator.runAll();
  EXPECT_FALSE(appRan);
}

TEST(Simulator, StaleIdDoesNotCancelTheEventThatReusedItsSlot) {
  Simulator simulator;
  bool laterRan = false;
  const EventId cancelled = simulator.scheduleAt(SimTime::fromUs(100), [] {});
  ASSERT_TRUE(simulator.cancel(cancelled));
  const EventId reused = simulator.scheduleAt(SimTime::fromUs(200), [&] { laterRan = true; });
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(simulator.cancel(cancelled));

  // Same for the handle of an event that already fired.
  bool lastRan = false;
  simulator.step();
  EXPECT_TRUE(laterRan);
  const EventId last = simulator.scheduleAt(SimTime::fromUs(300), [&] { lastRan = true; });
  EXPECT_FALSE(simulator.cancel(reused));
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.runAll();
  EXPECT_TRUE(lastRan);
  EXPECT_FALSE(simulator.cancel(last));
}

TEST(Simulator, EventCancellingItselfGetsFalse) {
  Simulator simulator;
  EventId self{};
  bool cancelResult = true;
  std::size_t pendingInside = 0;
  self = simulator.scheduleAt(SimTime::fromUs(100), [&] {
    cancelResult = simulator.cancel(self);
    pendingInside = simulator.pendingEvents();
  });
  simulator.scheduleAt(SimTime::fromUs(200), [] {});
  simulator.step();
  EXPECT_FALSE(cancelResult);
  EXPECT_EQ(pendingInside, 1u);
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  EXPECT_EQ(simulator.processedEvents(), 1u);
  simulator.runAll();
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  EXPECT_EQ(simulator.processedEvents(), 2u);
}

// Differential tests against a reference model: an ordered map keyed by
// (at, priority, seq), which is the documented event order. Random
// schedule / cancel / step / runUntil operations; half of the cancels hit a
// pending event, the rest any handle ever issued (fired, cancelled, or stale
// after its slot was reused). After the mix, both sides drain.
struct OperationMix {
  int prefill = 0;  ///< schedules before the mix starts
  int operations = 0;
  int schedulePct = 0;
  int cancelPct = 0;
  int stepPct = 0;  ///< the remaining percent are runUntil
  std::function<std::int64_t(util::Rng&)> delayUs;       ///< at = now + delay
  std::function<std::int64_t(util::Rng&)> runUntilSpanUs;  ///< limit = now + span
};

struct ModelRunCounts {
  std::size_t fired = 0;
  std::size_t cancelledLive = 0;
  std::size_t pendingSum = 0;  ///< summed over the mix's operations
  std::size_t maxPending = 0;
};

void runAgainstOrderedMapModel(std::uint64_t seed, const OperationMix& mix,
                               ModelRunCounts& counts) {
  using Key = std::tuple<std::int64_t, int, std::uint64_t>;
  constexpr std::array<EventPriority, 6> kPriorities{
      EventPriority::FaultInjection, EventPriority::Hardware, EventPriority::Kernel,
      EventPriority::Network,        EventPriority::Application, EventPriority::Observer};

  Simulator simulator;
  util::Rng rng{seed};
  std::vector<int> fired;  // tags in the order the simulator ran them

  std::map<Key, std::size_t> model;  // pending events -> index into `issued`
  std::vector<std::pair<EventId, Key>> issued;  // the tag of an event is its index
  std::vector<int> modelFired;
  std::int64_t modelNow = 0;
  std::uint64_t modelSeq = 0;
  std::size_t checked = 0;  // fired tags already compared

  const auto modelFireFront = [&] {
    modelNow = std::get<0>(model.begin()->first);
    modelFired.push_back(static_cast<int>(model.begin()->second));
    model.erase(model.begin());
  };
  const auto schedule = [&] {
    const std::int64_t at = modelNow + mix.delayUs(rng);
    const EventPriority priority = kPriorities[rng.uniformInt(kPriorities.size())];
    const int tag = static_cast<int>(issued.size());
    const EventId id = simulator.scheduleAt(SimTime::fromUs(at),
                                            [&fired, tag] { fired.push_back(tag); }, priority);
    const Key key{at, static_cast<int>(priority), modelSeq++};
    model.emplace(key, issued.size());
    issued.emplace_back(id, key);
  };
  const auto agree = [&] {
    ASSERT_EQ(fired.size(), modelFired.size());
    for (; checked < fired.size(); ++checked) ASSERT_EQ(fired[checked], modelFired[checked]);
    ASSERT_EQ(simulator.now(), SimTime::fromUs(modelNow));
    ASSERT_EQ(simulator.pendingEvents(), model.size());
    ASSERT_EQ(simulator.processedEvents(), modelFired.size());
  };

  for (int i = 0; i < mix.prefill; ++i) schedule();
  for (int op = 0; op < mix.operations; ++op) {
    SCOPED_TRACE(op);
    const auto kind = static_cast<int>(rng.uniformInt(100));
    if (kind < mix.schedulePct) {
      schedule();
    } else if (kind < mix.schedulePct + mix.cancelPct) {
      if (issued.empty()) continue;
      const bool pickLive = !model.empty() && rng.uniformInt(2) == 0;
      const std::size_t index =
          pickLive ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                                  rng.uniformInt(model.size())))->second
                   : rng.uniformInt(issued.size());
      const auto& [id, key] = issued[index];
      const bool expected = model.erase(key) == 1;
      counts.cancelledLive += expected;
      ASSERT_EQ(simulator.cancel(id), expected);
    } else if (kind < mix.schedulePct + mix.cancelPct + mix.stepPct) {
      const bool expected = !model.empty();
      if (expected) modelFireFront();
      ASSERT_EQ(simulator.step(), expected);
    } else {
      // A limit before now must not move the clock back.
      const std::int64_t limit = modelNow + mix.runUntilSpanUs(rng);
      while (!model.empty() && std::get<0>(model.begin()->first) <= limit) modelFireFront();
      modelNow = std::max(modelNow, limit);
      simulator.runUntil(SimTime::fromUs(limit));
    }
    ASSERT_NO_FATAL_FAILURE(agree());
    counts.pendingSum += model.size();
    counts.maxPending = std::max(counts.maxPending, model.size());
  }
  counts.fired = modelFired.size();
  while (!model.empty()) modelFireFront();
  simulator.runAll();
  ASSERT_NO_FATAL_FAILURE(agree());
}

TEST(Simulator, RandomizedOperationsMatchOrderedMapModel) {
  OperationMix mix;
  mix.operations = 20000;
  mix.schedulePct = 45;
  mix.cancelPct = 25;
  mix.stepPct = 20;
  // Small time spread so that same-instant ties are common.
  mix.delayUs = [](util::Rng& rng) { return static_cast<std::int64_t>(rng.uniformInt(40)); };
  mix.runUntilSpanUs = [](util::Rng& rng) {
    return static_cast<std::int64_t>(rng.uniformInt(65)) - 5;
  };
  ModelRunCounts counts;
  ASSERT_NO_FATAL_FAILURE(runAgainstOrderedMapModel(20260417, mix, counts));
  // The mix must have exercised every path.
  EXPECT_GT(counts.fired, 1000u);
  EXPECT_GT(counts.cancelledLive, 1000u);
}

// The same model with thousands of pending events: inserts land at both
// ends of the queue and in between (at the instant of now, within a few
// control periods, or up to seconds ahead), so they shift long runs of
// entries; cancelled far-future entries wait deep in the queue, and the
// final drain steps past them.
TEST(Simulator, DeepQueueOperationsMatchOrderedMapModel) {
  OperationMix mix;
  mix.prefill = 3000;
  mix.operations = 30000;
  mix.schedulePct = 59;
  mix.cancelPct = 8;
  mix.stepPct = 25;
  mix.delayUs = [](util::Rng& rng) -> std::int64_t {
    switch (rng.uniformInt(8)) {
      case 0:
      case 1:
        return 0;  // same instant as now
      case 2:
      case 3:
      case 4:
        return static_cast<std::int64_t>(rng.uniformInt(400));
      case 5:
        return static_cast<std::int64_t>(rng.uniformInt(20'000));
      default:
        return static_cast<std::int64_t>(rng.uniformInt(3'000'000));  // up to 3 s
    }
  };
  mix.runUntilSpanUs = [](util::Rng& rng) -> std::int64_t {
    if (rng.uniformInt(64) == 0) return static_cast<std::int64_t>(rng.uniformInt(20'000));
    return static_cast<std::int64_t>(rng.uniformInt(1000)) - 50;
  };
  ModelRunCounts counts;
  ASSERT_NO_FATAL_FAILURE(runAgainstOrderedMapModel(20261018, mix, counts));
  // Over a thousand live events on average, and the whole prefill at the
  // peak (cancelled entries wait in the queue on top of these).
  EXPECT_GT(counts.pendingSum / static_cast<std::size_t>(mix.operations), 1000u);
  EXPECT_GT(counts.maxPending, 3000u);
  EXPECT_GT(counts.fired, 10000u);
  EXPECT_GT(counts.cancelledLive, 1000u);
}

}  // namespace
}  // namespace nlft::sim
