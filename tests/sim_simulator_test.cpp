#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
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

// Differential test against a reference model: an ordered map keyed by
// (at, priority, seq), which is the documented event order. Random
// schedule / cancel / step / runUntil operations; half of the cancels hit a
// pending event, the rest any handle ever issued (fired, cancelled, or stale
// after its slot was reused).
TEST(Simulator, RandomizedOperationsMatchOrderedMapModel) {
  using Key = std::tuple<std::int64_t, int, std::uint64_t>;
  constexpr std::array<EventPriority, 6> kPriorities{
      EventPriority::FaultInjection, EventPriority::Hardware, EventPriority::Kernel,
      EventPriority::Network,        EventPriority::Application, EventPriority::Observer};

  Simulator simulator;
  util::Rng rng{20260417};
  std::vector<int> fired;  // tags in the order the simulator ran them

  std::map<Key, std::size_t> model;  // pending events -> index into `issued`
  std::vector<std::pair<EventId, Key>> issued;  // the tag of an event is its index
  std::vector<int> modelFired;
  std::int64_t modelNow = 0;
  std::uint64_t modelSeq = 0;
  std::size_t cancelledLive = 0;

  const auto modelFireFront = [&] {
    modelNow = std::get<0>(model.begin()->first);
    modelFired.push_back(static_cast<int>(model.begin()->second));
    model.erase(model.begin());
  };

  for (int op = 0; op < 20000; ++op) {
    SCOPED_TRACE(op);
    const std::uint64_t kind = rng.uniformInt(100);
    if (kind < 45) {
      // Small time spread so that same-instant ties are common.
      const std::int64_t at = modelNow + static_cast<std::int64_t>(rng.uniformInt(40));
      const EventPriority priority = kPriorities[rng.uniformInt(kPriorities.size())];
      const int tag = static_cast<int>(issued.size());
      const EventId id = simulator.scheduleAt(SimTime::fromUs(at),
                                              [&fired, tag] { fired.push_back(tag); }, priority);
      const Key key{at, static_cast<int>(priority), modelSeq++};
      model.emplace(key, issued.size());
      issued.emplace_back(id, key);
    } else if (kind < 70) {
      if (issued.empty()) continue;
      const bool pickLive = !model.empty() && rng.uniformInt(2) == 0;
      const std::size_t index =
          pickLive ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                                  rng.uniformInt(model.size())))->second
                   : rng.uniformInt(issued.size());
      const auto& [id, key] = issued[index];
      const bool expected = model.erase(key) == 1;
      cancelledLive += expected;
      ASSERT_EQ(simulator.cancel(id), expected);
    } else if (kind < 90) {
      const bool expected = !model.empty();
      if (expected) modelFireFront();
      ASSERT_EQ(simulator.step(), expected);
    } else {
      // Occasionally a limit before now: the clock must not move back.
      const std::int64_t limit = modelNow - 5 + static_cast<std::int64_t>(rng.uniformInt(65));
      while (!model.empty() && std::get<0>(model.begin()->first) <= limit) modelFireFront();
      modelNow = std::max(modelNow, limit);
      simulator.runUntil(SimTime::fromUs(limit));
    }
    ASSERT_EQ(fired, modelFired);
    ASSERT_EQ(simulator.now(), SimTime::fromUs(modelNow));
    ASSERT_EQ(simulator.pendingEvents(), model.size());
    ASSERT_EQ(simulator.processedEvents(), modelFired.size());
  }
  // The mix must have exercised every path.
  EXPECT_GT(modelFired.size(), 1000u);
  EXPECT_GT(cancelledLive, 1000u);
}

}  // namespace
}  // namespace nlft::sim
