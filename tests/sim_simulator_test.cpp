#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
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

TEST(Simulator, TypedEventsCallTheirComponentWithTheirWord) {
  struct Recorder {
    std::vector<std::pair<int, std::uint64_t>> calls;
    int id = 0;
    void onEvent(std::uint64_t word) { calls.emplace_back(id, word); }
  };
  Simulator simulator;
  Recorder first{{}, 1};
  Recorder second{{}, 2};
  const std::uint32_t a = simulator.addComponent(&first);
  const std::uint32_t b = simulator.addComponent(&second);
  EXPECT_NE(a, b);
  constexpr Event::Handler handler = &callMember<Recorder, &Recorder::onEvent>;
  simulator.scheduleAt(SimTime::fromUs(20), Event{handler, b, 7}, EventPriority::Kernel);
  simulator.scheduleAt(SimTime::fromUs(10), Event{handler, a, 3}, EventPriority::Kernel);
  // A closure and a typed event at one instant keep (priority, insertion)
  // order, whichever kind they are.
  simulator.scheduleAt(SimTime::fromUs(20), [&] { first.calls.emplace_back(0, 0); },
                       EventPriority::Hardware);
  const EventId cancelled =
      simulator.scheduleAt(SimTime::fromUs(20), Event{handler, a, 99}, EventPriority::Kernel);
  simulator.scheduleAt(SimTime::fromUs(20), Event{handler, a, 5}, EventPriority::Kernel);
  EXPECT_TRUE(simulator.cancel(cancelled));
  simulator.runAll();
  EXPECT_EQ(first.calls, (std::vector<std::pair<int, std::uint64_t>>{{1, 3}, {0, 0}, {1, 5}}));
  EXPECT_EQ(second.calls, (std::vector<std::pair<int, std::uint64_t>>{{2, 7}}));
  EXPECT_EQ(simulator.processedEvents(), 4u);
}

TEST(Simulator, CancellingAClosureDestroysItsCapturesAtOnce) {
  Simulator simulator;
  const auto captured = std::make_shared<int>(0);
  const EventId id =
      simulator.scheduleAfter(Duration::milliseconds(1), [captured] { ++*captured; });
  const EventId kept =
      simulator.scheduleAfter(Duration::milliseconds(2), [captured] { ++*captured; });
  EXPECT_EQ(captured.use_count(), 3);
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_EQ(captured.use_count(), 2);  // the cancelled closure is gone, not just skipped
  simulator.runAll();
  EXPECT_EQ(*captured, 1);
  EXPECT_EQ(captured.use_count(), 1);  // and a fired one is gone after it ran
  EXPECT_FALSE(simulator.cancel(kept));
}

TEST(Simulator, ClosureStoreStaysBoundedUnderScheduleCancelChurn) {
  // Every round tops the queue up to eight closures, cancels one of the
  // eight newest handles (a live one, or one that already fired or was
  // cancelled) and, every third round, fires one. Freed store entries are
  // reused, so the store never outgrows the eight pending closures.
  Simulator simulator;
  util::Rng rng{20261018};
  std::vector<EventId> handles;
  std::size_t cancelled = 0;
  for (int round = 0; round < 20000; ++round) {
    while (simulator.pendingEvents() < 8) {
      const auto delay = Duration::microseconds(static_cast<std::int64_t>(rng.uniformInt(50)));
      handles.push_back(simulator.scheduleAfter(delay, [] {}));
    }
    const std::size_t back = rng.uniformInt(8);
    cancelled += simulator.cancel(handles[handles.size() - 1 - back]) ? 1 : 0;
    if (round % 3 == 0) simulator.step();
  }
  EXPECT_GT(cancelled, 10000u);
  EXPECT_GT(simulator.processedEvents(), 5000u);
  EXPECT_LE(simulator.closureStoreSize(), 8u);
}

// Differential tests against a reference model: an ordered map keyed by
// (at, priority, seq), which is the documented event order. Random
// schedule / cancel / step / runUntil operations over a mix of typed events
// and closures; half of the cancels hit a pending event, the rest any handle
// ever issued (fired, cancelled, or stale after its slot was reused). Some
// events cancel an earlier-issued event (or themselves) when they fire, and
// the model replays those cancels at the same point. After the mix, both
// sides drain.
struct OperationMix {
  int prefill = 0;  ///< schedules before the mix starts
  int operations = 0;
  int schedulePct = 0;
  int cancelPct = 0;
  int stepPct = 0;  ///< the remaining percent are runUntil
  int closurePct = 50;          ///< scheduled events that are closures
  int cancelInHandlerPct = 20;  ///< fired events that cancel an issued event
  std::function<std::int64_t(util::Rng&)> delayUs;       ///< at = now + delay
  std::function<std::int64_t(util::Rng&)> runUntilSpanUs;  ///< limit = now + span
};

struct ModelRunCounts {
  std::size_t fired = 0;
  std::size_t closuresFired = 0;
  std::size_t cancelledLive = 0;
  std::size_t cancelledLiveInHandler = 0;
  std::size_t pendingSum = 0;  ///< summed over the mix's operations
  std::size_t maxPending = 0;
};

void runAgainstOrderedMapModel(std::uint64_t seed, const OperationMix& mix,
                               ModelRunCounts& counts) {
  using Key = std::tuple<std::int64_t, int, std::uint64_t>;
  constexpr std::array<EventPriority, 6> kPriorities{
      EventPriority::FaultInjection, EventPriority::Hardware, EventPriority::Kernel,
      EventPriority::Network,        EventPriority::Application, EventPriority::Observer};

  // The simulator side. The tag of an event is its index in `ids`; a typed
  // event carries it as its word, a closure captures it.
  struct Side {
    Simulator simulator;
    std::vector<EventId> ids;
    std::vector<std::ptrdiff_t> cancelTarget;  ///< per tag: -1 or the tag it cancels
    std::vector<bool> closure;                 ///< per tag: scheduled as a closure
    std::vector<int> fired;                    ///< tags in the order they ran
    std::vector<bool> handlerCancels;          ///< results of in-handler cancels

    void fire(std::uint64_t tag) {
      fired.push_back(static_cast<int>(tag));
      if (const std::ptrdiff_t target = cancelTarget[tag]; target >= 0) {
        handlerCancels.push_back(simulator.cancel(ids[static_cast<std::size_t>(target)]));
      }
    }
    void onTyped(std::uint64_t tag) {
      EXPECT_FALSE(closure[tag]);
      fire(tag);
    }
  };
  Side side;
  const std::uint32_t component = side.simulator.addComponent(&side);
  Simulator& simulator = side.simulator;
  util::Rng rng{seed};

  std::map<Key, std::size_t> model;  // pending events -> tag
  std::vector<Key> keys;             // per tag
  std::vector<int> modelFired;
  std::vector<bool> modelHandlerCancels;
  std::int64_t modelNow = 0;
  std::uint64_t modelSeq = 0;
  std::size_t checked = 0;  // fired tags already compared

  const auto modelFireFront = [&] {
    const auto [key, tag] = *model.begin();
    modelNow = std::get<0>(key);
    modelFired.push_back(static_cast<int>(tag));
    model.erase(model.begin());
    counts.closuresFired += side.closure[tag] ? 1 : 0;
    if (const std::ptrdiff_t target = side.cancelTarget[tag]; target >= 0) {
      const bool live = model.erase(keys[static_cast<std::size_t>(target)]) == 1;
      counts.cancelledLiveInHandler += live ? 1 : 0;
      modelHandlerCancels.push_back(live);
    }
  };
  const auto schedule = [&] {
    const std::int64_t at = modelNow + mix.delayUs(rng);
    const EventPriority priority = kPriorities[rng.uniformInt(kPriorities.size())];
    const std::size_t tag = side.ids.size();
    const bool closure = static_cast<int>(rng.uniformInt(100)) < mix.closurePct;
    std::ptrdiff_t target = -1;
    if (static_cast<int>(rng.uniformInt(100)) < mix.cancelInHandlerPct) {
      // One of the 16 most recently issued events, this one included (a
      // cancel after firing): most of them are still pending.
      const std::size_t back = rng.uniformInt(std::min<std::size_t>(tag + 1, 16));
      target = static_cast<std::ptrdiff_t>(tag - back);
    }
    side.cancelTarget.push_back(target);
    side.closure.push_back(closure);
    const EventId id =
        closure ? simulator.scheduleAt(SimTime::fromUs(at), [&side, tag] { side.fire(tag); },
                                       priority)
                : simulator.scheduleAt(
                      SimTime::fromUs(at),
                      Event{&callMember<Side, &Side::onTyped>, component, tag}, priority);
    const Key key{at, static_cast<int>(priority), modelSeq++};
    model.emplace(key, tag);
    keys.push_back(key);
    side.ids.push_back(id);
  };
  const auto agree = [&] {
    ASSERT_EQ(side.fired.size(), modelFired.size());
    for (; checked < side.fired.size(); ++checked) {
      ASSERT_EQ(side.fired[checked], modelFired[checked]);
    }
    ASSERT_EQ(side.handlerCancels, modelHandlerCancels);
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
      if (side.ids.empty()) continue;
      const bool pickLive = !model.empty() && rng.uniformInt(2) == 0;
      const std::size_t tag =
          pickLive ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                                  rng.uniformInt(model.size())))->second
                   : rng.uniformInt(side.ids.size());
      const bool expected = model.erase(keys[tag]) == 1;
      counts.cancelledLive += expected;
      ASSERT_EQ(simulator.cancel(side.ids[tag]), expected);
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
  // The mix must have exercised every path, for both kinds of event.
  EXPECT_GT(counts.fired, 1000u);
  EXPECT_GT(counts.closuresFired, 500u);
  EXPECT_GT(counts.fired - counts.closuresFired, 500u);
  EXPECT_GT(counts.cancelledLive, 1000u);
  EXPECT_GT(counts.cancelledLiveInHandler, 50u);
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
  EXPECT_GT(counts.cancelledLiveInHandler, 500u);
}

}  // namespace
}  // namespace nlft::sim
