#include "rtkernel/cpu.hpp"

#include <gtest/gtest.h>

namespace nlft::rt {
namespace {

using util::Duration;
using util::SimTime;

TEST(Cpu, RunsSingleItemToCompletion) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<ExecutionSegment> trace;
  cpu.setSegmentTap([&](const ExecutionSegment& segment) { trace.push_back(segment); });
  bool done = false;
  cpu.post(1, Duration::milliseconds(5), [&] { done = true; }, "a");
  simulator.runAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(simulator.now(), SimTime::fromUs(5000));
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].label, "a");
  EXPECT_EQ(trace[0].start, SimTime::zero());
  EXPECT_EQ(trace[0].end, SimTime::fromUs(5000));
}

TEST(Cpu, EqualPriorityIsFifo) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<std::string> order;
  cpu.post(1, Duration::milliseconds(1), [&] { order.push_back("a"); }, "a");
  cpu.post(1, Duration::milliseconds(1), [&] { order.push_back("b"); }, "b");
  cpu.post(1, Duration::milliseconds(1), [&] { order.push_back("c"); }, "c");
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Cpu, HigherPriorityPreempts) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<ExecutionSegment> trace;
  cpu.setSegmentTap([&](const ExecutionSegment& segment) { trace.push_back(segment); });
  std::vector<std::pair<std::string, std::int64_t>> completions;
  auto record = [&](const std::string& label) {
    completions.emplace_back(label, simulator.now().us());
  };
  cpu.post(1, Duration::milliseconds(10), [&] { record("low"); }, "low");
  // After 3 ms, a high-priority item arrives and preempts.
  simulator.scheduleAfter(Duration::milliseconds(3), [&] {
    cpu.post(5, Duration::milliseconds(2), [&] { record("high"); }, "high");
  });
  simulator.runAll();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].first, "high");
  EXPECT_EQ(completions[0].second, 5000);  // 3 + 2
  EXPECT_EQ(completions[1].first, "low");
  EXPECT_EQ(completions[1].second, 12000);  // 10 total + 2 preempted
  EXPECT_EQ(cpu.preemptions(), 1u);

  // Trace: low [0,3), high [3,5), low [5,12).
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].label, "low");
  EXPECT_EQ(trace[0].end.us(), 3000);
  EXPECT_EQ(trace[1].label, "high");
  EXPECT_EQ(trace[2].label, "low");
  EXPECT_EQ(trace[2].start.us(), 5000);
  EXPECT_EQ(trace[2].end.us(), 12000);
}

TEST(Cpu, EqualPriorityDoesNotPreempt) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<std::string> order;
  cpu.post(1, Duration::milliseconds(4), [&] { order.push_back("first"); }, "first");
  simulator.scheduleAfter(Duration::milliseconds(1), [&] {
    cpu.post(1, Duration::milliseconds(1), [&] { order.push_back("second"); }, "second");
  });
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(cpu.preemptions(), 0u);
}

TEST(Cpu, NestedPreemption) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<std::string> order;
  cpu.post(1, Duration::milliseconds(10), [&] { order.push_back("low"); }, "low");
  simulator.scheduleAfter(Duration::milliseconds(2), [&] {
    cpu.post(2, Duration::milliseconds(6), [&] { order.push_back("mid"); }, "mid");
  });
  simulator.scheduleAfter(Duration::milliseconds(3), [&] {
    cpu.post(3, Duration::milliseconds(1), [&] { order.push_back("high"); }, "high");
  });
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
  // low runs [0,2), mid [2,3), high [3,4), mid [4,9), low [9,17).
  EXPECT_EQ(simulator.now().us(), 17000);
  EXPECT_EQ(cpu.preemptions(), 2u);
}

TEST(Cpu, CancelQueuedItem) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  bool ran = false;
  cpu.post(2, Duration::milliseconds(2), [] {}, "runner");
  const WorkId queued = cpu.post(1, Duration::milliseconds(2), [&] { ran = true; }, "queued");
  EXPECT_TRUE(cpu.cancel(queued));
  EXPECT_FALSE(cpu.cancel(queued));
  simulator.runAll();
  EXPECT_FALSE(ran);
}

TEST(Cpu, CancelRunningItemDispatchesNext) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  bool victimRan = false;
  bool nextRan = false;
  const WorkId victim = cpu.post(2, Duration::milliseconds(10), [&] { victimRan = true; }, "victim");
  cpu.post(1, Duration::milliseconds(1), [&] { nextRan = true; }, "next");
  simulator.scheduleAfter(Duration::milliseconds(3), [&] { cpu.cancel(victim); });
  simulator.runAll();
  EXPECT_FALSE(victimRan);
  EXPECT_TRUE(nextRan);
  EXPECT_EQ(simulator.now().us(), 4000);  // victim ran 3 ms, next 1 ms
  EXPECT_EQ(cpu.busyTime().us(), 4000);
}

TEST(Cpu, BusyTimeExcludesIdleGaps) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  cpu.post(1, Duration::milliseconds(2), [] {}, "a");
  simulator.scheduleAfter(Duration::milliseconds(10), [&] {
    cpu.post(1, Duration::milliseconds(3), [] {}, "b");
  });
  simulator.runAll();
  EXPECT_EQ(simulator.now().us(), 13000);
  EXPECT_EQ(cpu.busyTime().us(), 5000);
}

TEST(Cpu, ContextSwitchOverheadCharged) {
  sim::Simulator simulator;
  Cpu cpu{simulator, Duration::microseconds(100)};
  std::int64_t doneAt = 0;
  cpu.post(1, Duration::milliseconds(1), [&] { doneAt = simulator.now().us(); }, "a");
  simulator.runAll();
  EXPECT_EQ(doneAt, 1100);  // 100 us dispatch overhead + 1 ms work
}

TEST(Cpu, CompletionCanPostFollowUpWork) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  int phase = 0;
  cpu.post(1, Duration::milliseconds(1), [&] {
    phase = 1;
    cpu.post(1, Duration::milliseconds(1), [&] { phase = 2; }, "second");
  }, "first");
  simulator.runAll();
  EXPECT_EQ(phase, 2);
  EXPECT_EQ(simulator.now().us(), 2000);
}

TEST(Cpu, ZeroWorkCompletesImmediately) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  bool done = false;
  cpu.post(1, Duration{}, [&] { done = true; }, "instant");
  simulator.runAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(simulator.now(), SimTime::zero());
}

TEST(Cpu, RejectsNegativeWork) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  EXPECT_THROW(cpu.post(1, Duration::microseconds(-1), [] {}, "bad"), std::invalid_argument);
}

TEST(Cpu, RunningLabelReflectsDispatch) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  EXPECT_TRUE(cpu.idle());
  cpu.post(1, Duration::milliseconds(1), [] {}, "task-a");
  EXPECT_EQ(cpu.runningLabel(), "task-a");
  EXPECT_FALSE(cpu.idle());
  simulator.runAll();
  EXPECT_TRUE(cpu.idle());
}

}  // namespace
}  // namespace nlft::rt
