#include "rtkernel/cpu.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace nlft::rt {
namespace {

using util::Duration;
using util::SimTime;

/// A component that records completed work items. done(name) makes the
/// typed completion of an item called `name`; when the Cpu calls it, the
/// recorder appends the name and the instant, then runs `then`, if set.
struct Recorder {
  explicit Recorder(sim::Simulator& s) : simulator{s}, component{s.addComponent(this)} {}

  sim::Event done(std::string name) {
    names.push_back(std::move(name));
    return sim::Event{&sim::callMember<Recorder, &Recorder::onDone>, component, names.size() - 1};
  }

  void onDone(std::uint64_t item) {
    const std::string name = names[item];  // a copy: `then` may add names
    completed.push_back(name);
    at.push_back(simulator.now().us());
    if (then) then(name);
  }

  sim::Simulator& simulator;
  std::uint32_t component;
  std::vector<std::string> names;      ///< item word -> name
  std::vector<std::string> completed;  ///< names in completion order
  std::vector<std::int64_t> at;        ///< completion instants, in microseconds
  std::function<void(const std::string&)> then;
};

TEST(Cpu, RunsSingleItemToCompletion) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  std::vector<ExecutionSegment> trace;
  cpu.setSegmentTap([&](const ExecutionSegment& segment) { trace.push_back(segment); });
  cpu.post(1, Duration::milliseconds(5), recorder.done("a"), "a");
  simulator.runAll();
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"a"}));
  EXPECT_EQ(simulator.now(), SimTime::fromUs(5000));
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].label, "a");
  EXPECT_EQ(trace[0].start, SimTime::zero());
  EXPECT_EQ(trace[0].end, SimTime::fromUs(5000));
}

TEST(Cpu, EqualPriorityIsFifo) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  cpu.post(1, Duration::milliseconds(1), recorder.done("a"), "a");
  cpu.post(1, Duration::milliseconds(1), recorder.done("b"), "b");
  cpu.post(1, Duration::milliseconds(1), recorder.done("c"), "c");
  simulator.runAll();
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Cpu, HigherPriorityPreempts) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  std::vector<ExecutionSegment> trace;
  cpu.setSegmentTap([&](const ExecutionSegment& segment) { trace.push_back(segment); });
  cpu.post(1, Duration::milliseconds(10), recorder.done("low"), "low");
  // After 3 ms, a high-priority item arrives and preempts.
  simulator.scheduleAfter(Duration::milliseconds(3), [&] {
    cpu.post(5, Duration::milliseconds(2), recorder.done("high"), "high");
  });
  simulator.runAll();
  ASSERT_EQ(recorder.completed.size(), 2u);
  EXPECT_EQ(recorder.completed[0], "high");
  EXPECT_EQ(recorder.at[0], 5000);  // 3 + 2
  EXPECT_EQ(recorder.completed[1], "low");
  EXPECT_EQ(recorder.at[1], 12000);  // 10 total + 2 preempted
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
  Recorder recorder{simulator};
  cpu.post(1, Duration::milliseconds(4), recorder.done("first"), "first");
  simulator.scheduleAfter(Duration::milliseconds(1), [&] {
    cpu.post(1, Duration::milliseconds(1), recorder.done("second"), "second");
  });
  simulator.runAll();
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(cpu.preemptions(), 0u);
}

TEST(Cpu, NestedPreemption) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  cpu.post(1, Duration::milliseconds(10), recorder.done("low"), "low");
  simulator.scheduleAfter(Duration::milliseconds(2), [&] {
    cpu.post(2, Duration::milliseconds(6), recorder.done("mid"), "mid");
  });
  simulator.scheduleAfter(Duration::milliseconds(3), [&] {
    cpu.post(3, Duration::milliseconds(1), recorder.done("high"), "high");
  });
  simulator.runAll();
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"high", "mid", "low"}));
  // low runs [0,2), mid [2,3), high [3,4), mid [4,9), low [9,17).
  EXPECT_EQ(simulator.now().us(), 17000);
  EXPECT_EQ(cpu.preemptions(), 2u);
}

TEST(Cpu, CancelQueuedItem) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  cpu.post(2, Duration::milliseconds(2), recorder.done("runner"), "runner");
  const WorkId queued = cpu.post(1, Duration::milliseconds(2), recorder.done("queued"), "queued");
  EXPECT_TRUE(cpu.cancel(queued));
  EXPECT_FALSE(cpu.cancel(queued));
  simulator.runAll();
  // The cancelled item's record never runs.
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"runner"}));
}

TEST(Cpu, CancelRunningItemDispatchesNext) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  const WorkId victim = cpu.post(2, Duration::milliseconds(10), recorder.done("victim"), "victim");
  cpu.post(1, Duration::milliseconds(1), recorder.done("next"), "next");
  simulator.scheduleAfter(Duration::milliseconds(3), [&] { cpu.cancel(victim); });
  simulator.runAll();
  // The cancelled running item's record never runs; the next item's does.
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"next"}));
  EXPECT_EQ(simulator.now().us(), 4000);  // victim ran 3 ms, next 1 ms
  EXPECT_EQ(cpu.busyTime().us(), 4000);
}

TEST(Cpu, BusyTimeExcludesIdleGaps) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  cpu.post(1, Duration::milliseconds(2), sim::Event{}, "a");
  simulator.scheduleAfter(Duration::milliseconds(10), [&] {
    cpu.post(1, Duration::milliseconds(3), sim::Event{}, "b");
  });
  simulator.runAll();
  EXPECT_EQ(simulator.now().us(), 13000);
  EXPECT_EQ(cpu.busyTime().us(), 5000);
}

TEST(Cpu, CompletionCanPostFollowUpWork) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  int phase = 0;
  recorder.then = [&](const std::string& name) {
    if (name != "first") {
      phase = 2;
      return;
    }
    // The record runs inside the completing event (the first one fired),
    // before the Cpu dispatches again: the zero-work item is still queued.
    EXPECT_EQ(simulator.processedEvents(), 1u);
    EXPECT_TRUE(cpu.idle());
    EXPECT_EQ(cpu.dispatches(), 1u);
    phase = 1;
    cpu.post(1, Duration::milliseconds(1), recorder.done("second"), "second");
  };
  cpu.post(1, Duration::milliseconds(1), recorder.done("first"), "first");
  cpu.post(0, Duration{}, sim::Event{}, "queued");
  simulator.runAll();
  EXPECT_EQ(phase, 2);
  EXPECT_EQ(simulator.now().us(), 2000);
}

TEST(Cpu, ZeroWorkCompletesImmediately) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  Recorder recorder{simulator};
  cpu.post(1, Duration{}, recorder.done("instant"), "instant");
  simulator.runAll();
  EXPECT_EQ(recorder.completed, (std::vector<std::string>{"instant"}));
  EXPECT_EQ(simulator.now(), SimTime::zero());
}

TEST(Cpu, RejectsNegativeWork) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  EXPECT_THROW(cpu.post(1, Duration::microseconds(-1), sim::Event{}, "bad"),
               std::invalid_argument);
}

TEST(Cpu, RunningLabelReflectsDispatch) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  EXPECT_TRUE(cpu.idle());
  cpu.post(1, Duration::milliseconds(1), sim::Event{}, "task-a");
  EXPECT_EQ(cpu.runningLabel(), "task-a");
  EXPECT_FALSE(cpu.idle());
  simulator.runAll();
  EXPECT_TRUE(cpu.idle());
}

}  // namespace
}  // namespace nlft::rt
