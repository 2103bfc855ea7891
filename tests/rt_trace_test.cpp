#include "rtkernel/trace.hpp"

#include <gtest/gtest.h>

namespace nlft::rt {
namespace {

using util::Duration;
using util::SimTime;

ExecutionSegment segment(const char* label, std::int64_t startMs, std::int64_t endMs) {
  return {label, SimTime::fromUs(startMs * 1000), SimTime::fromUs(endMs * 1000)};
}

TEST(Gantt, SingleSegment) {
  const std::vector<ExecutionSegment> trace{segment("a", 0, 3)};
  EXPECT_EQ(renderGantt(trace, Duration::milliseconds(1)), "a |###\n");
}

TEST(Gantt, PreemptionPattern) {
  // low [0,3), high [3,5), low [5,8): the canonical preemption Gantt.
  const std::vector<ExecutionSegment> trace{segment("low", 0, 3), segment("high", 3, 5),
                                            segment("low", 5, 8)};
  EXPECT_EQ(renderGantt(trace, Duration::milliseconds(1)),
            "low  |###..###\n"
            "high |...##...\n");
}

TEST(Gantt, IdleGapsShownAsDots) {
  const std::vector<ExecutionSegment> trace{segment("a", 0, 1), segment("a", 4, 5)};
  EXPECT_EQ(renderGantt(trace, Duration::milliseconds(1)), "a |#...#\n");
}

TEST(Gantt, HorizonExtendsChart) {
  const std::vector<ExecutionSegment> trace{segment("a", 0, 2)};
  EXPECT_EQ(renderGantt(trace, Duration::milliseconds(1), Duration::milliseconds(4)),
            "a |##..\n");
}

TEST(Gantt, SubResolutionSegmentStillVisible) {
  const std::vector<ExecutionSegment> trace{
      {"blip", SimTime::fromUs(2500), SimTime::fromUs(2600)}};
  const std::string chart = renderGantt(trace, Duration::milliseconds(1));
  EXPECT_EQ(chart, "blip |..#\n");
}

TEST(Gantt, EmptyTraceRendersEmpty) {
  EXPECT_EQ(renderGantt({}, Duration::milliseconds(1)), "");
}

TEST(Gantt, BadResolutionThrows) {
  EXPECT_THROW((void)renderGantt({segment("a", 0, 1)}, Duration{}), std::invalid_argument);
}

TEST(Gantt, LabelsKeepFirstExecutionOrder) {
  const std::vector<ExecutionSegment> trace{segment("zeta", 0, 1), segment("alpha", 1, 2)};
  const std::string chart = renderGantt(trace, Duration::milliseconds(1));
  EXPECT_LT(chart.find("zeta"), chart.find("alpha"));
}

TEST(Gantt, RendersRealSchedulerTrace) {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<ExecutionSegment> trace;
  cpu.setSegmentTap([&](const ExecutionSegment& segment) { trace.push_back(segment); });
  cpu.post(1, Duration::milliseconds(10), sim::Event{}, "low");
  simulator.scheduleAfter(Duration::milliseconds(3), [&] {
    cpu.post(5, Duration::milliseconds(2), sim::Event{}, "high");
  });
  simulator.runAll();
  const std::string chart = renderGantt(trace, Duration::milliseconds(1));
  EXPECT_EQ(chart,
            "low  |###..#######\n"
            "high |...##.......\n");
}

}  // namespace
}  // namespace nlft::rt
