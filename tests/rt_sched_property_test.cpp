// Property tests of the preemptive scheduler against response-time analysis:
// for random schedulable task sets, the observed worst-case response time in
// simulation never exceeds the RTA bound, the trace is physically consistent
// (no overlap, busy time = executed work), and every job meets its deadline.
#include <gtest/gtest.h>

#include "rtkernel/kernel.hpp"
#include "rtkernel/rta.hpp"
#include "util/rng.hpp"

namespace nlft::rt {
namespace {

using util::Duration;
using util::Rng;
using util::SimTime;

struct GeneratedSet {
  std::vector<RtaTask> analysis;
  std::vector<TaskConfig> configs;
};

/// Random synchronous periodic task set with rate-monotonic priorities and
/// total utilisation below `maxUtilisation`.
GeneratedSet randomTaskSet(Rng& rng, double maxUtilisation) {
  const std::size_t count = 2 + rng.uniformInt(3);
  static const std::int64_t periodChoices[] = {5000, 10000, 20000, 40000, 80000};
  GeneratedSet set;
  double utilisation = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t periodUs = periodChoices[rng.uniformInt(5)];
    const double share = rng.uniform(0.05, maxUtilisation / static_cast<double>(count));
    if (utilisation + share > maxUtilisation) break;
    utilisation += share;
    const auto wcetUs = std::max<std::int64_t>(
        100, static_cast<std::int64_t>(share * static_cast<double>(periodUs)));

    RtaTask analysis;
    analysis.wcet = Duration::microseconds(wcetUs);
    analysis.period = Duration::microseconds(periodUs);
    analysis.deadline = Duration::microseconds(periodUs);
    set.analysis.push_back(analysis);

    TaskConfig config;
    config.name = "task" + std::to_string(i);
    config.period = Duration::microseconds(periodUs);
    config.wcet = Duration::microseconds(wcetUs);
    config.budget = Duration::microseconds(wcetUs);
    set.configs.push_back(config);
  }
  // Rate-monotonic priorities: shorter period = higher priority.
  for (std::size_t i = 0; i < set.configs.size(); ++i) {
    int priority = 0;
    for (std::size_t j = 0; j < set.configs.size(); ++j) {
      if (set.configs[j].period > set.configs[i].period) ++priority;
      if (set.configs[j].period == set.configs[i].period && j < i) ++priority;
    }
    set.configs[i].priority = priority;
    set.analysis[i].priority = priority;
  }
  return set;
}

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, SimulatedResponsesRespectRtaBound) {
  Rng rng{GetParam()};
  const GeneratedSet set = randomTaskSet(rng, 0.75);
  const RtaResult rta = analyze(set.analysis);
  if (!rta.schedulable) GTEST_SKIP() << "generated set unschedulable";

  sim::Simulator simulator;
  Cpu cpu{simulator};
  RtKernel kernel{simulator, cpu};

  std::vector<Duration> worstResponse(set.configs.size());
  std::vector<TaskId> ids;
  for (std::size_t i = 0; i < set.configs.size(); ++i) {
    const Duration wcet = set.configs[i].wcet;
    ids.push_back(kernel.addTask(
        set.configs[i], [wcet](Job& job) { job.runCopy(wcet); },
        [&, i](Job& job, CopyStop stop) {
          ASSERT_EQ(stop, CopyStop::Completed);
          const Duration response = kernel.simulator().now() - job.releaseTime();
          worstResponse[i] = std::max(worstResponse[i], response);
          job.complete({});
        }));
  }
  kernel.start();
  simulator.runUntil(SimTime::fromUs(400'000));  // several hyperperiods

  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GT(kernel.stats(ids[i]).releases, 0u);
    EXPECT_EQ(kernel.stats(ids[i]).deadlineMisses, 0u) << set.configs[i].name;
    EXPECT_LE(worstResponse[i].us(), rta.responseTimes[i].us()) << set.configs[i].name;
  }
  // The synchronous release at t=0 is the critical instant: the first job of
  // the LOWEST priority task achieves exactly its RTA bound.
  std::size_t lowest = 0;
  for (std::size_t i = 1; i < set.configs.size(); ++i) {
    if (set.configs[i].priority < set.configs[lowest].priority) lowest = i;
  }
  EXPECT_EQ(worstResponse[lowest].us(), rta.responseTimes[lowest].us());
}

TEST_P(SchedulerProperty, TraceIsPhysicallyConsistent) {
  Rng rng{GetParam() ^ 0xD15C};
  const GeneratedSet set = randomTaskSet(rng, 0.7);
  sim::Simulator simulator;
  Cpu cpu{simulator};
  std::vector<ExecutionSegment> trace;
  cpu.setSegmentTap([&](const ExecutionSegment& segment) { trace.push_back(segment); });
  RtKernel kernel{simulator, cpu};
  for (const TaskConfig& config : set.configs) {
    const Duration wcet = config.wcet;
    kernel.addTask(
        config, [wcet](Job& job) { job.runCopy(wcet); },
        [](Job& job, CopyStop) { job.complete({}); });
  }
  kernel.start();
  simulator.runUntil(SimTime::fromUs(200'000));

  // Segments are ordered, non-overlapping, and sum to the busy time.
  Duration summed{};
  SimTime previousEnd;
  for (const ExecutionSegment& segment : trace) {
    EXPECT_GE(segment.start, previousEnd);
    EXPECT_GT(segment.end, segment.start);
    summed += segment.end - segment.start;
    previousEnd = segment.end;
  }
  EXPECT_EQ(summed.us(), cpu.busyTime().us());

  // Executed work equals completions x wcet per task (all jobs complete).
  Duration expected{};
  for (std::size_t i = 0; i < set.configs.size(); ++i) {
    const TaskStats& stats = kernel.stats(TaskId{static_cast<std::uint32_t>(i)});
    expected += set.configs[i].wcet * static_cast<std::int64_t>(stats.completions);
  }
  // Jobs still in flight at the horizon may have partial work in the trace.
  EXPECT_GE(cpu.busyTime().us(), expected.us());
  EXPECT_LE(cpu.busyTime().us(), expected.us() + 2 * 80'000);
}

TEST_P(SchedulerProperty, OverloadedSetMissesDeadlinesButKeepsHighestPriorityClean) {
  Rng rng{GetParam() ^ 0xBAD};
  // Force overload: two tasks with combined utilisation ~1.3.
  sim::Simulator simulator;
  Cpu cpu{simulator};
  RtKernel kernel{simulator, cpu};

  TaskConfig high;
  high.name = "high";
  high.priority = 2;
  high.period = Duration::milliseconds(10);
  high.wcet = Duration::milliseconds(6);
  high.budget = high.wcet;
  TaskConfig low;
  low.name = "low";
  low.priority = 1;
  low.period = Duration::milliseconds(10);
  low.wcet = Duration::milliseconds(7);
  low.budget = low.wcet;

  auto addTask = [&kernel](const TaskConfig& config) {
    return kernel.addTask(
        config, [wcet = config.wcet](Job& job) { job.runCopy(wcet); },
        [](Job& job, CopyStop stop) {
          if (stop == CopyStop::Completed) job.complete({});
        });
  };
  const TaskId highId = addTask(high);
  const TaskId lowId = addTask(low);
  kernel.start();
  simulator.runUntil(SimTime::fromUs(100'000));

  EXPECT_EQ(kernel.stats(highId).deadlineMisses, 0u);
  EXPECT_GT(kernel.stats(lowId).deadlineMisses, 0u);
  EXPECT_GT(kernel.stats(lowId).omissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Range<std::uint64_t>(1, 15));

}  // namespace
}  // namespace nlft::rt
