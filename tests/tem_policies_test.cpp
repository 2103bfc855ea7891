// Node policies: fail-silent baseline and non-critical task shutdown.
#include "core/policies.hpp"

#include <gtest/gtest.h>

namespace nlft::tem {
namespace {

using rt::TaskConfig;
using rt::TaskId;
using util::Duration;
using util::SimTime;

struct PolicyFixture : ::testing::Test {
  sim::Simulator simulator;
  rt::Cpu cpu{simulator};
  rt::RtKernel kernel{simulator, cpu};
  int results = 0;
  bool nodeSilent = false;

  void SetUp() override {
    kernel.setResultSink([this](const rt::JobResult&) { ++results; });
    kernel.setFailSilentHook([this] { nodeSilent = true; });
  }

  TaskConfig config(const char* name, Duration wcet, Duration period) {
    TaskConfig cfg;
    cfg.name = name;
    cfg.priority = 1;
    cfg.period = period;
    cfg.wcet = wcet;
    return cfg;
  }
};

CopyPlan good(Duration time) {
  CopyPlan plan;
  plan.executionTime = time;
  plan.result = {1};
  return plan;
}

CopyPlan bad(Duration time) {
  CopyPlan plan;
  plan.executionTime = time;
  plan.end = CopyPlan::End::DetectedError;
  return plan;
}

TEST_F(PolicyFixture, FailSilentNodeRunsSingleCopies) {
  addFailSilentTask(
      kernel, config("t", Duration::milliseconds(2), Duration::milliseconds(10)),
      [](const CopyContext&, CopyPlan& plan) { plan = good(Duration::milliseconds(2)); });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(35'000));
  EXPECT_EQ(results, 4);
  // Single-copy execution: 4 jobs x 2 ms.
  EXPECT_EQ(cpu.busyTime().us(), 8'000);
  EXPECT_FALSE(nodeSilent);
}

TEST_F(PolicyFixture, FailSilentNodeStopsOnFirstDetectedError) {
  const TaskId task =
      addFailSilentTask(kernel, config("t", Duration::milliseconds(2), Duration::milliseconds(10)),
                        [](const CopyContext& context, CopyPlan& plan) {
                          // Third job hits a transient fault.
                          plan = context.jobIndex == 2 ? bad(Duration::milliseconds(1))
                                                       : good(Duration::milliseconds(2));
                        });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(60'000));
  EXPECT_EQ(results, 2);  // jobs 0 and 1 delivered; node silent from job 2 on
  EXPECT_TRUE(nodeSilent);
  EXPECT_TRUE(kernel.stopped());
  EXPECT_EQ(kernel.stats(task).releases, 3u);
}

TEST_F(PolicyFixture, NonCriticalTaskShutDownOnErrorOthersContinue) {
  addFailSilentTask(
      kernel, config("critical", Duration::milliseconds(1), Duration::milliseconds(10)),
      [](const CopyContext&, CopyPlan& plan) { plan = good(Duration::milliseconds(1)); });
  const TaskId diagnostic = addNonCriticalTask(
      kernel, config("diagnostic", Duration::milliseconds(1), Duration::milliseconds(10)),
      [](const CopyContext& context, CopyPlan& plan) {
        plan = context.jobIndex == 1 ? bad(Duration::milliseconds(1))
                                     : good(Duration::milliseconds(1));
      });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(45'000));
  // The diagnostic task delivered only its first job, then was shut down.
  EXPECT_EQ(kernel.stats(diagnostic).releases, 2u);
  EXPECT_EQ(kernel.stats(diagnostic).completions, 1u);
  // The node as a whole kept running: critical task unaffected.
  EXPECT_FALSE(nodeSilent);
  EXPECT_FALSE(kernel.stopped());
  EXPECT_EQ(results, 6);  // 5 critical + 1 diagnostic
}

TEST_F(PolicyFixture, NonCriticalCriticalityFlagSet) {
  const TaskId task = addNonCriticalTask(
      kernel, config("nc", Duration::milliseconds(1), Duration::milliseconds(10)),
      [](const CopyContext&, CopyPlan& plan) { plan = good(Duration::milliseconds(1)); });
  EXPECT_EQ(kernel.config(task).criticality, rt::Criticality::NonCritical);
}

TEST_F(PolicyFixture, RejectsNullBehaviors) {
  EXPECT_THROW(addFailSilentTask(
                   kernel, config("t", Duration::milliseconds(1), Duration::milliseconds(10)),
                   CopyBehavior{}),
               std::invalid_argument);
  EXPECT_THROW(addNonCriticalTask(
                   kernel, config("t", Duration::milliseconds(1), Duration::milliseconds(10)),
                   CopyBehavior{}),
               std::invalid_argument);
  EXPECT_THROW(PermanentFaultMonitor{0}, std::invalid_argument);
}

}  // namespace
}  // namespace nlft::tem
