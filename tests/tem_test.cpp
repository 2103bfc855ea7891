// Scenario tests for temporal error masking, mirroring Fig. 3 of the paper.
#include "core/tem.hpp"

#include <gtest/gtest.h>

#include "core/policies.hpp"

namespace nlft::tem {
namespace {

using rt::CopyStop;
using rt::TaskConfig;
using rt::TaskId;
using util::Duration;
using util::SimTime;

constexpr std::uint32_t kGood = 42;

CopyPlan goodCopy(Duration time, std::uint32_t value = kGood) {
  CopyPlan plan;
  plan.executionTime = time;
  plan.result = {value};
  return plan;
}

CopyPlan corruptedCopy(Duration time, std::uint32_t value) { return goodCopy(time, value); }

CopyPlan edmErrorCopy(Duration timeUntilError) {
  CopyPlan plan;
  plan.executionTime = timeUntilError;
  plan.end = CopyPlan::End::DetectedError;
  return plan;
}

/// Behavior that replays a scripted list of per-copy plans (repeating the
/// last entry if more copies start than scripted).
CopyBehavior scripted(std::vector<CopyPlan> plans) {
  return [plans = std::move(plans)](const CopyContext& context, CopyPlan& plan) {
    const std::size_t i = std::min<std::size_t>(context.copyIndex - 1, plans.size() - 1);
    plan = plans[i];
  };
}

struct TemFixture : ::testing::Test {
  sim::Simulator simulator;
  rt::Cpu cpu{simulator};
  rt::RtKernel kernel{simulator, cpu};

  struct Delivery {
    std::uint64_t job;
    std::vector<std::uint32_t> data;
    std::int64_t atUs;
  };
  std::vector<Delivery> deliveries;

  TaskConfig config(Duration wcet, Duration period, Duration deadline = Duration{}) {
    TaskConfig cfg;
    cfg.name = "critical";
    cfg.priority = 5;
    cfg.period = period;
    cfg.relativeDeadline = deadline;
    cfg.wcet = wcet;
    return cfg;
  }

  void captureResults() {
    kernel.setResultSink([this](const rt::JobResult& result) {
      deliveries.push_back({result.jobIndex,
                            {result.data.begin(), result.data.end()},
                            result.deliveredAt.us()});
    });
  }
};

TEST_F(TemFixture, ScenarioI_FaultFreeTwoCopies) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(2);
  const TaskId task = tem.addCriticalTask(config(wcet, Duration::milliseconds(20)),
                                          scripted({goodCopy(wcet)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(19'000));

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].data, (std::vector<std::uint32_t>{kGood}));
  EXPECT_EQ(deliveries[0].atUs, 4000);  // exactly two copies, no third
  EXPECT_EQ(tem.stats(task).deliveredCleanly, 1u);
  EXPECT_EQ(tem.stats(task).comparisonMismatches, 0u);
  EXPECT_EQ(cpu.busyTime().us(), 4000);  // the slack was NOT consumed
}

TEST_F(TemFixture, ScenarioII_ComparisonMismatchTriggersVote) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(2);
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(20)),
      scripted({goodCopy(wcet), corruptedCopy(wcet, 13), goodCopy(wcet)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(19'000));

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].data, (std::vector<std::uint32_t>{kGood}));  // vote masked 13
  EXPECT_EQ(deliveries[0].atUs, 6000);  // three copies
  EXPECT_EQ(tem.stats(task).maskedByVote, 1u);
  EXPECT_EQ(tem.stats(task).comparisonMismatches, 1u);
  EXPECT_EQ(tem.stats(task).deliveredCleanly, 0u);
  EXPECT_EQ(kernel.stats(task).completions, 1u);
}

TEST_F(TemFixture, ScenarioIII_EdmErrorInSecondCopyReclaimsTime) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(10);
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(50)),
      scripted({goodCopy(wcet), edmErrorCopy(Duration::milliseconds(4)), goodCopy(wcet)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(49'000));

  ASSERT_EQ(deliveries.size(), 1u);
  // 10 (copy1) + 4 (copy2 until EDM) + 10 (replacement copy) = 24 ms: the
  // remaining 6 ms of the terminated copy were reclaimed.
  EXPECT_EQ(deliveries[0].atUs, 24'000);
  EXPECT_EQ(tem.stats(task).maskedByReplacement, 1u);
  EXPECT_EQ(tem.stats(task).edmDetectedErrors, 1u);
  EXPECT_EQ(tem.stats(task).comparisonMismatches, 0u);
}

TEST_F(TemFixture, ScenarioIV_EdmErrorInFirstCopy) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(10);
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(50)),
      scripted({edmErrorCopy(Duration::milliseconds(3)), goodCopy(wcet), goodCopy(wcet)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(49'000));

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].atUs, 23'000);  // 3 + 10 + 10
  EXPECT_EQ(tem.stats(task).maskedByReplacement, 1u);
}

TEST_F(TemFixture, ThreeDistinctResultsCauseOmission) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(2);
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(20)),
      scripted({goodCopy(wcet, 1), goodCopy(wcet, 2), goodCopy(wcet, 3)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(19'000));

  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(tem.stats(task).omissionsVoteFailed, 1u);
  EXPECT_EQ(kernel.stats(task).omissions, 1u);
  EXPECT_EQ(kernel.stats(task).completions, 0u);
}

TEST_F(TemFixture, NoTimeForThirdCopyForcesOmission) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(4);
  // Deadline 10 ms: two copies fit (8 ms), a third cannot (12 > 10).
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(40), Duration::milliseconds(10)),
      scripted({goodCopy(wcet, 1), goodCopy(wcet, 2), goodCopy(wcet, 1)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(39'000));

  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(tem.stats(task).omissionsNoTime, 1u);
  EXPECT_EQ(kernel.stats(task).omissions, 1u);
}

TEST_F(TemFixture, DeadlineMonitorAbortCountsAsOmission) {
  TemExecutor tem{kernel};
  // Declared wcet 2 ms, but the copy actually consumes 20 ms (and the budget
  // timer is configured loosely): the deadline monitor at 12 ms must fire.
  TaskConfig cfg = config(Duration::milliseconds(2), Duration::milliseconds(40),
                          Duration::milliseconds(12));
  cfg.budget = Duration::milliseconds(30);
  const TaskId task = tem.addCriticalTask(cfg, scripted({goodCopy(Duration::milliseconds(20))}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(39'000));

  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(tem.stats(task).omissionsAborted, 1u);
  EXPECT_EQ(kernel.stats(task).deadlineMisses, 1u);
}

// Each task's job state is reused from job to job. A job that follows an
// aborted one must start clean: a result left over from the aborted job
// would be compared with the new job's first copy and show as a mismatch.
TEST_F(TemFixture, JobAfterAbortedJobStartsClean) {
  constexpr std::uint32_t kA = 0xA;
  constexpr std::uint32_t kB = 0xB;
  const Duration wcet = Duration::milliseconds(2);
  // Job 0: the first copy delivers A, the second runs away (20 ms) with a
  // loose budget. Every later job: copies deliver B.
  const auto behavior = [](const CopyContext& context, CopyPlan& plan) {
    if (context.jobIndex > 0) {
      plan = goodCopy(Duration::milliseconds(1), kB);
    } else {
      plan = context.copyIndex == 1 ? goodCopy(Duration::milliseconds(1), kA)
                                    : goodCopy(Duration::milliseconds(20), kA);
    }
  };
  struct Case {
    const char* name;
    Duration deadline;  ///< Duration{} = the period
    std::int64_t untilUs;
    std::int64_t deliveredAtUs;
  };
  // Case 1: the deadline monitor aborts job 0's second copy at 12 ms; job 1
  // is released at 40 ms. Case 2: deadline = period = 20 ms, so job 0 is
  // still running when job 1 is released, and RtKernel::release omits it.
  for (const Case& c : {Case{"deadline monitor", Duration::milliseconds(12), 59'000, 42'000},
                        Case{"next release", Duration{}, 39'000, 22'000}}) {
    SCOPED_TRACE(c.name);
    sim::Simulator sim;
    rt::Cpu cpuModel{sim};
    rt::RtKernel rtKernel{sim, cpuModel};
    TemExecutor tem{rtKernel};
    const Duration period = c.deadline == Duration{} ? Duration::milliseconds(20)
                                                     : Duration::milliseconds(40);
    TaskConfig cfg = config(wcet, period, c.deadline);
    cfg.budget = Duration::milliseconds(30);
    const TaskId task = tem.addCriticalTask(cfg, behavior);
    // The sink's view of the words lasts only for the call, so copy them.
    std::vector<Delivery> results;
    rtKernel.setResultSink([&](const rt::JobResult& result) {
      results.push_back({result.jobIndex,
                         {result.data.begin(), result.data.end()},
                         result.deliveredAt.us()});
    });
    rtKernel.start();
    sim.runUntil(SimTime::fromUs(c.untilUs));

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].job, 1u);
    EXPECT_EQ(results[0].data, (std::vector<std::uint32_t>{kB}));
    EXPECT_EQ(results[0].atUs, c.deliveredAtUs);  // exactly two 1 ms copies
    const TemStats& stats = tem.stats(task);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.omissionsAborted, 1u);
    EXPECT_EQ(stats.deliveredCleanly, 1u);
    EXPECT_EQ(stats.comparisonMismatches, 0u);
    EXPECT_EQ(stats.maskedByVote + stats.maskedByReplacement, 0u);
    EXPECT_EQ(stats.firstCopies, 2u);
    EXPECT_EQ(stats.secondCopies, 2u);
    EXPECT_EQ(stats.thirdCopies, 0u);
    EXPECT_EQ(rtKernel.stats(task).deadlineMisses, 1u);
  }
}

TEST_F(TemFixture, BudgetOverrunIsTreatedAsDetectedError) {
  TemExecutor tem{kernel};
  TaskConfig cfg = config(Duration::milliseconds(3), Duration::milliseconds(40));
  cfg.budget = Duration::milliseconds(4);
  // First copy runs away (control-flow error): asks 30 ms, killed at 4 ms.
  const TaskId task = tem.addCriticalTask(
      cfg, scripted({goodCopy(Duration::milliseconds(30)), goodCopy(Duration::milliseconds(3)),
                     goodCopy(Duration::milliseconds(3))}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(39'000));

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].atUs, 10'000);  // 4 (killed) + 3 + 3
  EXPECT_EQ(tem.stats(task).edmDetectedErrors, 1u);
  EXPECT_EQ(kernel.stats(task).budgetOverruns, 1u);
  EXPECT_EQ(tem.stats(task).maskedByReplacement, 1u);
}

TEST_F(TemFixture, DefaultMaxCopiesStopsAfterThree) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(2);
  // Every copy hits an EDM error: after 3 copies the job must give up.
  const TaskId task = tem.addCriticalTask(config(wcet, Duration::milliseconds(40)),
                                          scripted({edmErrorCopy(Duration::milliseconds(1))}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(39'000));

  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(tem.stats(task).edmDetectedErrors, 3u);
  EXPECT_EQ(tem.stats(task).omissionsNoTime, 1u);
}

TEST_F(TemFixture, JobErrorCallbackFeedsPermanentFaultMonitor) {
  TemExecutor tem{kernel};
  PermanentFaultMonitor monitor{3};
  bool shutdown = false;
  monitor.setShutdownHook([&] { shutdown = true; });
  tem.setJobErrorCallback([&](TaskId task, bool hadError) { monitor.onJob(task, hadError); });

  const Duration wcet = Duration::milliseconds(1);
  // A stuck-at fault corrupts the second copy of EVERY job.
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(10)),
      scripted({goodCopy(wcet), corruptedCopy(wcet, 13), goodCopy(wcet)}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(35'000));

  EXPECT_TRUE(shutdown);
  EXPECT_TRUE(monitor.permanentSuspected());
  EXPECT_GE(tem.stats(task).maskedByVote, 3u);
}

TEST_F(TemFixture, ErrorFreeJobsResetTheSuspicionStreak) {
  PermanentFaultMonitor monitor{3};
  bool shutdown = false;
  monitor.setShutdownHook([&] { shutdown = true; });
  const TaskId task{7};
  monitor.onJob(task, true);
  monitor.onJob(task, true);
  monitor.onJob(task, false);  // transient: streak resets
  monitor.onJob(task, true);
  monitor.onJob(task, true);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(monitor.streak(task), 2);
  monitor.onJob(task, true);
  EXPECT_TRUE(shutdown);
}

TEST_F(TemFixture, PeriodicStreamMixesScenarios) {
  TemExecutor tem{kernel};
  const Duration wcet = Duration::milliseconds(1);
  int jobCount = 0;
  // Job 0: clean; job 1: mismatch+vote; job 2: EDM error; job 3: clean.
  const TaskId task = tem.addCriticalTask(
      config(wcet, Duration::milliseconds(10)),
      [&jobCount, wcet](const CopyContext& context, CopyPlan& plan) {
        jobCount = static_cast<int>(context.jobIndex);
        plan = goodCopy(wcet);
        switch (context.jobIndex % 4) {
          case 1:
            if (context.copyIndex == 2) plan = corruptedCopy(wcet, 99);
            break;
          case 2:
            if (context.copyIndex == 1) plan = edmErrorCopy(Duration::microseconds(300));
            break;
          default:
            break;
        }
      });
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(79'000));

  EXPECT_EQ(kernel.stats(task).releases, 8u);
  EXPECT_EQ(kernel.stats(task).completions, 8u);  // every job masked its fault
  EXPECT_EQ(tem.stats(task).deliveredCleanly, 4u);
  EXPECT_EQ(tem.stats(task).maskedByVote, 2u);
  EXPECT_EQ(tem.stats(task).maskedByReplacement, 2u);
  EXPECT_EQ(kernel.stats(task).omissions, 0u);
}

TEST_F(TemFixture, TwoCriticalTasksPreemptionBetweenCopies) {
  // A high-priority critical task preempts the low one's copies; both are
  // TEM-protected, both deliver, and the preemption shows in the timing.
  TemExecutor tem{kernel};
  TaskConfig high = config(Duration::milliseconds(1), Duration::milliseconds(10));
  high.name = "high";
  high.priority = 9;
  TaskConfig low = config(Duration::milliseconds(3), Duration::milliseconds(30));
  low.name = "low";
  low.priority = 2;
  const TaskId highTask = tem.addCriticalTask(high, scripted({goodCopy(Duration::milliseconds(1))}));
  const TaskId lowTask = tem.addCriticalTask(low, scripted({goodCopy(Duration::milliseconds(3))}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(29'000));

  // High: jobs at 0, 10, 20 -> 3 completions. Low: job at 0 -> 1 completion.
  EXPECT_EQ(kernel.stats(highTask).completions, 3u);
  EXPECT_EQ(kernel.stats(lowTask).completions, 1u);
  EXPECT_EQ(kernel.stats(lowTask).deadlineMisses, 0u);
  // Low task demand = 6 ms; it is preempted by high's 2 ms at t=0 and the
  // release at t=10 lands inside its second copy? No: low runs [2,5) and
  // [5,8): done at 8 ms, before high's next release.
  ASSERT_GE(deliveries.size(), 2u);
  bool sawLowAt8 = false;
  for (const auto& delivery : deliveries) {
    if (delivery.atUs == 8000) sawLowAt8 = true;
  }
  EXPECT_TRUE(sawLowAt8);
  EXPECT_GE(cpu.preemptions(), 0u);  // no preemption needed in this layout
}

TEST_F(TemFixture, HighPriorityReleaseMidCopyPreemptsAndBothSurvive) {
  TemExecutor tem{kernel};
  TaskConfig high = config(Duration::milliseconds(2), Duration::milliseconds(10));
  high.name = "high";
  high.priority = 9;
  high.offset = Duration::milliseconds(1);  // lands inside low's first copy
  TaskConfig low = config(Duration::milliseconds(4), Duration::milliseconds(40));
  low.name = "low";
  low.priority = 2;
  const TaskId highTask = tem.addCriticalTask(high, scripted({goodCopy(Duration::milliseconds(2))}));
  const TaskId lowTask = tem.addCriticalTask(low, scripted({goodCopy(Duration::milliseconds(4))}));
  captureResults();
  kernel.start();
  simulator.runUntil(SimTime::fromUs(39'000));

  EXPECT_GT(cpu.preemptions(), 0u);
  EXPECT_GT(kernel.stats(highTask).completions, 0u);
  EXPECT_EQ(kernel.stats(lowTask).completions, 1u);
  EXPECT_EQ(kernel.stats(lowTask).deadlineMisses, 0u);
  // Low's two 4 ms copies are delayed by high's TEM jobs (2 copies x 2 ms
  // per release): exact completion from the Gantt: low runs [0,1), then
  // high [1,5), low [5,9.?]... just require it delivered before 20 ms.
  bool lowDelivered = false;
  for (const auto& delivery : deliveries) {
    if (delivery.atUs <= 20'000 && delivery.data == std::vector<std::uint32_t>{kGood}) {
      lowDelivered = true;
    }
  }
  EXPECT_TRUE(lowDelivered);
}

TEST_F(TemFixture, SporadicCriticalTaskUnderTem) {
  TemExecutor tem{kernel};
  TaskConfig sporadic;
  sporadic.name = "sporadic";
  sporadic.priority = 5;
  sporadic.period = Duration{};  // sporadic
  sporadic.relativeDeadline = Duration::milliseconds(10);
  sporadic.wcet = Duration::milliseconds(1);
  const TaskId task = tem.addCriticalTask(
      sporadic, scripted({goodCopy(Duration::milliseconds(1)),
                          corruptedCopy(Duration::milliseconds(1), 9),
                          goodCopy(Duration::milliseconds(1))}));
  captureResults();
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(3), [&] { kernel.releaseSporadic(task); });
  simulator.runUntil(SimTime::fromUs(20'000));
  EXPECT_EQ(kernel.stats(task).completions, 1u);
  EXPECT_EQ(tem.stats(task).maskedByVote, 1u);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].atUs, 6000);  // released at 3 ms + three copies
}

TEST_F(TemFixture, RejectsBadConfig) {
  TemExecutor tem{kernel};
  EXPECT_THROW(tem.addCriticalTask(config(Duration::milliseconds(1), Duration::milliseconds(10)),
                                   CopyBehavior{}),
               std::invalid_argument);
  EXPECT_THROW((void)tem.stats(TaskId{42}), std::invalid_argument);
}

}  // namespace
}  // namespace nlft::tem
