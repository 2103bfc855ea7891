#include "rtkernel/kernel.hpp"

#include <gtest/gtest.h>

#include "core/tem.hpp"

namespace nlft::rt {
namespace {

using util::Duration;
using util::SimTime;

struct KernelFixture : ::testing::Test {
  sim::Simulator simulator;
  Cpu cpu{simulator};
  RtKernel kernel{simulator, cpu};

  TaskConfig periodicTask(const char* name, int priority, Duration period, Duration wcet) {
    TaskConfig cfg;
    cfg.name = name;
    cfg.priority = priority;
    cfg.period = period;
    cfg.wcet = wcet;
    return cfg;
  }
};

// Simple handler: run a single copy and deliver a constant result.
RtKernel::JobHandler simpleHandler(Duration work, std::uint32_t value) {
  return [work, value](Job& job) {
    job.runCopy(work, [&job, value](CopyStop stop) {
      if (stop == CopyStop::Completed) {
        job.complete(std::array{value});
      } else {
        job.omit();
      }
    });
  };
}

TEST_F(KernelFixture, PeriodicReleasesAndResults) {
  std::vector<SimTime> deliveries;
  const TaskId task = kernel.addTask(
      periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(2)),
      simpleHandler(Duration::milliseconds(2), 7));
  kernel.setResultSink([&](const JobResult& result) {
    EXPECT_EQ(result.task, task);
    EXPECT_EQ(std::vector<std::uint32_t>(result.data.begin(), result.data.end()),
              (std::vector<std::uint32_t>{7}));
    deliveries.push_back(result.deliveredAt);
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(35'000));
  ASSERT_EQ(deliveries.size(), 4u);  // releases at 0, 10, 20, 30
  EXPECT_EQ(deliveries[0].us(), 2000);
  EXPECT_EQ(deliveries[1].us(), 12000);
  EXPECT_EQ(kernel.stats(task).releases, 4u);
  EXPECT_EQ(kernel.stats(task).completions, 4u);
  EXPECT_EQ(kernel.stats(task).deadlineMisses, 0u);
}

TEST_F(KernelFixture, OffsetDelaysFirstRelease) {
  TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(1));
  cfg.offset = Duration::milliseconds(4);
  std::vector<std::int64_t> releases;
  kernel.addTask(cfg, [&](Job& job) {
    releases.push_back(job.releaseTime().us());
    job.complete({});
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(25'000));
  EXPECT_EQ(releases, (std::vector<std::int64_t>{4000, 14000, 24000}));
}

TEST_F(KernelFixture, DeadlineMonitorAbortsLateJob) {
  TaskConfig cfg = periodicTask("slow", 1, Duration::milliseconds(10), Duration::milliseconds(2));
  cfg.relativeDeadline = Duration::milliseconds(5);
  cfg.budget = Duration::milliseconds(20);  // budget does not interfere here
  bool aborted = false;
  CopyStop observed = CopyStop::Completed;
  const TaskId task = kernel.addTask(cfg, [&](Job& job) {
    job.setAbortHandler([&] { aborted = true; });
    // Ask for more work than fits before the deadline.
    job.runCopy(Duration::milliseconds(8), [&](CopyStop stop) { observed = stop; });
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(9'000));
  EXPECT_TRUE(aborted);
  EXPECT_EQ(observed, CopyStop::Aborted);
  EXPECT_EQ(kernel.stats(task).deadlineMisses, 1u);
  EXPECT_EQ(kernel.stats(task).omissions, 1u);
  EXPECT_EQ(kernel.stats(task).completions, 0u);
}

TEST_F(KernelFixture, BudgetTimerKillsRunawayCopy) {
  TaskConfig cfg = periodicTask("runaway", 1, Duration::milliseconds(20), Duration::milliseconds(2));
  cfg.budget = Duration::milliseconds(3);
  CopyStop observed = CopyStop::Completed;
  const TaskId task = kernel.addTask(cfg, [&](Job& job) {
    // A control-flow error made the task loop: it asks for 15 ms of CPU.
    job.runCopy(Duration::milliseconds(15), [&](CopyStop stop) {
      observed = stop;
      job.omit();
    });
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(10'000));
  EXPECT_EQ(observed, CopyStop::BudgetOverrun);
  EXPECT_EQ(kernel.stats(task).budgetOverruns, 1u);
  // The overrun was caught at 3 ms, not 15: CPU is free again.
  EXPECT_EQ(cpu.busyTime().us(), 3000);
}

TEST_F(KernelFixture, SporadicTaskReleasesOnDemand) {
  TaskConfig cfg;
  cfg.name = "sporadic";
  cfg.priority = 2;
  cfg.period = Duration{};  // sporadic
  cfg.relativeDeadline = Duration::milliseconds(5);
  cfg.wcet = Duration::milliseconds(1);
  int completions = 0;
  const TaskId task = kernel.addTask(cfg, simpleHandler(Duration::milliseconds(1), 1));
  kernel.setResultSink([&](const JobResult&) { ++completions; });
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(3), [&] { kernel.releaseSporadic(task); });
  simulator.scheduleAfter(Duration::milliseconds(9), [&] { kernel.releaseSporadic(task); });
  simulator.runUntil(SimTime::fromUs(20'000));
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(kernel.stats(task).releases, 2u);
}

TEST_F(KernelFixture, PriorityOrderAcrossTasks) {
  // Low-priority long task released at 0; high-priority task at same time.
  std::vector<std::string> order;
  TaskConfig low = periodicTask("low", 1, Duration::milliseconds(100), Duration::milliseconds(6));
  TaskConfig high = periodicTask("high", 9, Duration::milliseconds(100), Duration::milliseconds(2));
  kernel.addTask(low, [&](Job& job) {
    job.runCopy(Duration::milliseconds(6), [&](CopyStop) {
      order.push_back("low");
      job.complete({});
    });
  });
  kernel.addTask(high, [&](Job& job) {
    job.runCopy(Duration::milliseconds(2), [&](CopyStop) {
      order.push_back("high");
      job.complete({});
    });
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(50'000));
  EXPECT_EQ(order, (std::vector<std::string>{"high", "low"}));
}

TEST_F(KernelFixture, ErrorRoutedToActiveJob) {
  TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(4));
  std::optional<ErrorEvent::Source> seen;
  const TaskId task = kernel.addTask(cfg, [&](Job& job) {
    job.setErrorHandler([&](const ErrorEvent& event) { seen = event.source; });
    job.runCopy(Duration::milliseconds(4), [&](CopyStop) { job.complete({}); });
  });
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(1), [&] {
    kernel.reportTaskError(task, {ErrorEvent::Source::HardwareException, 3});
  });
  simulator.runUntil(SimTime::fromUs(8'000));
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, ErrorEvent::Source::HardwareException);
  EXPECT_EQ(kernel.stats(task).errorsDetected, 1u);
}

TEST_F(KernelFixture, KernelErrorSilencesNode) {
  bool silent = false;
  kernel.setFailSilentHook([&] { silent = true; });
  const TaskId task = kernel.addTask(
      periodicTask("t", 1, Duration::milliseconds(5), Duration::milliseconds(1)),
      simpleHandler(Duration::milliseconds(1), 1));
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(7), [&] {
    kernel.reportKernelError({ErrorEvent::Source::HardwareException, 1});
  });
  simulator.runUntil(SimTime::fromUs(50'000));
  EXPECT_TRUE(silent);
  EXPECT_TRUE(kernel.stopped());
  EXPECT_EQ(kernel.kernelErrors(), 1u);
  // Releases at 0 and 5 completed; nothing after the error at 7.
  EXPECT_EQ(kernel.stats(task).releases, 2u);
}

TEST_F(KernelFixture, DisableTaskStopsFurtherReleases) {
  const TaskId task = kernel.addTask(
      periodicTask("noncritical", 1, Duration::milliseconds(5), Duration::milliseconds(1)),
      simpleHandler(Duration::milliseconds(1), 1));
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(12), [&] { kernel.disableTask(task); });
  simulator.runUntil(SimTime::fromUs(40'000));
  EXPECT_EQ(kernel.stats(task).releases, 3u);  // 0, 5, 10
}

TEST_F(KernelFixture, OverrunningJobIsAbortedAtNextRelease) {
  // Deadline equals period; job never finishes within it.
  TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(1));
  cfg.budget = Duration::milliseconds(50);
  int aborts = 0;
  const TaskId task = kernel.addTask(cfg, [&](Job& job) {
    job.setAbortHandler([&] { ++aborts; });
    job.runCopy(Duration::milliseconds(30), [&](CopyStop) {});
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(25'000));
  EXPECT_GE(aborts, 2);
  EXPECT_GE(kernel.stats(task).deadlineMisses, 2u);
  EXPECT_EQ(kernel.stats(task).completions, 0u);
}

TEST_F(KernelFixture, KillRunningCopyReclaimsTime) {
  TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(20), Duration::milliseconds(10));
  std::int64_t completedAt = 0;
  kernel.addTask(cfg, [&](Job& job) {
    job.runCopy(Duration::milliseconds(10), [&](CopyStop stop) {
      if (stop == CopyStop::Killed) {
        // Restart: the new copy only needs the CPU time from now on.
        job.runCopy(Duration::milliseconds(4), [&](CopyStop) {
          completedAt = simulator.now().us();
          job.complete({});
        });
      }
    });
  });
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(3), [&] {
    kernel.activeJob(TaskId{0})->killRunningCopy();
  });
  simulator.runUntil(SimTime::fromUs(15'000));
  EXPECT_EQ(completedAt, 7000);  // killed at 3 ms + 4 ms new copy
}

TEST_F(KernelFixture, TimeToDeadlineShrinks) {
  TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(1));
  cfg.relativeDeadline = Duration::milliseconds(8);
  Duration atRelease{};
  kernel.addTask(cfg, [&](Job& job) {
    atRelease = job.timeToDeadline();
    job.runCopy(Duration::milliseconds(1), [&](CopyStop) { job.complete({}); });
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(2'000));
  EXPECT_EQ(atRelease.us(), 8000);
}

// Vote tie: all three TEM copies return pairwise-different results, so the
// vote cannot mask the error. The executor must enforce a FAIL-OMISSION
// before the deadline — no result delivered, job omitted in time, and the
// tie accounted as a failed vote (not a deadline miss).
TEST_F(KernelFixture, TemVoteTieForcesOmissionBeforeDeadline) {
  tem::TemExecutor temExecutor{kernel};
  TaskConfig cfg = periodicTask("tie", 1, Duration::milliseconds(10),
                                Duration::microseconds(500));
  cfg.relativeDeadline = Duration::milliseconds(8);
  const TaskId task = temExecutor.addCriticalTask(
      cfg, [](const tem::CopyContext& context, tem::CopyPlan& plan) {
        plan.executionTime = Duration::microseconds(500);
        // Every copy disagrees with every other: 101, 102, 103.
        plan.result = {static_cast<std::uint32_t>(100 + context.copyIndex)};
      });

  int deliveries = 0;
  kernel.setResultSink([&](const JobResult&) { ++deliveries; });
  std::int64_t omittedAtUs = -1;
  kernel.setEventTap([&](const KernelEvent& event) {
    if (event.kind == KernelEvent::Kind::JobOmitted && event.task == task) {
      omittedAtUs = simulator.now().us();
    }
  });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(9'000));  // exactly one release at t=0

  EXPECT_EQ(deliveries, 0);  // the wrong result must never leave the node
  ASSERT_GE(omittedAtUs, 0) << "job was not omitted";
  EXPECT_LE(omittedAtUs, 8'000);  // omission enforced before the deadline
  EXPECT_EQ(kernel.stats(task).omissions, 1u);
  EXPECT_EQ(kernel.stats(task).completions, 0u);
  EXPECT_EQ(kernel.stats(task).deadlineMisses, 0u);

  const tem::TemStats& stats = temExecutor.stats(task);
  EXPECT_EQ(stats.jobs, 1u);
  EXPECT_EQ(stats.firstCopies, 1u);
  EXPECT_EQ(stats.secondCopies, 1u);
  EXPECT_EQ(stats.thirdCopies, 1u);  // the tie needed all three executions
  EXPECT_EQ(stats.comparisonMismatches, 1u);
  EXPECT_EQ(stats.omissionsVoteFailed, 1u);
  EXPECT_EQ(stats.maskedByVote, 0u);
  EXPECT_EQ(stats.deliveredCleanly, 0u);
}

TEST_F(KernelFixture, StopCancelsEverything) {
  const TaskId task = kernel.addTask(
      periodicTask("t", 1, Duration::milliseconds(5), Duration::milliseconds(1)),
      simpleHandler(Duration::milliseconds(1), 1));
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(11), [&] { kernel.stop(); });
  simulator.runUntil(SimTime::fromUs(60'000));
  EXPECT_EQ(kernel.stats(task).releases, 3u);
  EXPECT_TRUE(kernel.stopped());
  // releaseSporadic after stop is ignored.
  kernel.releaseSporadic(task);
  EXPECT_EQ(kernel.stats(task).releases, 3u);
}

}  // namespace
}  // namespace nlft::rt
