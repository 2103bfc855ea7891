#include "rtkernel/kernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/tem.hpp"

namespace nlft::rt {
namespace {

using util::Duration;
using util::SimTime;

using Aborts = std::vector<std::pair<std::uint64_t, std::int64_t>>;  // (job index, instant)

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

  /// A 10-ms task whose every job asks for 30 ms of CPU, so none finishes;
  /// each abort-handler call appends its job's index and instant to `aborts`.
  TaskId addOverrunningTask(Duration relativeDeadline, Aborts& aborts) {
    TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(1));
    cfg.relativeDeadline = relativeDeadline;
    cfg.budget = Duration::milliseconds(50);
    return kernel.addTask(
        cfg, [](Job& job) { job.runCopy(Duration::milliseconds(30)); }, {},
        [this, &aborts](Job& job) { aborts.emplace_back(job.index(), simulator.now().us()); });
  }

  /// A simple task: each job runs a single copy of `work` and delivers a
  /// constant result (or omits, if the copy did not complete).
  TaskId addSimpleTask(TaskConfig cfg, Duration work, std::uint32_t value) {
    return kernel.addTask(
        std::move(cfg), [work](Job& job) { job.runCopy(work); },
        [value](Job& job, CopyStop stop) {
          if (stop == CopyStop::Completed) {
            job.complete(std::array{value});
          } else {
            job.omit();
          }
        });
  }
};

TEST_F(KernelFixture, PeriodicReleasesAndResults) {
  std::vector<SimTime> deliveries;
  const TaskId task = addSimpleTask(
      periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(2)),
      Duration::milliseconds(2), 7);
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
  const TaskId task = kernel.addTask(
      cfg,
      // Ask for more work than fits before the deadline.
      [](Job& job) { job.runCopy(Duration::milliseconds(8)); },
      [&](Job&, CopyStop stop) { observed = stop; }, [&](Job&) { aborted = true; });
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
  const TaskId task = kernel.addTask(
      cfg,
      // A control-flow error made the task loop: it asks for 15 ms of CPU.
      [](Job& job) { job.runCopy(Duration::milliseconds(15)); },
      [&](Job& job, CopyStop stop) {
        observed = stop;
        job.omit();
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
  const TaskId task = addSimpleTask(cfg, Duration::milliseconds(1), 1);
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
  kernel.addTask(
      low, [](Job& job) { job.runCopy(Duration::milliseconds(6)); },
      [&](Job& job, CopyStop) {
        order.push_back("low");
        job.complete({});
      });
  kernel.addTask(
      high, [](Job& job) { job.runCopy(Duration::milliseconds(2)); },
      [&](Job& job, CopyStop) {
        order.push_back("high");
        job.complete({});
      });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(50'000));
  EXPECT_EQ(order, (std::vector<std::string>{"high", "low"}));
}

TEST_F(KernelFixture, KernelErrorSilencesNode) {
  bool silent = false;
  kernel.setFailSilentHook([&] { silent = true; });
  const TaskId task = addSimpleTask(
      periodicTask("t", 1, Duration::milliseconds(5), Duration::milliseconds(1)),
      Duration::milliseconds(1), 1);
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(7), [&] { kernel.reportKernelError(); });
  simulator.runUntil(SimTime::fromUs(50'000));
  EXPECT_TRUE(silent);
  EXPECT_TRUE(kernel.stopped());
  EXPECT_EQ(kernel.kernelErrors(), 1u);
  // Releases at 0 and 5 completed; nothing after the error at 7.
  EXPECT_EQ(kernel.stats(task).releases, 2u);
}

TEST_F(KernelFixture, DisableTaskStopsFurtherReleases) {
  const TaskId task = addSimpleTask(
      periodicTask("noncritical", 1, Duration::milliseconds(5), Duration::milliseconds(1)),
      Duration::milliseconds(1), 1);
  kernel.start();
  simulator.scheduleAfter(Duration::milliseconds(12), [&] { kernel.disableTask(task); });
  simulator.runUntil(SimTime::fromUs(40'000));
  EXPECT_EQ(kernel.stats(task).releases, 3u);  // 0, 5, 10
}

TEST_F(KernelFixture, OverrunningJobIsAbortedAtNextRelease) {
  // Deadline equals period; job never finishes within it. Each job is
  // aborted once, at its successor's release.
  Aborts aborts;
  const TaskId task = addOverrunningTask(Duration{}, aborts);
  kernel.start();
  simulator.runUntil(SimTime::fromUs(25'000));
  EXPECT_EQ(aborts, (Aborts{{0, 10'000}, {1, 20'000}}));
  EXPECT_EQ(kernel.stats(task).releases, 3u);
  EXPECT_EQ(kernel.stats(task).deadlineMisses, 2u);
  EXPECT_EQ(kernel.stats(task).omissions, 2u);
  EXPECT_EQ(kernel.stats(task).completions, 0u);
}

TEST_F(KernelFixture, DeadlineBeyondPeriodAbortsAtNextRelease) {
  // D > T: the successor's release comes first and aborts the job, at the
  // release instant (10 ms), not at the deadline (15 ms).
  Aborts aborts;
  const TaskId task = addOverrunningTask(Duration::milliseconds(15), aborts);
  kernel.start();
  simulator.runUntil(SimTime::fromUs(25'000));
  EXPECT_EQ(aborts, (Aborts{{0, 10'000}, {1, 20'000}}));
  EXPECT_EQ(kernel.stats(task).deadlineMisses, 2u);
  EXPECT_EQ(kernel.stats(task).omissions, 2u);
  ASSERT_NE(kernel.activeJob(task), nullptr);
  EXPECT_EQ(kernel.activeJob(task)->absoluteDeadline().us(), 35'000);
}

TEST_F(KernelFixture, ImplicitDeadlineJobSchedulesNoDeadlineEvent) {
  // With D = T the next release aborts a late job, so the job has no
  // deadline event of its own: while its copy runs, the queue holds only the
  // next release and the copy's completion.
  const TaskId task = addSimpleTask(
      periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(2)),
      Duration::milliseconds(2), 7);
  kernel.start();
  simulator.runUntil(SimTime::fromUs(1'000));
  ASSERT_NE(kernel.activeJob(task), nullptr);
  EXPECT_EQ(cpu.runningLabel(), "t");
  EXPECT_EQ(simulator.pendingEvents(), 2u);
}

TEST_F(KernelFixture, ReleaseSporadicRefusesPeriodicTask) {
  // A sporadic release of a periodic task would start a second release
  // chain (releases at 3, 13, ..., 93 ms on top of 0, 10, ..., 100 ms).
  const TaskId task = addSimpleTask(
      periodicTask("control", 1, Duration::milliseconds(10), Duration::milliseconds(1)),
      Duration::milliseconds(1), 1);
  kernel.start();
  simulator.runUntil(SimTime::fromUs(3'000));
  try {
    kernel.releaseSporadic(task);
    ADD_FAILURE() << "releaseSporadic accepted a periodic task";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("'control' is periodic"), std::string::npos)
        << error.what();
  }
  simulator.runUntil(SimTime::fromUs(100'000));
  EXPECT_EQ(kernel.stats(task).releases, 11u);
  EXPECT_EQ(kernel.stats(task).completions, 10u);  // the 100-ms job is still running
}

TEST_F(KernelFixture, TimeToDeadlineShrinks) {
  TaskConfig cfg = periodicTask("t", 1, Duration::milliseconds(10), Duration::milliseconds(1));
  cfg.relativeDeadline = Duration::milliseconds(8);
  Duration atRelease{};
  kernel.addTask(
      cfg,
      [&](Job& job) {
        atRelease = job.timeToDeadline();
        job.runCopy(Duration::milliseconds(1));
      },
      [](Job& job, CopyStop) { job.complete({}); });
  kernel.start();
  simulator.runUntil(SimTime::fromUs(2'000));
  EXPECT_EQ(atRelease.us(), 8000);
}

// Two tasks on one kernel, each with its own copy-stop handler. Task "b"
// (added first, index 0) runs one 4-ms copy per job; task "a" (index 1,
// released 1 ms later at a higher priority) asks for 3 ms against a 2-ms
// budget, so its first copy of each job overruns and a 1-ms second copy
// completes the job. b is shut down at 15 ms, which omits its job 1 while
// the copy runs. Every stop must reach the handler of the task whose copy
// stopped, with that task's active job, and the copy cancelled by job 1's
// omission must reach none.
TEST_F(KernelFixture, CopyStopsReachTheirOwnTasksHandler) {
  using Stop = std::tuple<std::string, std::uint64_t, int, CopyStop, std::int64_t>;
  // (task, job index, copies started, stop, instant). b's copy is preempted
  // by a at 1 and 11 ms and resumes at 4 and 14 ms.
  const std::vector<Stop> expected{
      {"a", 0, 1, CopyStop::BudgetOverrun, 3'000},  {"a", 0, 2, CopyStop::Completed, 4'000},
      {"b", 0, 1, CopyStop::Completed, 7'000},      {"a", 1, 1, CopyStop::BudgetOverrun, 13'000},
      {"a", 1, 2, CopyStop::Completed, 14'000},
  };
  std::vector<Stop> stops;
  int copiesA = 0;
  TaskId a{};
  TaskId b{};
  // Each stop is checked as it arrives: a stop routed to the wrong task
  // leaves the kernel in a state that later events may not survive.
  auto record = [&](const char* name, TaskId task, int copies, Job& job, CopyStop stop) {
    EXPECT_EQ(job.taskId(), task);
    EXPECT_EQ(&job, kernel.activeJob(task));
    const Stop seen{name, job.index(), copies, stop, simulator.now().us()};
    ASSERT_LT(stops.size(), expected.size()) << "unexpected stop";
    EXPECT_EQ(seen, expected[stops.size()]) << "stop " << stops.size();
    stops.push_back(seen);
  };

  b = kernel.addTask(
      periodicTask("b", 1, Duration::milliseconds(10), Duration::milliseconds(4)),
      [](Job& job) { job.runCopy(Duration::milliseconds(4)); },
      [&](Job& job, CopyStop stop) {
        record("b", b, 1, job, stop);
        job.complete({});
      });
  TaskConfig configA = periodicTask("a", 2, Duration::milliseconds(10), Duration::milliseconds(2));
  configA.offset = Duration::milliseconds(1);
  a = kernel.addTask(
      configA,
      [&](Job& job) {
        copiesA = 1;
        job.runCopy(Duration::milliseconds(3));
      },
      [&](Job& job, CopyStop stop) {
        record("a", a, copiesA, job, stop);
        if (stop == CopyStop::BudgetOverrun) {
          ++copiesA;
          job.runCopy(Duration::milliseconds(1));
        } else {
          job.complete({});
        }
      });
  kernel.start();
  // Finishes b's job 1 while its copy runs.
  simulator.scheduleAt(SimTime::fromUs(15'000), [&] { kernel.disableTask(b); });
  simulator.runUntil(SimTime::fromUs(19'000));

  EXPECT_EQ(stops, expected);
  EXPECT_EQ(kernel.stats(a).budgetOverruns, 2u);
  EXPECT_EQ(kernel.stats(a).completions, 2u);
  EXPECT_EQ(kernel.stats(b).budgetOverruns, 0u);
  EXPECT_EQ(kernel.stats(b).completions, 1u);
  EXPECT_EQ(kernel.stats(b).omissions, 1u);
  EXPECT_EQ(cpu.preemptions(), 2u);
  // a: 3 ms per job; b: 4 ms in job 0 and 2 ms in job 1, whose cancelled
  // copy gives its remaining time back.
  EXPECT_EQ(cpu.busyTime().us(), 12'000);
  EXPECT_TRUE(cpu.idle());
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
  const TaskId task = addSimpleTask(
      periodicTask("t", 1, Duration::milliseconds(5), Duration::milliseconds(1)),
      Duration::milliseconds(1), 1);
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
