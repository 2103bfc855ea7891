// TEM's core guarantee under randomized fault storms: with at most one
// fault affecting any single job, a delivered result is ALWAYS the correct
// one — faults either get masked or degrade to omissions, never to wrong
// outputs. Randomized over fault kinds, timings and task mixes.
#include <gtest/gtest.h>

#include "core/tem.hpp"
#include "util/rng.hpp"

namespace nlft::tem {
namespace {

using util::Duration;
using util::Rng;
using util::SimTime;

class FaultStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultStorm, DeliveredResultsAreAlwaysCorrect) {
  Rng rng{GetParam()};
  sim::Simulator simulator;
  rt::Cpu cpu{simulator};
  rt::RtKernel kernel{simulator, cpu};
  TemConfig temConfig;
  temConfig.maxCopies = 3 + static_cast<int>(rng.uniformInt(2));
  TemExecutor tem{kernel, temConfig};

  // Two critical tasks; each job's correct result encodes (task, jobIndex).
  struct FaultPlan {
    std::uint64_t job;
    int copy;
    int kind;  // 0 = silent corruption, 1 = EDM error in the plan
  };
  std::vector<rt::TaskId> tasks;
  std::vector<std::vector<FaultPlan>> plans(2);
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 12; ++i) {
      if (rng.bernoulli(0.4)) {
        plans[t].push_back({static_cast<std::uint64_t>(i),
                            1 + static_cast<int>(rng.uniformInt(2)),
                            static_cast<int>(rng.uniformInt(2))});
      }
    }
  }

  for (int t = 0; t < 2; ++t) {
    rt::TaskConfig config;
    config.name = "task" + std::to_string(t);
    config.priority = 5 + t;
    config.period = Duration::milliseconds(10 + 5 * t);
    config.wcet = Duration::milliseconds(1 + t);
    const auto& taskPlans = plans[t];
    tasks.push_back(tem.addCriticalTask(
        config, [t, &taskPlans](const CopyContext& context, CopyPlan& plan) {
          plan.executionTime = Duration::milliseconds(1 + t);
          plan.result = {static_cast<std::uint32_t>(t),
                         static_cast<std::uint32_t>(context.jobIndex)};
          for (const FaultPlan& fault : taskPlans) {
            if (fault.job == context.jobIndex && fault.copy == context.copyIndex) {
              if (fault.kind == 0) {
                plan.result[1] ^= 0x8000;  // silent data corruption
              } else {
                plan.end = CopyPlan::End::DetectedError;
                plan.executionTime = Duration::microseconds(400);
              }
            }
          }
        }));
  }

  // Additionally, random externally reported errors (ECC/MMU style).
  for (int i = 0; i < 6; ++i) {
    const auto at = SimTime::fromUs(1000 + static_cast<std::int64_t>(rng.uniformInt(120'000)));
    const rt::TaskId victim = tasks[rng.uniformInt(2)];
    simulator.scheduleAt(at, [&kernel, victim] {
      kernel.reportTaskError(victim, {rt::ErrorEvent::Source::EccUncorrectable, 0});
    }, sim::EventPriority::FaultInjection);
  }

  int wrongResults = 0;
  int delivered = 0;
  kernel.setResultSink([&](const rt::JobResult& result) {
    ++delivered;
    ASSERT_EQ(result.data.size(), 2u);
    const std::uint32_t task = result.data[0];
    if (result.data[1] != result.jobIndex || task != result.task.value) ++wrongResults;
  });

  kernel.start();
  simulator.runUntil(SimTime::fromUs(130'000));

  EXPECT_EQ(wrongResults, 0);
  EXPECT_GT(delivered, 10);
  // Conservation: every released job either completed or ended in omission
  // (at most one job per task may still be in flight at the horizon).
  for (const rt::TaskId task : tasks) {
    const rt::TaskStats& stats = kernel.stats(task);
    EXPECT_GE(stats.completions + stats.omissions + 1, stats.releases) << task.value;
    EXPECT_LE(stats.completions + stats.omissions, stats.releases) << task.value;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultStorm, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace nlft::tem
