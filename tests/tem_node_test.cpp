// The NlftNode facade: policy selection, silent-hook wiring, restart, and
// permanent-fault suspicion shutting the node down.
#include "core/node.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

namespace nlft::tem {
namespace {

using util::Duration;
using util::SimTime;

CopyPlan good(Duration time, std::uint32_t value = 1) {
  CopyPlan plan;
  plan.executionTime = time;
  plan.result = {value};
  return plan;
}

rt::TaskConfig taskConfig(const char* name, Duration wcet, Duration period) {
  rt::TaskConfig cfg;
  cfg.name = name;
  cfg.priority = 5;
  cfg.period = period;
  cfg.wcet = wcet;
  return cfg;
}

TEST(NlftNode, NlftPolicyMasksFaults) {
  sim::Simulator simulator;
  NlftNode node{simulator};
  int results = 0;
  node.setResultSink([&](const rt::JobResult&) { ++results; });
  const rt::TaskId task = node.addCriticalTask(
      taskConfig("t", Duration::milliseconds(1), Duration::milliseconds(10)),
      [](const CopyContext& ctx, CopyPlan& plan) {
        plan = good(Duration::milliseconds(1), 7);
        if (ctx.jobIndex == 1 && ctx.copyIndex == 2) plan.result[0] ^= 1;  // one fault
      });
  node.start();
  simulator.runUntil(SimTime::fromUs(45'000));
  EXPECT_EQ(results, 5);
  EXPECT_EQ(node.temStats(task).maskedByVote, 1u);
  EXPECT_FALSE(node.silent());
  EXPECT_FALSE(node.permanentFaultSuspected());
}

TEST(NlftNode, FailSilentPolicyStopsOnError) {
  sim::Simulator simulator;
  NodeConfig config;
  config.policy = NodePolicy::FailSilent;
  NlftNode node{simulator, config};
  bool silent = false;
  node.setSilentHook([&] { silent = true; });
  node.addCriticalTask(taskConfig("t", Duration::milliseconds(1), Duration::milliseconds(10)),
                       [](const CopyContext& ctx, CopyPlan& plan) {
                         plan = good(Duration::milliseconds(1));
                         if (ctx.jobIndex == 2) plan.end = CopyPlan::End::DetectedError;
                       });
  node.start();
  simulator.runUntil(SimTime::fromUs(60'000));
  EXPECT_TRUE(silent);
  EXPECT_TRUE(node.silent());
  EXPECT_EQ(node.policy(), NodePolicy::FailSilent);
  EXPECT_THROW((void)node.temStats(rt::TaskId{0}), std::logic_error);
}

TEST(NlftNode, PermanentFaultSuspicionSilencesNode) {
  sim::Simulator simulator;
  NlftNode node{simulator};
  bool silent = false;
  node.setSilentHook([&] { silent = true; });
  // A stuck-at fault corrupts copy 2 of EVERY job: masked each time, but the
  // streak betrays a permanent fault after 3 jobs.
  node.addCriticalTask(taskConfig("t", Duration::milliseconds(1), Duration::milliseconds(10)),
                       [](const CopyContext& ctx, CopyPlan& plan) {
                         plan = good(Duration::milliseconds(1));
                         if (ctx.copyIndex == 2) plan.result[0] ^= 4;
                       });
  node.start();
  simulator.runUntil(SimTime::fromUs(100'000));
  EXPECT_TRUE(node.permanentFaultSuspected());
  EXPECT_TRUE(silent);
  EXPECT_TRUE(node.silent());
}

TEST(NlftNode, RestartAfterTransientDiagnosis) {
  sim::Simulator simulator;
  NlftNode node{simulator};
  int results = 0;
  node.setResultSink([&](const rt::JobResult&) { ++results; });
  node.addCriticalTask(taskConfig("t", Duration::milliseconds(1), Duration::milliseconds(10)),
                       [](const CopyContext&, CopyPlan& plan) {
                         plan = good(Duration::milliseconds(1));
                       });
  node.start();
  simulator.scheduleAfter(Duration::milliseconds(15), [&] { node.reportKernelError(); });
  simulator.scheduleAfter(Duration::milliseconds(35), [&] { node.restart(); });
  simulator.runUntil(SimTime::fromUs(70'000));
  EXPECT_FALSE(node.silent());
  // Jobs at 0, 10 before the error; 35, 45, 55, 65 after the restart.
  EXPECT_EQ(results, 6);
}

TEST(NlftNode, NonCriticalTaskShutdownDoesNotSilenceNode) {
  sim::Simulator simulator;
  NlftNode node{simulator};
  int criticalResults = 0;
  node.setResultSink([&](const rt::JobResult& result) {
    if (result.task == rt::TaskId{0}) ++criticalResults;
  });
  node.addCriticalTask(taskConfig("critical", Duration::milliseconds(1), Duration::milliseconds(10)),
                       [](const CopyContext&, CopyPlan& plan) {
                         plan = good(Duration::milliseconds(1));
                       });
  const rt::TaskId diag = node.addNonCriticalTask(
      taskConfig("diag", Duration::milliseconds(1), Duration::milliseconds(10)),
      [](const CopyContext& ctx, CopyPlan& plan) {
        plan = good(Duration::milliseconds(1));
        if (ctx.jobIndex == 1) plan.end = CopyPlan::End::DetectedError;
      });
  node.start();
  simulator.runUntil(SimTime::fromUs(55'000));
  EXPECT_FALSE(node.silent());
  EXPECT_EQ(criticalResults, 6);
  EXPECT_EQ(node.taskStats(diag).completions, 1u);
  EXPECT_EQ(node.taskStats(diag).releases, 2u);
}

// The kernel's handlers hold the node and its TEM executor: a moved or copied
// object would leave them calling into the original, or into freed memory.
TEST(NlftNode, NodeAndTemExecutorCanNeitherMoveNorCopy) {
  EXPECT_FALSE(std::is_move_constructible_v<NlftNode>);
  EXPECT_FALSE(std::is_move_assignable_v<NlftNode>);
  EXPECT_FALSE(std::is_copy_constructible_v<NlftNode>);
  EXPECT_FALSE(std::is_move_constructible_v<TemExecutor>);
  EXPECT_FALSE(std::is_copy_constructible_v<TemExecutor>);
}

TEST(NlftNode, DetectedErrorIsMaskedByReplacement) {
  sim::Simulator simulator;
  NlftNode node{simulator};
  std::vector<std::int64_t> deliveredAt;
  node.setResultSink([&](const rt::JobResult& result) {
    deliveredAt.push_back(result.deliveredAt.us());
  });
  const rt::TaskId task = node.addCriticalTask(
      taskConfig("t", Duration::milliseconds(4), Duration::milliseconds(20)),
      [](const CopyContext& ctx, CopyPlan& plan) {
        plan = good(Duration::milliseconds(4));
        if (ctx.copyIndex == 1) {  // an EDM fires 1 ms into the first copy
          plan.executionTime = Duration::milliseconds(1);
          plan.end = CopyPlan::End::DetectedError;
        }
      });
  node.start();
  simulator.runUntil(SimTime::fromUs(19'000));
  // 1 ms until the EDM, then two clean 4-ms copies: the first copy's other
  // 3 ms were reclaimed.
  EXPECT_EQ(deliveredAt, (std::vector<std::int64_t>{9'000}));
  EXPECT_EQ(node.temStats(task).edmDetectedErrors, 1u);
  EXPECT_EQ(node.temStats(task).maskedByReplacement, 1u);
  EXPECT_EQ(node.taskStats(task).completions, 1u);
  EXPECT_FALSE(node.silent());
}

}  // namespace
}  // namespace nlft::tem
