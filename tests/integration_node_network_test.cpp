// Cross-module integration: two NlftNode instances (a duplex pair) on a
// TDMA bus with heartbeat membership.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "net/membership.hpp"

namespace nlft {
namespace {

using util::Duration;
using util::SimTime;

constexpr net::NodeId kNodeA = 1;
constexpr net::NodeId kNodeB = 2;

struct DuplexFixture : ::testing::Test {
  sim::Simulator simulator;
  net::TdmaConfig busConfig;
  std::unique_ptr<net::TdmaBus> bus;
  std::unique_ptr<net::MembershipService> membership;
  std::unique_ptr<tem::NlftNode> nodeA;
  std::unique_ptr<tem::NlftNode> nodeB;
  // The replicated application state: a smoothed setpoint each node
  // maintains (identical while both are healthy — replica determinism).
  std::uint32_t stateA = 0;
  std::uint32_t stateB = 0;

  void SetUp() override {
    busConfig.slotLength = Duration::milliseconds(1);
    busConfig.staticSchedule = {kNodeA, kNodeB};
    bus = std::make_unique<net::TdmaBus>(simulator, busConfig);
    membership = std::make_unique<net::MembershipService>(simulator, *bus);
    membership->addNode(kNodeA);
    membership->addNode(kNodeB);

    nodeA = makeNode(kNodeA, stateA);
    nodeB = makeNode(kNodeB, stateB);
    membership->start();
    nodeA->start();
    nodeB->start();
  }

  std::unique_ptr<tem::NlftNode> makeNode(net::NodeId id, std::uint32_t& state) {
    auto node = std::make_unique<tem::NlftNode>(simulator);
    node->setSilentHook([this, id] { membership->setAlive(id, false); });
    rt::TaskConfig config;
    config.name = "filter";
    config.priority = 5;
    config.period = Duration::milliseconds(5);
    config.wcet = Duration::milliseconds(1);
    node->addCriticalTask(config, [&state](const tem::CopyContext&) {
      tem::CopyPlan plan;
      plan.executionTime = Duration::milliseconds(1);
      plan.result = {state + 1};  // the next filter state
      return plan;
    });
    node->setResultSink([&state](const rt::JobResult& result) { state = result.data[0]; });
    return node;
  }
};

TEST_F(DuplexFixture, HealthyPairStaysInLockstep) {
  simulator.runUntil(SimTime::fromUs(100'000));
  EXPECT_EQ(stateA, stateB);
  EXPECT_GT(stateA, 10u);
  EXPECT_EQ(membership->membershipView(kNodeA), (std::set<net::NodeId>{kNodeA, kNodeB}));
}

}  // namespace
}  // namespace nlft
