#include "net/membership.hpp"

#include <gtest/gtest.h>

namespace nlft::net {
namespace {

using util::Duration;
using util::SimTime;

struct MembershipFixture : ::testing::Test {
  sim::Simulator simulator;
  TdmaConfig config;

  MembershipFixture() {
    config.slotLength = Duration::milliseconds(1);
    config.staticSchedule = {1, 2, 3, 4};
    config.dynamicMinislots = 0;
  }

  // Runs until `cycles` communication cycles completed (cycle = 4 ms).
  void runCycles(int cycles) {
    simulator.runUntil(SimTime::fromUs(static_cast<std::int64_t>(cycles) * 4000 + 100));
  }
};

TEST_F(MembershipFixture, AllAliveNodesSeeEachOther) {
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  for (NodeId node : {1u, 2u, 3u, 4u}) membership.addNode(node);
  membership.start();
  runCycles(3);
  for (NodeId observer : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(membership.membershipView(observer), (std::set<NodeId>{1, 2, 3, 4}));
  }
}

TEST_F(MembershipFixture, SilentNodeIsExpelled) {
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  for (NodeId node : {1u, 2u, 3u, 4u}) membership.addNode(node);
  membership.start();
  runCycles(2);
  membership.setAlive(3, false);  // fail-silent failure
  runCycles(5);
  EXPECT_EQ(membership.membershipView(1), (std::set<NodeId>{1, 2, 4}));
  EXPECT_FALSE(membership.isMember(2, 3));
}

TEST_F(MembershipFixture, ExpulsionTakesMissToleranceCycles) {
  MembershipConfig membershipConfig;
  membershipConfig.missTolerance = 2;
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus, membershipConfig};
  for (NodeId node : {1u, 2u, 3u, 4u}) membership.addNode(node);
  membership.start();
  runCycles(1);
  membership.setAlive(3, false);
  runCycles(2);  // only one fully-missed cycle evaluated
  EXPECT_TRUE(membership.isMember(1, 3));
  runCycles(4);  // two more missed cycles: tolerance exceeded
  EXPECT_FALSE(membership.isMember(1, 3));
}

TEST_F(MembershipFixture, RestartedNodeReintegratesAfterTwoCleanCycles) {
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};  // reintegrationCycles = 2
  for (NodeId node : {1u, 2u, 3u, 4u}) membership.addNode(node);
  membership.start();
  runCycles(2);
  membership.setAlive(3, false);
  runCycles(4);
  ASSERT_FALSE(membership.isMember(1, 3));

  membership.setAlive(3, true);  // restart complete, heartbeats resume
  const std::int64_t restartUs = simulator.now().us();
  runCycles(static_cast<int>(restartUs / 4000) + 1);
  EXPECT_FALSE(membership.isMember(1, 3));  // one heartbeat is not enough
  runCycles(static_cast<int>(restartUs / 4000) + 3);
  EXPECT_TRUE(membership.isMember(1, 3));
  // The restarted node also rebuilt its own view of the others.
  EXPECT_EQ(membership.membershipView(3), (std::set<NodeId>{1, 2, 3, 4}));
}

TEST_F(MembershipFixture, ReintegrationLatencyBoundsTheOmissionRepairTime) {
  // The paper's mu_OM corresponds to ~1.6 s reintegration; in protocol terms
  // that is reintegrationCycles cycles after the node resumes. Measure it.
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  for (NodeId node : {1u, 2u, 3u, 4u}) membership.addNode(node);
  membership.start();
  runCycles(2);
  membership.setAlive(2, false);
  runCycles(4);
  membership.setAlive(2, true);
  const SimTime resumed = simulator.now();
  // Find the first time node 1 readmits node 2.
  SimTime readmitted;
  for (int cycle = 0; cycle < 10; ++cycle) {
    simulator.runUntil(simulator.now() + bus.cycleLength());
    if (membership.isMember(1, 2)) {
      readmitted = simulator.now();
      break;
    }
  }
  const Duration latency = readmitted - resumed;
  EXPECT_GT(latency, Duration{});
  EXPECT_LE(latency, bus.cycleLength() * 3);  // <= reintegrationCycles + 1 cycles
}

TEST_F(MembershipFixture, AppDataRidesAlongHeartbeats) {
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  for (NodeId node : {1u, 2u}) membership.addNode(node);
  config.staticSchedule = {1, 2};
  std::vector<std::tuple<NodeId, NodeId, std::vector<std::uint32_t>>> seen;
  membership.setAppReceive(
      [&](NodeId receiver, NodeId sender, std::span<const std::uint32_t> data) {
        seen.emplace_back(receiver, sender, std::vector<std::uint32_t>(data.begin(), data.end()));
      });
  membership.queueAppData(1, std::vector<std::uint32_t>{0xCAFE, 0xF00D});
  membership.start();
  runCycles(1);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(std::get<0>(seen[0]), 2u);
  EXPECT_EQ(std::get<1>(seen[0]), 1u);
  EXPECT_EQ(std::get<2>(seen[0]), (std::vector<std::uint32_t>{0xCAFE, 0xF00D}));
}

TEST_F(MembershipFixture, DownNodeHearsNothing) {
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  for (NodeId node : {1u, 2u, 3u, 4u}) membership.addNode(node);
  membership.start();
  runCycles(2);
  membership.setAlive(4, false);
  runCycles(6);
  EXPECT_TRUE(membership.membershipView(4).empty());
}

TEST_F(MembershipFixture, NodeAddedDeadJoinsLater) {
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  membership.addNode(1);
  membership.addNode(2);
  membership.addNode(3, /*alive=*/false);
  membership.addNode(4);
  membership.start();
  runCycles(2);
  EXPECT_FALSE(membership.isMember(1, 3));
  membership.setAlive(3, true);
  runCycles(6);
  EXPECT_TRUE(membership.isMember(1, 3));
}

TEST_F(MembershipFixture, InvalidUsage) {
  TdmaBus bus{simulator, config};
  MembershipConfig bad;
  bad.reintegrationCycles = 0;
  EXPECT_THROW(MembershipService(simulator, bus, bad), std::invalid_argument);
  MembershipService membership{simulator, bus};
  membership.addNode(1);
  membership.start();
  EXPECT_THROW(membership.addNode(2), std::logic_error);
  EXPECT_THROW(membership.start(), std::logic_error);
}

}  // namespace
}  // namespace nlft::net
