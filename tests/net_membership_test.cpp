#include "net/membership.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <tuple>
#include <vector>

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

// What a membership run shows from outside: every transition the tap saw,
// and after each phase every node's view, every isMember answer and the
// digest.
struct ObservedRun {
  std::vector<std::tuple<NodeId, NodeId, bool>> taps;
  std::vector<std::set<NodeId>> views;
  std::vector<bool> memberships;
  std::vector<std::uint64_t> digests;
  friend bool operator==(const ObservedRun&, const ObservedRun&) = default;
};

/// Registers the sparse ids 40, 7, 19 and 3 in `order` (19 starts down) and
/// applies the same churn: 7 fails and restarts, 19 comes up, 40 fails.
ObservedRun runSparseIds(std::initializer_list<NodeId> order) {
  constexpr std::array<NodeId, 4> kIds{3, 7, 19, 40};
  sim::Simulator simulator;
  TdmaConfig config;
  config.slotLength = Duration::milliseconds(1);
  config.staticSchedule = {40, 7, 19, 3};
  TdmaBus bus{simulator, config};
  MembershipService membership{simulator, bus};
  ObservedRun run;
  membership.setMembershipTap([&run](NodeId observer, NodeId peer, bool member) {
    run.taps.emplace_back(observer, peer, member);
  });
  for (const NodeId node : order) membership.addNode(node, /*alive=*/node != 19);
  membership.queueAppData(40, std::vector<std::uint32_t>{0xBEEF});

  const auto observe = [&] {
    for (const NodeId observer : kIds) {
      run.views.push_back(membership.membershipView(observer));
      for (const NodeId peer : kIds) {
        run.memberships.push_back(membership.isMember(observer, peer));
      }
    }
    run.digests.push_back(membership.stateDigest());
  };
  const auto runToUs = [&](std::int64_t us) {
    simulator.runUntil(SimTime::fromUs(us));
    observe();
  };
  observe();
  membership.start();
  runToUs(9'000);
  membership.setAlive(7, false);
  runToUs(21'000);
  membership.setAlive(19, true);
  membership.setAlive(7, true);
  runToUs(26'000);
  membership.setAlive(40, false);
  runToUs(45'000);
  return run;
}

TEST(MembershipSparseIds, UnorderedRegistrationMatchesAscending) {
  const ObservedRun ascending = runSparseIds({3, 7, 19, 40});
  EXPECT_EQ(runSparseIds({40, 7, 19, 3}), ascending);
  EXPECT_EQ(runSparseIds({19, 40, 3, 7}), ascending);
  // The churn moved the views: 3 expelled 7 and admitted 19, and at the end
  // 40 is down while 7 and 19 are back in 3's view.
  using Tap = std::tuple<NodeId, NodeId, bool>;
  EXPECT_EQ(std::count(ascending.taps.begin(), ascending.taps.end(), Tap{3, 7, false}), 1);
  EXPECT_EQ(std::count(ascending.taps.begin(), ascending.taps.end(), Tap{3, 19, true}), 1);
  EXPECT_EQ(ascending.views.back(), (std::set<NodeId>{}));         // 40 is down
  EXPECT_EQ(ascending.views.front(), (std::set<NodeId>{3, 7, 40}));  // 3, before start
  EXPECT_EQ(ascending.views[ascending.views.size() - 4], (std::set<NodeId>{3, 7, 19}));
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
