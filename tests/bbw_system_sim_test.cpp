// Closed-loop integration tests: six nodes, TDMA bus, kernels, TEM, vehicle.
#include "bbw/system_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace nlft::bbw {
namespace {

using util::Duration;
using util::SimTime;

BbwSimConfig baseConfig(NodeType type) {
  BbwSimConfig config;
  config.nodeType = type;
  return config;
}

/// A stop's trace lines, split into their simulated time and message.
struct TracedStop {
  std::vector<std::pair<std::int64_t, std::string>> lines;
  BbwSimResult result;

  /// Time of the first line that reads `message`, or -1 if none does.
  [[nodiscard]] std::int64_t firstAt(const std::string& message) const {
    for (const auto& [atUs, line] : lines) {
      if (line == message) return atUs;
    }
    return -1;
  }
};

/// Runs one stop with a 500-ms restart time and a detected error injected
/// on wheel FL at each of `atUs`.
TracedStop runWithDetectedErrors(NodeType type, std::initializer_list<std::int64_t> atUs) {
  BbwSimConfig config = baseConfig(type);
  config.restartTime = Duration::milliseconds(500);
  BbwSystemSim sim{config};
  TracedStop stop;
  sim.setTraceSink([&stop](const std::string& line) {
    const std::size_t space = line.find(' ');
    stop.lines.emplace_back(std::stoll(line.substr(2, space - 2)), line.substr(space + 1));
  });
  for (const std::int64_t at : atUs) sim.injectDetectedError(kWheelNodeBase, SimTime::fromUs(at));
  stop.result = sim.run();
  return stop;
}

TEST(BbwSystem, FaultFreeStopNlft) {
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GT(result.stoppingDistanceM, 30.0);
  EXPECT_LT(result.stoppingDistanceM, 80.0);
  EXPECT_GT(result.cuCompletions, 100u);
  EXPECT_GT(result.commandFramesDelivered, 100u);
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
  EXPECT_EQ(result.failSilentEvents, 0u);
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    EXPECT_GT(result.wheelCompletions[w], 100u) << w;
    EXPECT_EQ(result.wheelOmissions[w], 0u) << w;
  }
}

TEST(BbwSystem, FaultFreeStopsAreIdenticalAcrossNodeTypes) {
  const BbwSimResult nlft = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  const BbwSimResult fs = BbwSystemSim{baseConfig(NodeType::FailSilent)}.run();
  ASSERT_TRUE(nlft.stopped);
  ASSERT_TRUE(fs.stopped);
  // Same control law, same network: fault-free behaviour must match closely.
  EXPECT_NEAR(nlft.stoppingDistanceM, fs.stoppingDistanceM, 0.5);
}

TEST(BbwSystem, NlftMasksComputationFaultWithoutDegradation) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();

  BbwSystemSim faulty{baseConfig(NodeType::Nlft)};
  faulty.injectComputationFault(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult result = faulty.run();

  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.errorsMaskedByTem, 1u);
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.2);
}

TEST(BbwSystem, NlftMasksDetectedErrorByReplacement) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  BbwSystemSim faulty{baseConfig(NodeType::Nlft)};
  faulty.injectDetectedError(kWheelNodeBase + 1, SimTime::fromUs(500'000));
  const BbwSimResult result = faulty.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.errorsMaskedByTem, 1u);
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.2);
}

TEST(BbwSystem, FsNodeDetectedErrorSilencesWheelAndLengthensStop) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::FailSilent)}.run();

  BbwSystemSim faulty{baseConfig(NodeType::FailSilent)};
  faulty.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult result = faulty.run();

  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.failSilentEvents, 1u);
  // Three-wheel braking for ~3 s (the restart time covers most of the stop).
  EXPECT_GT(result.stoppingDistanceM, clean.stoppingDistanceM * 1.05);
}

TEST(BbwSystem, NlftBeatsFsUnderTheSameFault) {
  BbwSystemSim nlft{baseConfig(NodeType::Nlft)};
  nlft.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult nlftResult = nlft.run();

  BbwSystemSim fs{baseConfig(NodeType::FailSilent)};
  fs.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult fsResult = fs.run();

  // The headline of the paper at system scale: the NLFT node masks the
  // transient locally; the FS node drops out and the stop degrades.
  EXPECT_LT(nlftResult.stoppingDistanceM, fsResult.stoppingDistanceM - 1.0);
}

TEST(BbwSystem, KernelErrorSilencesNodeOnBothNodeTypes) {
  for (const NodeType type : {NodeType::Nlft, NodeType::FailSilent}) {
    BbwSystemSim sim{baseConfig(type)};
    sim.injectKernelError(kWheelNodeBase + 2, SimTime::fromUs(200'000));
    const BbwSimResult result = sim.run();
    EXPECT_TRUE(result.stopped) << static_cast<int>(type);
    EXPECT_GE(result.failSilentEvents, 1u);
  }
}

// Permanent-fault suspicion (Section 2.5): an NLFT node masks each detected
// error, but three erroneous jobs of one task in a row shut it down for
// off-line diagnosis, and it restarts after restartTime like any silent
// node. Each injection lies mid-period, so it arms the next control job of
// wheel FL (node 3): the jobs released at 305, 310 and 315 ms.
TEST(BbwSystem, ThreeErroneousJobsInARowSilenceAnNlftNode) {
  const TracedStop three = runWithDetectedErrors(NodeType::Nlft, {302'500, 307'500, 312'500});
  const std::int64_t silentAt = three.firstAt("node-silent node=3");
  EXPECT_GE(silentAt, 315'000);
  EXPECT_LT(silentAt, 320'000);
  EXPECT_EQ(three.firstAt("kernel-error node=3"), silentAt);
  EXPECT_EQ(three.firstAt("node-restarted node=3"), silentAt + 500'000);
  EXPECT_EQ(three.result.failSilentEvents, 1u);
  EXPECT_EQ(three.result.errorsMaskedByTem, 3u);
  EXPECT_TRUE(three.result.stopped);

  // Two in a row are transients: masked, and the node stays up.
  const TracedStop two = runWithDetectedErrors(NodeType::Nlft, {302'500, 307'500});
  EXPECT_EQ(two.firstAt("kernel-error node=3"), -1);
  EXPECT_EQ(two.firstAt("node-silent node=3"), -1);
  EXPECT_EQ(two.result.failSilentEvents, 0u);
  EXPECT_EQ(two.result.errorsMaskedByTem, 2u);

  // A fail-silent node goes silent at the first error.
  const TracedStop fs = runWithDetectedErrors(NodeType::FailSilent, {302'500, 307'500, 312'500});
  const std::int64_t fsSilentAt = fs.firstAt("node-silent node=3");
  EXPECT_GE(fsSilentAt, 305'000);
  EXPECT_LT(fsSilentAt, 310'000);
  EXPECT_EQ(fs.firstAt("kernel-error node=3"), fsSilentAt);
}

TEST(BbwSystem, CentralUnitFailoverKeepsBraking) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  sim.injectKernelError(kCuA, SimTime::fromUs(100'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  // The partner CU provides the service: braking barely affected.
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 1.0);
}

TEST(BbwSystem, NodeRestartsAndReintegrates) {
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.restartTime = Duration::milliseconds(500);
  config.horizon = Duration::seconds(15);
  BbwSystemSim sim{config};
  sim.injectKernelError(kWheelNodeBase + 0, SimTime::fromUs(200'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  // With a quick restart, the wheel node is back long before the end.
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
}

TEST(BbwSystem, FsComputationFaultIsSilentDataCorruption) {
  // On a fail-silent node a pure data fault escapes detection: the wrong
  // brake torque reaches the actuator (exactly the coverage gap that makes
  // C_D < 1 in the reliability analysis). The stop still happens -- one
  // wheel briefly brakes with a slightly different torque.
  BbwSystemSim sim{baseConfig(NodeType::FailSilent)};
  sim.injectComputationFault(kWheelNodeBase + 3, SimTime::fromUs(400'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.failSilentEvents, 0u);  // nothing detected it
}

TEST(BbwSystem, LostCommandFrameIsBridgedByPreviousValue) {
  // A corrupted CU frame drops one command broadcast; wheel nodes keep
  // braking with the previous value and the stop is essentially unaffected.
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  BbwSystemSim noisy{baseConfig(NodeType::Nlft)};
  // Time the corruption so it hits command-carrying heartbeats: with a 4 ms
  // communication cycle and 5 ms control period, heartbeats of cycles
  // starting at t = 4 mod 20 ms carry a fresh command; arming the fault at
  // t = cycleStart - 0.4 ms makes that heartbeat the node's next frame.
  for (int i = 0; i < 5; ++i) {
    noisy.injectBusCorruption(kCuA, SimTime::fromUs(503'600 + i * 20'000), {});
    noisy.injectBusCorruption(kCuB, SimTime::fromUs(503'600 + i * 20'000), {});
  }
  const BbwSimResult result = noisy.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.5);
  EXPECT_EQ(result.busFramesDropped, 10u);
  EXPECT_EQ(clean.busFramesDropped, 0u);
  EXPECT_LT(result.commandFramesDelivered, clean.commandFramesDelivered);
}

TEST(BbwSystem, DuplexArbiterDropsPartnerDuplicates) {
  const BbwSimResult result = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  // Both CUs broadcast every command; each wheel accepts one copy and drops
  // the partner's.
  EXPECT_GT(result.duplicateCommandsDropped, 100u);
  EXPECT_NEAR(static_cast<double>(result.duplicateCommandsDropped),
              static_cast<double>(result.commandFramesDelivered),
              static_cast<double>(result.commandFramesDelivered) * 0.05);
}

TEST(BbwSystem, SingleCuMeansNoDuplicates) {
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  sim.injectKernelError(kCuA, SimTime::fromUs(50'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  // After CU-A silences, only CU-B's copies arrive: duplicates stop growing.
  EXPECT_LT(result.duplicateCommandsDropped, result.commandFramesDelivered / 2);
}

TEST(BbwSystem, EmergencyBrakeUsesTheEventTriggeredPath) {
  // Driver is coasting (pedal 0); the emergency press at 0.5 s must reach
  // the wheels through the sporadic task + dynamic segment within a few
  // milliseconds, far quicker than a periodic-command round trip from idle.
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.pedal = 0.0;
  BbwSystemSim sim{config};
  sim.pressEmergencyBrake(SimTime::fromUs(500'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GT(result.emergencyBrakeLatency, Duration{});
  EXPECT_LE(result.emergencyBrakeLatency, Duration::milliseconds(6));
  // Coasted for 0.5 s at ~27.8 m/s before braking: total distance is the
  // coast plus a normal full stop.
  EXPECT_GT(result.stoppingDistanceM, 37.0 + 12.0);
}

TEST(BbwSystem, EmergencyBrakeSurvivesOneCuDown) {
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.pedal = 0.0;
  BbwSystemSim sim{config};
  sim.injectKernelError(kCuA, SimTime::fromUs(100'000));
  sim.pressEmergencyBrake(SimTime::fromUs(500'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GT(result.emergencyBrakeLatency, Duration{});
  EXPECT_LE(result.emergencyBrakeLatency, Duration::milliseconds(6));
}

TEST(BbwSystem, PedalProfileDrivesTheStop) {
  // Half pedal brakes longer than full pedal.
  BbwSimConfig half = baseConfig(NodeType::Nlft);
  half.pedal = 0.5;
  const double halfDistance = BbwSystemSim{half}.run().stoppingDistanceM;

  BbwSimConfig full = baseConfig(NodeType::Nlft);
  const double fullDistance = BbwSystemSim{full}.run().stoppingDistanceM;

  EXPECT_GT(halfDistance, fullDistance + 5.0);
}

TEST(BbwSystem, NegativePedalCoastsLikeReleasedPedal) {
  // The pedal reading is clamped to [0, 1] before the CU quantises it, so a
  // negative position brakes like a released pedal, not like full braking.
  const auto run = [](double pedal) {
    BbwSimConfig config = baseConfig(NodeType::Nlft);
    config.pedal = pedal;
    return BbwSystemSim{config}.run();
  };
  const BbwSimResult released = run(0.0);
  const BbwSimResult negative = run(-0.5);
  EXPECT_FALSE(released.stopped);
  EXPECT_EQ(negative.stopped, released.stopped);
  EXPECT_EQ(negative.stoppingDistanceM, released.stoppingDistanceM);
  EXPECT_EQ(negative.commandFramesDelivered, released.commandFramesDelivered);
  EXPECT_GT(negative.stoppingDistanceM, run(1.0).stoppingDistanceM + 100.0);
}

TEST(BbwSystem, SoakTestManySequentialFaultsAllMasked) {
  // A long, gentle stop (quarter pedal, ~9 s) with a fault hitting a
  // different node every 700 ms — twelve transients in one braking episode.
  // An NLFT system masks every one of them; nothing goes down, nothing is
  // omitted, and the stop matches the fault-free run exactly.
  auto configure = [] {
    BbwSimConfig config;
    config.nodeType = NodeType::Nlft;
    config.pedal = 0.25;
    config.horizon = Duration::seconds(25);
    return config;
  };
  const BbwSimResult clean = BbwSystemSim{configure()}.run();
  ASSERT_TRUE(clean.stopped);

  BbwSystemSim sim{configure()};
  for (int i = 0; i < 12; ++i) {
    const net::NodeId node = 1 + static_cast<net::NodeId>(i % 6);
    const SimTime at = SimTime::fromUs(300'000 + i * 700'000);
    if (i % 2 == 0) {
      sim.injectComputationFault(node, at);
    } else {
      sim.injectDetectedError(node, at);
    }
  }
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.errorsMaskedByTem, 10u);  // late faults may miss the stop window
  EXPECT_EQ(result.failSilentEvents, 0u);
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    EXPECT_EQ(result.wheelOmissions[w], 0u) << w;
  }
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.3);
}

TEST(BbwSystem, CuFailoverAccountingAndMembership) {
  // Kill CU-A mid-stop and keep the restart outside the horizon so the
  // duplex degradation is visible end to end.
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.restartTime = Duration::seconds(60);
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();

  BbwSystemSim sim{config};
  std::vector<std::tuple<net::NodeId, net::NodeId, bool>> transitions;
  sim.membership().setMembershipTap(
      [&](net::NodeId observer, net::NodeId peer, bool member) {
        transitions.emplace_back(observer, peer, member);
      });
  sim.injectKernelError(kCuA, SimTime::fromUs(500'000));
  const BbwSimResult result = sim.run();

  ASSERT_TRUE(result.stopped);
  // The surviving CU keeps commanding: frames are still delivered every
  // period, but the duplicate-drop count collapses once only one copy of
  // each command is on the bus.
  EXPECT_GT(result.commandFramesDelivered, 100u);
  EXPECT_GT(clean.duplicateCommandsDropped, 0u);
  EXPECT_LT(result.duplicateCommandsDropped, clean.duplicateCommandsDropped);
  EXPECT_GT(result.duplicateCommandsDropped, 0u);  // duplex until the kill
  EXPECT_EQ(result.failSilentEvents, 1u);
  EXPECT_TRUE(result.nodesDownAtEnd.count(kCuA));

  // Every live observer expelled CU-A from its membership view; nobody was
  // re-admitted (the restart is outside the horizon).
  std::set<net::NodeId> expellers;
  for (const auto& [observer, peer, member] : transitions) {
    EXPECT_EQ(peer, kCuA);
    EXPECT_FALSE(member);
    expellers.insert(observer);
  }
  EXPECT_EQ(expellers, (std::set<net::NodeId>{kCuB, 3, 4, 5, 6}));
  EXPECT_FALSE(sim.membership().isMember(kCuB, kCuA));
  EXPECT_TRUE(sim.membership().isMember(kCuB, kWheelNodeBase));
}

TEST(BbwSystem, DeterministicReplay) {
  auto distance = [] {
    BbwSystemSim sim{baseConfig(NodeType::Nlft)};
    sim.injectDetectedError(kWheelNodeBase + 1, SimTime::fromUs(350'000));
    return sim.run().stoppingDistanceM;
  };
  EXPECT_DOUBLE_EQ(distance(), distance());
}

// Queue-shape gate: the events a fault-free stop keeps queued, sampled every
// 100 us. Each bus slot schedules the next one, and a periodic job whose
// deadline cannot fire before its successor's release schedules no deadline
// event, so the peak is 23. Pre-scheduling a whole bus cycle (peak 28), or a
// deadline event per periodic job (peak 34), would exceed the bound.
TEST(BbwSystem, GoldenStopKeepsTheEventQueueShort) {
  BbwSystemSim sim{BbwSimConfig{}};
  std::size_t peak = 0;
  for (SimTime sample = SimTime::zero();;) {
    sample = sample + Duration::microseconds(100);
    sim.runUntil(sample);
    peak = std::max(peak, sim.simulator().pendingEvents());
    if (sim.simulator().now() < sample) break;  // the vehicle stopped
  }
  ASSERT_TRUE(sim.run().stopped);
  RecordProperty("peak_pending_events", static_cast<int>(peak));
  EXPECT_LE(peak, 25u) << "peak queue length over the stop";
}

// A stop with a trace recorder exports every CPU execution segment as a
// "cpu" span, so each node's spans add up to exactly its CPU busy time.
TEST(BbwSystem, CpuSpansSumToEachNodesBusyTime) {
  obs::TraceRecorder recorder;
  BbwSystemSim sim{BbwSimConfig{}};
  sim.setTraceRecorder(&recorder);
  ASSERT_TRUE(sim.run().stopped);
  for (net::NodeId node = kCuA; node <= kWheelNodeBase + 3; ++node) {
    SCOPED_TRACE(node);
    std::int64_t spannedUs = 0;
    for (const obs::TraceEvent& event : recorder.events()) {
      if (event.phase == 'X' && event.category == "cpu" && event.pid == node) {
        spannedUs += event.durUs;
      }
    }
    EXPECT_GT(spannedUs, 0);
    EXPECT_EQ(spannedUs, sim.cpu(node).busyTime().us());
  }
  EXPECT_THROW((void)sim.cpu(7), std::invalid_argument);
}

}  // namespace
}  // namespace nlft::bbw
