#include "net/bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/crc.hpp"
#include "util/rng.hpp"

namespace nlft::net {
namespace {

using util::Duration;
using util::SimTime;
using Words = std::vector<std::uint32_t>;

struct BusFixture : ::testing::Test {
  sim::Simulator simulator;
  TdmaConfig config;
  std::vector<std::tuple<NodeId, NodeId, std::vector<std::uint32_t>, std::int64_t>> received;

  BusFixture() {
    config.slotLength = Duration::milliseconds(1);
    config.staticSchedule = {1, 2, 3};
    config.dynamicMinislots = 4;
    config.minislotLength = Duration::microseconds(250);
  }

  void attachRecorder(TdmaBus& bus, NodeId node) {
    bus.attach(node, [this, node](const Frame& frame) {
      received.emplace_back(node, frame.sender, frame.payload, simulator.now().us());
    });
  }
};

TEST_F(BusFixture, CycleLengthCoversStaticAndDynamicSegments) {
  TdmaBus bus{simulator, config};
  EXPECT_EQ(bus.cycleLength().us(), 3000 + 4 * 250);
}

TEST_F(BusFixture, StaticFrameDeliveredInOwnersSlot) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 2);
  attachRecorder(bus, 3);
  bus.sendStatic(1, Words{0xAB});
  bus.start();
  simulator.runUntil(SimTime::fromUs(4000));
  ASSERT_EQ(received.size(), 2u);  // both other nodes hear it
  // Node 1 owns slot 0: delivery at the end of slot 0 = 1 ms.
  EXPECT_EQ(std::get<3>(received[0]), 1000);
  EXPECT_EQ(std::get<1>(received[0]), 1u);
  EXPECT_EQ(std::get<2>(received[0]), (std::vector<std::uint32_t>{0xAB}));
}

TEST_F(BusFixture, SenderDoesNotHearItself) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 1);
  bus.sendStatic(1, Words{1});
  bus.start();
  simulator.runUntil(SimTime::fromUs(4000));
  EXPECT_TRUE(received.empty());
}

TEST_F(BusFixture, SlotsAreOwnedOneFramePerCycle) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 3);
  bus.sendStatic(1, Words{1});
  bus.sendStatic(2, Words{2});
  bus.start();
  simulator.runUntil(SimTime::fromUs(3900));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(std::get<3>(received[0]), 1000);  // node 1, slot 0
  EXPECT_EQ(std::get<3>(received[1]), 2000);  // node 2, slot 1
}

TEST_F(BusFixture, FreshestValueReplacesPendingStaticFrame) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 2);
  bus.sendStatic(1, Words{1});
  bus.sendStatic(1, Words{2});  // replaces the first before the slot opens
  bus.start();
  simulator.runUntil(SimTime::fromUs(3900));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(std::get<2>(received[0]), (std::vector<std::uint32_t>{2}));
}

TEST_F(BusFixture, EmptySlotTransmitsNothing) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 2);
  bus.start();
  simulator.runUntil(SimTime::fromUs(8000));
  EXPECT_TRUE(received.empty());
  EXPECT_GE(bus.cyclesCompleted(), 1u);
}

TEST_F(BusFixture, DynamicSegmentArbitratesByPriority) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 1);
  bus.sendDynamic(3, 7, Words{30});
  bus.sendDynamic(2, 2, Words{20});  // higher priority (lower value) wins
  bus.start();
  simulator.runUntil(SimTime::fromUs(4000));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(std::get<1>(received[0]), 2u);
  EXPECT_EQ(std::get<1>(received[1]), 3u);
}

TEST_F(BusFixture, DynamicOverflowWaitsForNextCycle) {
  config.dynamicMinislots = 1;
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 1);
  bus.sendDynamic(2, 1, Words{1});
  bus.sendDynamic(3, 2, Words{2});
  bus.start();
  simulator.runUntil(SimTime::fromUs(3300));  // cycle 0 = 3.25 ms
  ASSERT_EQ(received.size(), 1u);  // only the winner fits in cycle 0
  simulator.runUntil(SimTime::fromUs(6500));
  ASSERT_EQ(received.size(), 2u);  // the loser went out in cycle 1
  EXPECT_EQ(std::get<1>(received[1]), 3u);
}

TEST_F(BusFixture, SilentNodeTransmitsNothing) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 2);
  bus.setNodeSilent(1, true);
  bus.sendStatic(1, Words{1});
  bus.sendDynamic(1, 0, Words{2});
  bus.start();
  simulator.runUntil(SimTime::fromUs(8000));
  EXPECT_TRUE(received.empty());
}

TEST_F(BusFixture, CorruptedFrameDroppedAtAllReceivers) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 2);
  attachRecorder(bus, 3);
  bus.corruptNextFrame(1, {});
  bus.sendStatic(1, Words{1});
  bus.start();
  simulator.runUntil(SimTime::fromUs(3900));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(bus.framesDropped(), 1u);

  // The corruption marker is one-shot: the next frame goes through.
  bus.sendStatic(1, Words{2});
  simulator.runUntil(SimTime::fromUs(7900));
  EXPECT_EQ(received.size(), 2u);
  EXPECT_EQ(bus.framesDelivered(), 1u);
}

TEST_F(BusFixture, CyclesRepeatIndefinitely) {
  TdmaBus bus{simulator, config};
  attachRecorder(bus, 2);
  bus.start();
  for (int cycle = 0; cycle < 5; ++cycle) {
    bus.sendStatic(1, Words{static_cast<std::uint32_t>(cycle)});
    simulator.runUntil(SimTime::fromUs((cycle + 1) * 4000));
  }
  EXPECT_EQ(received.size(), 5u);
  EXPECT_EQ(bus.cyclesCompleted(), 5u);
}

// --- CRC-16 corruption property ---------------------------------------------
//
// The safety property behind every bus-corruption fault scenario: a frame
// whose CRC check fails is NEVER delivered to a receiver, and every injected
// corruption is accounted for — either rejected by the CRC or (for flip sets
// that cancel out) delivered with a correct checksum. CRC-16-CCITT has
// Hamming distance >= 4 at these frame sizes, so every 1..3-bit corruption
// must be rejected.

TEST_F(BusFixture, RandomizedCorruptionNeverDeliversBadCrc) {
  TdmaBus bus{simulator, config};
  std::uint64_t framesHeard = 0;
  bus.attach(2, [&](const Frame& frame) {
    ++framesHeard;
    // Whatever arrives must carry a CRC consistent with its payload.
    EXPECT_EQ(frame.crc, frameCrc(frame.payload));
  });
  bus.start();

  util::Rng rng{2024};
  const int kRounds = 200;
  std::uint64_t corrupted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::vector<std::uint32_t> payload{static_cast<std::uint32_t>(rng.next()),
                                             static_cast<std::uint32_t>(rng.next()),
                                             static_cast<std::uint32_t>(rng.next())};
    const bool corrupt = rng.uniformInt(2) == 0;
    if (corrupt) {
      // 1..3 distinct flips anywhere in the frame (payload or CRC bits).
      const std::size_t flips = 1 + rng.uniformInt(3);
      std::vector<std::uint32_t> bits;
      while (bits.size() < flips) {
        const auto bit = static_cast<std::uint32_t>(rng.uniformInt(3 * 32 + 16));
        if (std::find(bits.begin(), bits.end(), bit) == bits.end()) bits.push_back(bit);
      }
      bus.corruptNextFrame(1, bits);
      ++corrupted;
    }
    bus.sendStatic(1, payload);
    simulator.runUntil(SimTime::fromUs((round + 1) * 4000));  // one full cycle per round
  }

  // Every injected corruption was a <=3-bit error: all rejected, none heard.
  EXPECT_EQ(bus.corruptionsInjected(), corrupted);
  EXPECT_EQ(bus.crcRejected(), corrupted);
  EXPECT_EQ(bus.framesDropped(), corrupted);
  EXPECT_EQ(framesHeard, kRounds - corrupted);
  // Conservation: every sent frame is either delivered or dropped.
  EXPECT_EQ(bus.framesDelivered() + bus.framesDropped(), static_cast<std::uint64_t>(kRounds));
}

// The frame check sequence is CRC-16-CCITT over the payload words'
// little-endian bytes, computed in place.
TEST(FrameCrc, EqualsCrc16OverLittleEndianPayloadBytes) {
  util::Rng rng{4};
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint32_t> payload(rng.uniformInt(17));
    for (auto& word : payload) word = static_cast<std::uint32_t>(rng.next());
    std::vector<std::uint8_t> bytes;
    for (const std::uint32_t word : payload) {
      for (int shift = 0; shift < 32; shift += 8) {
        bytes.push_back(static_cast<std::uint8_t>(word >> shift));
      }
    }
    ASSERT_EQ(frameCrc(payload), util::crc16Ccitt(bytes)) << payload.size() << " words";
  }
}

TEST_F(BusFixture, FlipFrameBitTargetsPayloadThenCrc) {
  Frame frame;
  frame.payload = {0x0, 0x0};
  frame.crc = frameCrc(frame.payload);
  Frame copy = frame;
  flipFrameBit(copy, 33);  // second payload word, bit 1
  EXPECT_EQ(copy.payload[1], 0x2u);
  EXPECT_EQ(copy.crc, frame.crc);
  copy = frame;
  flipFrameBit(copy, 64);  // first CRC bit
  EXPECT_EQ(copy.payload, frame.payload);
  EXPECT_EQ(copy.crc, frame.crc ^ 1u);
  copy = frame;
  flipFrameBit(copy, 80);  // wraps modulo 64 payload + 16 crc bits
  EXPECT_EQ(copy.payload[0], 0x1u);
}

TEST_F(BusFixture, DropTapSeesCorruptionReason) {
  TdmaBus bus{simulator, config};
  std::vector<std::string> reasons;
  bus.setDropTap([&](const Frame&, const char* reason) { reasons.emplace_back(reason); });
  bus.corruptNextFrame(1, {});
  bus.sendStatic(1, Words{0xAB});
  bus.start();
  simulator.runUntil(SimTime::fromUs(3900));
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "crc");
}

TEST_F(BusFixture, InvalidConfigRejected) {
  TdmaConfig bad;
  bad.staticSchedule = {};
  EXPECT_THROW(TdmaBus(simulator, bad), std::invalid_argument);
  bad.staticSchedule = {1};
  bad.slotLength = Duration{};
  EXPECT_THROW(TdmaBus(simulator, bad), std::invalid_argument);
  TdmaBus bus{simulator, config};
  bus.start();
  EXPECT_THROW(bus.start(), std::logic_error);
}

}  // namespace
}  // namespace nlft::net
