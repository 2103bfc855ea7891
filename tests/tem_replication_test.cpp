#include "core/replication.hpp"

#include <gtest/gtest.h>

namespace nlft::tem {
namespace {

SimTime at(std::int64_t ms) { return SimTime::fromUs(ms * 1000); }
using Words = std::vector<std::uint32_t>;

TEST(DuplexArbiterFirstValid, DeliversFirstDropsSecond) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::FirstValid};
  EXPECT_TRUE(arbiter.offer(0, 1, Words{10, 20}, at(0)));
  EXPECT_FALSE(arbiter.offer(1, 1, Words{10, 20}, at(1)));
  EXPECT_EQ(arbiter.delivered(), 1u);
  EXPECT_EQ(arbiter.duplicatesDropped(), 1u);
}

TEST(DuplexArbiterFirstValid, IndependentSequencesAllDeliver) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::FirstValid};
  for (std::uint64_t sequence = 0; sequence < 5; ++sequence) {
    EXPECT_TRUE(arbiter.offer(sequence % 2, sequence, Words{static_cast<std::uint32_t>(sequence)},
                              at(static_cast<std::int64_t>(sequence))));
  }
  EXPECT_EQ(arbiter.delivered(), 5u);
}

TEST(DuplexArbiterCompare, MatchingCopiesDeliverOnSecondArrival) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::CompareAndFlag};
  EXPECT_FALSE(arbiter.offer(0, 7, Words{1, 2}, at(0)));  // held
  EXPECT_TRUE(arbiter.offer(1, 7, Words{1, 2}, at(1)));
  EXPECT_EQ(arbiter.mismatches(), 0u);
}

TEST(DuplexArbiterCompare, MismatchFlaggedAndSuppressed) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::CompareAndFlag};
  std::uint64_t flaggedSequence = 0;
  arbiter.setMismatchHandler([&](std::uint64_t sequence) { flaggedSequence = sequence; });
  EXPECT_FALSE(arbiter.offer(0, 9, Words{1}, at(0)));
  EXPECT_FALSE(arbiter.offer(1, 9, Words{2}, at(1)));  // divergence!
  EXPECT_EQ(arbiter.mismatches(), 1u);
  EXPECT_EQ(flaggedSequence, 9u);
  EXPECT_EQ(arbiter.delivered(), 0u);
  // Late retransmission of a settled sequence is dropped.
  EXPECT_FALSE(arbiter.offer(0, 9, Words{1}, at(2)));
  EXPECT_EQ(arbiter.duplicatesDropped(), 1u);
}

TEST(DuplexArbiterCompare, TimeoutReleasesSingleSource) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::CompareAndFlag, Duration::milliseconds(5)};
  EXPECT_FALSE(arbiter.offer(0, 3, Words{42}, at(0)));
  EXPECT_TRUE(arbiter.poll(at(4)).empty());  // window not elapsed
  const auto released = arbiter.poll(at(5));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], (std::vector<std::uint32_t>{42}));
  EXPECT_EQ(arbiter.singleSourceDeliveries(), 1u);
  // The partner's very late copy is now a duplicate.
  EXPECT_FALSE(arbiter.offer(1, 3, Words{42}, at(6)));
}

TEST(DuplexArbiterCompare, SameReplicaRetransmissionIsNotAMatch) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::CompareAndFlag};
  EXPECT_FALSE(arbiter.offer(0, 4, Words{1}, at(0)));
  EXPECT_FALSE(arbiter.offer(0, 4, Words{1}, at(1)));  // same source again
  EXPECT_EQ(arbiter.duplicatesDropped(), 1u);
  // The genuine partner copy still completes the pair.
  EXPECT_TRUE(arbiter.offer(1, 4, Words{1}, at(2)));
}

TEST(DuplexArbiter, RejectsBadArguments) {
  EXPECT_THROW(DuplexArbiter(DuplexArbiter::Policy::FirstValid, Duration{}),
               std::invalid_argument);
  DuplexArbiter arbiter{DuplexArbiter::Policy::FirstValid};
  EXPECT_THROW((void)arbiter.offer(2, 0, Words{}, at(0)), std::invalid_argument);
}

TEST(DuplexArbiterCompare, InterleavedSequencesKeptApart) {
  DuplexArbiter arbiter{DuplexArbiter::Policy::CompareAndFlag};
  EXPECT_FALSE(arbiter.offer(0, 1, Words{1}, at(0)));
  EXPECT_FALSE(arbiter.offer(0, 2, Words{2}, at(0)));
  EXPECT_TRUE(arbiter.offer(1, 2, Words{2}, at(1)));
  EXPECT_TRUE(arbiter.offer(1, 1, Words{1}, at(1)));
  EXPECT_EQ(arbiter.delivered(), 2u);
}

}  // namespace
}  // namespace nlft::tem
