#include "core/replication.hpp"

#include <gtest/gtest.h>

namespace nlft::tem {
namespace {

TEST(DuplexArbiterFirstValid, DeliversFirstDropsSecond) {
  DuplexArbiter arbiter;
  EXPECT_TRUE(arbiter.offer(1));
  EXPECT_FALSE(arbiter.offer(1));
  EXPECT_EQ(arbiter.delivered(), 1u);
  EXPECT_EQ(arbiter.duplicatesDropped(), 1u);
}

TEST(DuplexArbiterFirstValid, IndependentSequencesAllDeliver) {
  DuplexArbiter arbiter;
  for (std::uint64_t sequence = 0; sequence < 5; ++sequence) {
    EXPECT_TRUE(arbiter.offer(sequence));
  }
  EXPECT_EQ(arbiter.delivered(), 5u);
}

}  // namespace
}  // namespace nlft::tem
