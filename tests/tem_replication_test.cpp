#include "core/replication.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/state_hash.hpp"

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

// Sequences that arrive late, early, twice and far apart: every answer,
// both counters and the digest of the settled set match a std::set model,
// whichever path (append or ordered insert) an offer takes.
TEST(DuplexArbiterFirstValid, OutOfOrderAndDuplicateOffersMatchSetModel) {
  const std::vector<std::uint64_t> offers{5, 5, 6, 3, 7, 3, 6, 0, 9, 8, 8, 1, 9, 100,
                                          2, 99, 100, 4, 0, 101, 50, 101, 50, 7};
  DuplexArbiter arbiter;
  std::set<std::uint64_t> model;
  std::uint64_t duplicates = 0;
  for (const std::uint64_t sequence : offers) {
    SCOPED_TRACE(sequence);
    const bool first = model.insert(sequence).second;
    duplicates += first ? 0 : 1;
    EXPECT_EQ(arbiter.offer(sequence), first);
  }
  EXPECT_EQ(arbiter.delivered(), model.size());
  EXPECT_EQ(arbiter.duplicatesDropped(), duplicates);
  util::StateHash digest;
  for (const std::uint64_t sequence : model) digest.u64(sequence);
  EXPECT_EQ(arbiter.stateDigest(), digest.finish());
}

}  // namespace
}  // namespace nlft::tem
