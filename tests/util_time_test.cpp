#include "util/time.hpp"

#include <gtest/gtest.h>

namespace nlft::util {
namespace {

TEST(Duration, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::seconds(2), Duration::milliseconds(2000));
  EXPECT_EQ(Duration::milliseconds(3), Duration::microseconds(3000));
  EXPECT_EQ(Duration::seconds(1).us(), 1'000'000);
}

TEST(Duration, ArithmeticIsClosed) {
  const auto a = Duration::milliseconds(10);
  const auto b = Duration::milliseconds(4);
  EXPECT_EQ((a + b).us(), 14'000);
  EXPECT_EQ((a - b).us(), 6'000);
  EXPECT_EQ((a * 3).us(), 30'000);
  EXPECT_EQ(a / b, 2);  // floor division
}

TEST(Duration, NegativeDurationsRepresentable) {
  const auto d = Duration::milliseconds(1) - Duration::milliseconds(5);
  EXPECT_LT(d, Duration{});
  EXPECT_EQ(d.us(), -4000);
}

TEST(Duration, Ordering) {
  EXPECT_LT(Duration::microseconds(999), Duration::milliseconds(1));
  EXPECT_GT(Duration::seconds(1), Duration::milliseconds(999));
}

TEST(SimTime, AbsoluteArithmetic) {
  const SimTime t0 = SimTime::zero();
  const SimTime t1 = t0 + Duration::milliseconds(5);
  EXPECT_EQ((t1 - t0).us(), 5000);
  EXPECT_EQ((t1 - Duration::milliseconds(2)).us(), 3000);
  EXPECT_LT(t0, t1);
}

TEST(SimTime, FromUsRoundTrips) {
  EXPECT_EQ(SimTime::fromUs(123456).us(), 123456);
  EXPECT_DOUBLE_EQ(SimTime::fromUs(2'500'000).toSeconds(), 2.5);
}

TEST(Rates, RatePerHourFromSeconds) {
  EXPECT_DOUBLE_EQ(ratePerHourFromSeconds(3.0), 1200.0);   // mu_R of the paper
  EXPECT_DOUBLE_EQ(ratePerHourFromSeconds(1.6), 2250.0);   // mu_OM of the paper
}

}  // namespace
}  // namespace nlft::util
