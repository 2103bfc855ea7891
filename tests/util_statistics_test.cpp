#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace nlft::util {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.confidenceHalfWidth(), 0.0);
}

TEST(RunningStats, ConfidenceIntervalCoversTrueMean) {
  // Property: a 95% CI over repeated experiments covers the true mean about
  // 95% of the time.
  Rng rng{21};
  int covered = 0;
  constexpr int experiments = 400;
  for (int e = 0; e < experiments; ++e) {
    RunningStats s;
    for (int i = 0; i < 200; ++i) s.add(rng.normal(10.0, 3.0));
    const double half = s.confidenceHalfWidth(0.95);
    covered += std::abs(s.mean() - 10.0) <= half;
  }
  EXPECT_GE(covered, experiments * 90 / 100);
  EXPECT_LE(covered, experiments * 99 / 100);
}

TEST(InverseNormalCdf, KnownQuantiles) {
  EXPECT_NEAR(inverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverseNormalCdf(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(inverseNormalCdf(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(inverseNormalCdf(0.8413447461), 1.0, 1e-5);
}

TEST(InverseNormalCdf, RejectsOutOfDomain) {
  EXPECT_THROW((void)inverseNormalCdf(0.0), std::invalid_argument);
  EXPECT_THROW((void)inverseNormalCdf(1.0), std::invalid_argument);
}

TEST(WilsonInterval, BracketsPointEstimate) {
  const auto est = wilsonInterval(90, 100);
  EXPECT_DOUBLE_EQ(est.proportion, 0.9);
  EXPECT_LT(est.low, 0.9);
  EXPECT_GT(est.high, 0.9);
  EXPECT_GT(est.low, 0.8);
  EXPECT_LT(est.high, 0.96);
}

TEST(WilsonInterval, ZeroTrialsIsEmptyEstimate) {
  const auto est = wilsonInterval(0, 0);
  EXPECT_EQ(est.trials, 0u);
  EXPECT_DOUBLE_EQ(est.proportion, 0.0);
}

TEST(WilsonInterval, ExtremesStayInUnitInterval) {
  const auto all = wilsonInterval(50, 50);
  EXPECT_LE(all.high, 1.0);
  EXPECT_LT(all.low, 1.0);
  const auto none = wilsonInterval(0, 50);
  EXPECT_GE(none.low, 0.0);
  EXPECT_GT(none.high, 0.0);
}

TEST(WilsonInterval, ShrinksWithSampleSize) {
  const auto small = wilsonInterval(9, 10);
  const auto large = wilsonInterval(900, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(RunningStats, MergeWithEmptyPartitionIsIdentity) {
  RunningStats filled;
  for (double x : {1.0, 2.0, 3.0}) filled.add(x);
  const RunningStats before = filled;

  RunningStats empty;
  filled.merge(empty);  // empty on the right: no-op
  EXPECT_EQ(filled.count(), before.count());
  EXPECT_DOUBLE_EQ(filled.mean(), before.mean());
  EXPECT_DOUBLE_EQ(filled.variance(), before.variance());

  RunningStats target;  // empty on the left: copies the argument
  target.merge(before);
  EXPECT_EQ(target.count(), 3u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
  EXPECT_DOUBLE_EQ(target.max(), 3.0);
}

TEST(RunningStats, MergeOfSingletonPartitionsEqualsSequential) {
  // Merging N single-sample accumulators in order must reproduce the
  // sequential fill — the degenerate chunking of a parallel campaign.
  Rng rng{7};
  RunningStats sequential;
  RunningStats merged;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sequential.add(x);
    RunningStats single;
    single.add(x);
    merged.merge(single);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), sequential.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(merged.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged.max(), sequential.max());
}

TEST(WilsonInterval, ZeroSuccessesHasZeroLowerBoundAndPositiveWidth) {
  for (std::size_t n : {1u, 10u, 1000u}) {
    const auto est = wilsonInterval(0, n);
    EXPECT_DOUBLE_EQ(est.proportion, 0.0);
    EXPECT_DOUBLE_EQ(est.low, 0.0);
    EXPECT_GT(est.high, 0.0) << "n=" << n;
    EXPECT_LT(est.high, 1.0) << "n=" << n;
  }
}

TEST(WilsonInterval, AllSuccessesHasUnitUpperBoundAndPositiveWidth) {
  for (std::size_t n : {1u, 10u, 1000u}) {
    const auto est = wilsonInterval(n, n);
    EXPECT_DOUBLE_EQ(est.proportion, 1.0);
    EXPECT_DOUBLE_EQ(est.high, 1.0);
    EXPECT_LT(est.low, 1.0) << "n=" << n;
    EXPECT_GT(est.low, 0.0) << "n=" << n;
  }
}

TEST(WeightedStats, UnitWeightsMatchRunningStats) {
  Rng rng{11};
  RunningStats plain;
  WeightedStats weighted;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(0.0, 1.0);
    plain.add(x);
    weighted.add(x, 1.0);
  }
  EXPECT_EQ(weighted.count(), plain.count());
  EXPECT_NEAR(weighted.mean(), plain.mean(), 1e-12);
  EXPECT_DOUBLE_EQ(weighted.sumWeights(), 500.0);
  EXPECT_DOUBLE_EQ(weighted.effectiveSampleSize(), 500.0);
  EXPECT_DOUBLE_EQ(weighted.weightCv(), 0.0);
}

TEST(WeightedStats, WeightedMeanAndVarianceAreExactOnSmallCase) {
  WeightedStats s;
  s.add(1.0, 1.0);
  s.add(3.0, 3.0);
  // mean = (1*1 + 3*3)/4 = 2.5; population variance =
  // (1*(1-2.5)^2 + 3*(3-2.5)^2)/4 = (2.25 + 0.75)/4 = 0.75.
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 0.75, 1e-12);
  // ESS = (Σw)²/Σw² = 16/10 = 1.6.
  EXPECT_NEAR(s.effectiveSampleSize(), 1.6, 1e-12);
}

TEST(WeightedStats, ZeroWeightSamplesCountButCarryNoMass) {
  WeightedStats s;
  s.add(100.0, 0.0);
  s.add(2.0, 1.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.sumWeights(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);  // min/max see every draw
}

TEST(WeightedStats, RejectsNegativeWeight) {
  WeightedStats s;
  EXPECT_THROW(s.add(1.0, -0.5), std::invalid_argument);
}

TEST(WeightedStats, MergeAssociativityPropertySweep) {
  // Property sweep: for random data and random 3-way partitions,
  // (A⊕B)⊕C and A⊕(B⊕C) and the sequential fill agree. This is the
  // contract the chunk-order merge of parallel importance-sampling
  // campaigns relies on.
  Rng rng{33};
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 3 + rng.uniformInt(40);
    std::vector<double> xs(n);
    std::vector<double> ws(n);
    WeightedStats sequential;
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = rng.normal(0.0, 2.0);
      ws[i] = rng.uniform01() < 0.1 ? 0.0 : rng.uniform(0.0, 4.0);
      sequential.add(xs[i], ws[i]);
    }
    const std::size_t cut1 = rng.uniformInt(n + 1);
    const std::size_t cut2 = cut1 + rng.uniformInt(n - cut1 + 1);
    WeightedStats a;
    WeightedStats b;
    WeightedStats c;
    for (std::size_t i = 0; i < cut1; ++i) a.add(xs[i], ws[i]);
    for (std::size_t i = cut1; i < cut2; ++i) b.add(xs[i], ws[i]);
    for (std::size_t i = cut2; i < n; ++i) c.add(xs[i], ws[i]);

    WeightedStats leftAssoc = a;
    leftAssoc.merge(b);
    leftAssoc.merge(c);
    WeightedStats bc = b;
    bc.merge(c);
    WeightedStats rightAssoc = a;
    rightAssoc.merge(bc);

    for (const WeightedStats* s : {&leftAssoc, &rightAssoc}) {
      EXPECT_EQ(s->count(), sequential.count());
      EXPECT_NEAR(s->sumWeights(), sequential.sumWeights(), 1e-9);
      EXPECT_DOUBLE_EQ(s->sumSquaredWeights(), sequential.sumSquaredWeights());
      EXPECT_NEAR(s->mean(), sequential.mean(), 1e-9);
      EXPECT_NEAR(s->variance(), sequential.variance(), 1e-9);
      EXPECT_DOUBLE_EQ(s->min(), sequential.min());
      EXPECT_DOUBLE_EQ(s->max(), sequential.max());
    }
  }
}

TEST(StratifiedProportion, SingleStratumMatchesNormalApproximation) {
  const auto est = stratifiedProportion({{1.0, 50, 100}});
  EXPECT_DOUBLE_EQ(est.proportion, 0.5);
  EXPECT_EQ(est.trials, 100u);
  EXPECT_EQ(est.emptyStrata, 0u);
  // z * sqrt(p̃(1-p̃)/n) with p̃ ≈ 0.5: about 0.098.
  EXPECT_NEAR(est.halfWidth, 0.098, 0.004);
}

TEST(StratifiedProportion, CombinesStrataByWeight) {
  // Stratum A (weight .8): p=0.1. Stratum B (weight .2): p=0.9.
  const auto est = stratifiedProportion({{0.8, 10, 100}, {0.2, 90, 100}});
  EXPECT_NEAR(est.proportion, 0.8 * 0.1 + 0.2 * 0.9, 1e-12);
  EXPECT_GT(est.halfWidth, 0.0);
  EXPECT_GE(est.low, 0.0);
  EXPECT_LE(est.high, 1.0);
}

TEST(StratifiedProportion, DegenerateStrataKeepPositiveWidth) {
  const auto est = stratifiedProportion({{0.5, 0, 40}, {0.5, 40, 40}});
  EXPECT_DOUBLE_EQ(est.proportion, 0.5);
  EXPECT_GT(est.halfWidth, 0.0);
}

TEST(StratifiedProportion, FlagsEmptyStrata) {
  const auto est = stratifiedProportion({{0.5, 5, 10}, {0.5, 0, 0}});
  EXPECT_EQ(est.emptyStrata, 1u);
  EXPECT_THROW((void)stratifiedProportion({{-0.1, 0, 1}}), std::invalid_argument);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h{0.0, 10.0, 5};
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 4
  h.add(-3.0);   // clamps to bin 0
  h.add(42.0);   // clamps to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.binCount(0), 2u);
  EXPECT_EQ(h.binCount(2), 1u);
  EXPECT_EQ(h.binCount(4), 2u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nlft::util
