#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace nlft::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1{7};
  Rng parent2{7};
  Rng childA = parent1.fork(1);
  Rng childB = parent2.fork(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(childA.next(), childB.next());

  Rng parent3{7};
  Rng other = parent3.fork(2);
  int equal = 0;
  Rng childC = Rng{7}.fork(1);
  for (int i = 0; i < 64; ++i) equal += childC.next() == other.next();
  EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng{4};
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntUnbiasedOverSmallRange) {
  Rng rng{5};
  constexpr int n = 60000;
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < n; ++i) ++counts[rng.uniformInt(3)];
  for (int c : counts) EXPECT_NEAR(c, n / 3, n / 50);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng{6};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniformInt(7), 7u);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng{8};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng{9};
  constexpr int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.2);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.2, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{10};
  constexpr int n = 200000;
  const double rate = 4.0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(rate);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.005);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng{11};
  constexpr int n = 200000;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.03);
}

TEST(Splitmix64, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  // Regression anchors: these values must never change, or every seeded
  // experiment in the repo silently changes.
  EXPECT_EQ(first, 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(second, 0x6E789E6AA1B965F4ULL);
}

TEST(Rng, ForkSubStreamsArePairwiseUncorrelatedAcross1kForks) {
  // The fuzzer's reproducibility rests on fork(label) yielding streams that
  // behave independently: chunked campaigns map chunk index -> sub-stream,
  // and any cross-stream correlation would couple "independent" experiments
  // in every campaign in the repo. Pin it statistically: across 1000 forks
  // of one parent, the pairwise sample correlation of uniform01 draws must
  // stay inside the sampling noise of true independence.
  constexpr std::size_t kForks = 1000;
  constexpr std::size_t kSamples = 256;

  Rng parent{0xfeedfacecafebeefULL};
  std::vector<std::vector<double>> streams;
  streams.reserve(kForks);
  for (std::size_t f = 0; f < kForks; ++f) {
    Rng child = parent.fork(f);
    std::vector<double> samples(kSamples);
    for (double& x : samples) x = child.uniform01();
    streams.push_back(std::move(samples));
  }

  // Per-stream sanity: means near 1/2 (a biased child would poison every
  // campaign before correlation even matters).
  for (std::size_t f = 0; f < kForks; ++f) {
    double mean = 0.0;
    for (const double x : streams[f]) mean += x;
    mean /= static_cast<double>(kSamples);
    ASSERT_NEAR(mean, 0.5, 0.1) << "fork " << f;
  }

  // Pairwise correlations: adjacent labels, label 0 vs everything (the
  // parent state advances once per fork, so THESE are the structurally
  // riskiest pairs), plus a deterministic stride sample of distant pairs.
  const auto correlation = [&](std::size_t a, std::size_t b) {
    double meanA = 0.0;
    double meanB = 0.0;
    for (std::size_t i = 0; i < kSamples; ++i) {
      meanA += streams[a][i];
      meanB += streams[b][i];
    }
    meanA /= static_cast<double>(kSamples);
    meanB /= static_cast<double>(kSamples);
    double cov = 0.0;
    double varA = 0.0;
    double varB = 0.0;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const double da = streams[a][i] - meanA;
      const double db = streams[b][i] - meanB;
      cov += da * db;
      varA += da * da;
      varB += db * db;
    }
    return cov / std::sqrt(varA * varB);
  };

  // For n=256 iid samples, |r| ~ Normal(0, 1/sqrt(n)) => sd ~ 0.0625. A
  // 0.3 bound is ~4.8 sigma per pair; across ~3000 pairs the false-alarm
  // probability is below 1e-2, and a REAL dependence (shared sequence,
  // lagged copy) produces |r| near 1.
  constexpr double kBound = 0.3;
  double worst = 0.0;
  for (std::size_t f = 0; f + 1 < kForks; ++f) {
    worst = std::max(worst, std::abs(correlation(f, f + 1)));
  }
  for (std::size_t f = 1; f < kForks; ++f) {
    worst = std::max(worst, std::abs(correlation(0, f)));
  }
  for (std::size_t f = 3; f < kForks; f += 7) {
    const std::size_t other = (f * 37) % kForks;
    if (other == f) continue;  // e.g. f=250: 250*37 % 1000 == 250
    worst = std::max(worst, std::abs(correlation(f, other)));
  }
  EXPECT_LT(worst, kBound);

  // And forked streams must never simply shift the parent's sequence: a
  // child reproducing the parent's tail is the classic fork bug.
  Rng parent2{0xfeedfacecafebeefULL};
  Rng child = parent2.fork(0);
  std::vector<std::uint64_t> parentTail(64);
  for (std::uint64_t& v : parentTail) v = parent2.next();
  std::size_t collisions = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t draw = child.next();
    for (const std::uint64_t v : parentTail) collisions += draw == v ? 1 : 0;
  }
  EXPECT_EQ(collisions, 0u);
}

}  // namespace
}  // namespace nlft::util
