// Streaming statistics and confidence intervals for Monte-Carlo estimation
// and fault-injection campaigns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nlft::util {

/// Welford streaming mean/variance accumulator. Mergeable: independent
/// accumulators (e.g. one per worker or chunk of a parallel campaign) can be
/// combined with merge(); merging in a fixed order yields a deterministic
/// result regardless of which thread filled which accumulator.
class RunningStats {
 public:
  void add(double x);

  /// Folds another accumulator into this one (Chan et al. pairwise update).
  /// Exact for count/min/max; mean and variance agree with the sequential
  /// equivalent up to floating-point rounding.
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Half-width of the normal-approximation confidence interval for the mean.
  [[nodiscard]] double confidenceHalfWidth(double confidence = 0.95) const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Weighted streaming mean/variance accumulator (West's incremental update)
/// for likelihood-ratio-weighted estimators (importance sampling). Mergeable
/// under the same contract as RunningStats: per-chunk accumulators merged in
/// chunk order give a deterministic result at every thread count.
///
/// Beyond the weighted moments it tracks the raw weight sums Σw and Σw², so
/// estimator diagnostics — effective sample size, weight variance — come out
/// of the same accumulator (docs/ESTIMATORS.md).
class WeightedStats {
 public:
  /// Adds sample `x` with weight `w >= 0`. Zero-weight samples count toward
  /// count() (they are real draws) but not toward the moments.
  void add(double x, double w);

  /// Folds another accumulator into this one (weighted Chan combination).
  /// Exact for count/Σw/Σw²/min/max; mean and M2 agree with the sequential
  /// equivalent up to floating-point rounding.
  void merge(const WeightedStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double sumWeights() const { return sumW_; }
  [[nodiscard]] double sumSquaredWeights() const { return sumW2_; }
  /// Weighted mean Σwx / Σw (0 while Σw == 0).
  [[nodiscard]] double mean() const;
  /// Weighted population variance Σw(x - mean)² / Σw (0 while Σw == 0).
  [[nodiscard]] double variance() const;
  /// Kish effective sample size (Σw)² / Σw² — how many unweighted samples
  /// the weighted set is "worth". Equals count() iff all weights are equal.
  [[nodiscard]] double effectiveSampleSize() const;
  /// Coefficient of variation of the weights, sqrt(n·Σw²/(Σw)² - 1).
  /// Large values flag a poorly matched importance-sampling proposal.
  [[nodiscard]] double weightCv() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double sumW_ = 0.0;
  double sumW2_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Estimate of a binomial proportion with a Wilson score interval.
struct ProportionEstimate {
  double proportion = 0.0;
  double low = 0.0;
  double high = 0.0;
  std::size_t successes = 0;
  std::size_t trials = 0;
};

/// Wilson score interval for `successes` out of `trials` at `confidence`.
[[nodiscard]] ProportionEstimate wilsonInterval(std::size_t successes, std::size_t trials,
                                                double confidence = 0.95);

/// Inverse standard normal CDF (Acklam's approximation, ~1e-9 accuracy).
[[nodiscard]] double inverseNormalCdf(double p);

/// One stratum's contribution to a post-stratified proportion estimate:
/// `weight` is the stratum's share W_h of the nominal sampling distribution
/// (the W_h over all strata must sum to 1), successes/trials the outcome
/// counts observed inside the stratum.
struct StratumProportion {
  double weight = 0.0;
  std::size_t successes = 0;
  std::size_t trials = 0;
};

/// Post-stratified combination p̂ = Σ W_h p̂_h with normal-approximation
/// interval from Var = Σ W_h² p̃_h(1-p̃_h)/n_h. The per-stratum variance
/// uses the Agresti-Coull shrunk proportion p̃_h = (s+z²/2)/(n+z²), so
/// all-success / all-failure strata keep a nonzero width instead of
/// collapsing the interval. Strata with zero trials contribute their W_h
/// times 0 to the point estimate and are flagged via `emptyStrata`
/// (allocators should guarantee n_h >= 1; see docs/ESTIMATORS.md).
struct StratifiedProportionEstimate {
  double proportion = 0.0;
  double low = 0.0;
  double high = 0.0;
  double halfWidth = 0.0;
  std::size_t trials = 0;
  std::size_t emptyStrata = 0;
};

[[nodiscard]] StratifiedProportionEstimate stratifiedProportion(
    const std::vector<StratumProportion>& strata, double confidence = 0.95);

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin. Used for repair-time and response-time distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t binCount(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace nlft::util
