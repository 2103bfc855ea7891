#include "util/statistics.hpp"

#include <cmath>
#include <stdexcept>

namespace nlft::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::confidenceHalfWidth(double confidence) const {
  if (count_ < 2) return 0.0;
  const double z = inverseNormalCdf(0.5 + confidence / 2.0);
  return z * stddev() / std::sqrt(static_cast<double>(count_));
}

void WeightedStats::add(double x, double w) {
  if (w < 0.0) throw std::invalid_argument("WeightedStats::add: negative weight");
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sumW2_ += w * w;
  if (w == 0.0) return;  // a real draw, but no mass in the moments
  sumW_ += w;
  const double delta = x - mean_;
  mean_ += delta * w / sumW_;
  m2_ += w * delta * (x - mean_);
}

void WeightedStats::merge(const WeightedStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  count_ += other.count_;
  sumW2_ += other.sumW2_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (other.sumW_ == 0.0) return;
  if (sumW_ == 0.0) {
    sumW_ = other.sumW_;
    mean_ = other.mean_;
    m2_ = other.m2_;
    return;
  }
  const double w1 = sumW_;
  const double w2 = other.sumW_;
  const double delta = other.mean_ - mean_;
  const double w = w1 + w2;
  mean_ += delta * w2 / w;
  m2_ += other.m2_ + delta * delta * w1 * w2 / w;
  sumW_ = w;
}

double WeightedStats::mean() const { return sumW_ > 0.0 ? mean_ : 0.0; }

double WeightedStats::variance() const { return sumW_ > 0.0 ? m2_ / sumW_ : 0.0; }

double WeightedStats::effectiveSampleSize() const {
  return sumW2_ > 0.0 ? sumW_ * sumW_ / sumW2_ : 0.0;
}

double WeightedStats::weightCv() const {
  if (count_ == 0 || sumW_ <= 0.0) return 0.0;
  const double n = static_cast<double>(count_);
  const double ratio = n * sumW2_ / (sumW_ * sumW_) - 1.0;
  return ratio > 0.0 ? std::sqrt(ratio) : 0.0;
}

StratifiedProportionEstimate stratifiedProportion(const std::vector<StratumProportion>& strata,
                                                  double confidence) {
  StratifiedProportionEstimate est;
  const double z = inverseNormalCdf(0.5 + confidence / 2.0);
  const double z2 = z * z;
  double variance = 0.0;
  for (const StratumProportion& stratum : strata) {
    if (stratum.weight < 0.0)
      throw std::invalid_argument("stratifiedProportion: negative stratum weight");
    est.trials += stratum.trials;
    if (stratum.trials == 0) {
      if (stratum.weight > 0.0) ++est.emptyStrata;
      continue;
    }
    const double n = static_cast<double>(stratum.trials);
    const double phat = static_cast<double>(stratum.successes) / n;
    est.proportion += stratum.weight * phat;
    // Agresti-Coull shrinkage for the variance term only: keeps degenerate
    // strata (0 or n successes) from zeroing their width contribution.
    const double ptilde = (static_cast<double>(stratum.successes) + z2 / 2.0) / (n + z2);
    variance += stratum.weight * stratum.weight * ptilde * (1.0 - ptilde) / n;
  }
  est.halfWidth = z * std::sqrt(variance);
  est.low = std::max(0.0, est.proportion - est.halfWidth);
  est.high = std::min(1.0, est.proportion + est.halfWidth);
  return est;
}

double inverseNormalCdf(double p) {
  if (p <= 0.0 || p >= 1.0) throw std::invalid_argument("inverseNormalCdf: p outside (0,1)");

  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;

  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

ProportionEstimate wilsonInterval(std::size_t successes, std::size_t trials, double confidence) {
  ProportionEstimate est;
  est.successes = successes;
  est.trials = trials;
  if (trials == 0) return est;

  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z = inverseNormalCdf(0.5 + confidence / 2.0);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double half = z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;

  est.proportion = phat;
  est.low = std::max(0.0, center - half);
  est.high = std::min(1.0, center + half);
  // At the degenerate ends center∓half is 0 or 1 exactly in real arithmetic
  // (center = half = (z²/2n)/denom when s = 0); pin the bound so rounding
  // residue (~1e-19) cannot leak a spurious open interval.
  if (successes == 0) est.low = 0.0;
  if (successes == trials) est.high = 1.0;
  return est;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_{lo}, hi_{hi}, counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument("Histogram: bad range or bin count");
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
  bin = std::max<std::ptrdiff_t>(0, std::min<std::ptrdiff_t>(bin, static_cast<std::ptrdiff_t>(counts_.size()) - 1));
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

}  // namespace nlft::util
