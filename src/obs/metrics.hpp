// Thread-safe metrics registry: named counters, gauges and fixed-bucket
// histograms, with chunk-order merge() for the parallel campaign reducers.
//
// Merge algebra (what makes per-chunk registries equal the single-threaded
// registry for ANY shard split):
//   * counters   add            — associative and commutative;
//   * gauges     take the max   — "peak observed" semantics (queue depth,
//                                 samples/s); associative and commutative;
//   * histograms add bin-wise   — specs must match; associative/commutative.
// All three operations are exact integer/IEEE-max arithmetic, so merging the
// same multiset of updates in any order or grouping is BIT-IDENTICAL to
// applying them serially. tests/obs_metrics_test.cpp property-checks this
// over randomized interleavings and shard splits. Histograms deliberately
// carry NO floating-point sum accumulator: double addition is not
// associative (regrouping drifts the last ulp), which would silently break
// the bit-identity guarantee the parallel campaign reducers rely on.
//
// Golden fencing: metric names under the "wall." prefix carry wall-clock
// derived values (chunk timings, throughput). They are excluded from
// goldenJson()/goldenFingerprint(), which is what the bit-identity tests and
// run-report reconciliation compare — everything else must be deterministic
// for a fixed seed, at every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace nlft::obs {

/// Bucket layout of a fixed-width histogram over [lo, hi); samples outside
/// the range clamp to the first/last bucket (the total still increments).
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t buckets = 10;
  friend bool operator==(const HistogramSpec&, const HistogramSpec&) = default;

  /// The bucket `value` falls into, clamped to the first and last bucket.
  /// Registry::observe bins with it, and so does a caller that counts
  /// samples itself before handing them over with Registry::observeCounts.
  /// Requires a valid spec (lo < hi, buckets > 0) and a value that is not
  /// NaN; observe refuses both.
  [[nodiscard]] std::size_t bucket(double value) const {
    const double clamped = std::min(std::max(value, lo), hi);
    const double width = (hi - lo) / static_cast<double>(buckets);
    const std::size_t index = value < lo ? 0 : static_cast<std::size_t>((clamped - lo) / width);
    return std::min(index, buckets - 1);
  }
};

/// Snapshot of one histogram (returned by Registry::histogram()).
struct HistogramSnapshot {
  HistogramSpec spec;
  std::vector<std::uint64_t> counts;  ///< size == spec.buckets
  std::uint64_t total = 0;            ///< sum of counts
};

/// Prefix fencing wall-clock-derived (non-golden) metrics.
inline constexpr const char* kNonGoldenPrefix = "wall.";

[[nodiscard]] bool isNonGoldenMetric(const std::string& name);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry& other);
  Registry& operator=(const Registry& other);
  Registry(Registry&& other) noexcept;
  Registry& operator=(Registry&& other) noexcept;

  /// Adds `delta` to the named counter (created at 0 on first use). Only a
  /// new counter copies its name.
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Raises the named gauge to at least `value` (peak semantics; created at
  /// `value` on first use). A NaN value throws std::invalid_argument and
  /// changes nothing: the max of NaN and a number would depend on the order.
  void gaugeMax(const std::string& name, double value);

  /// Records `value` into the named histogram. The spec is fixed on first
  /// use; a later observe with a different spec throws std::invalid_argument,
  /// and so does a NaN value (which has no bucket), before any change.
  void observe(const std::string& name, const HistogramSpec& spec, double value);

  /// Adds samples that the caller binned itself with spec.bucket(): bucket
  /// b of the named histogram grows by counts[b], exactly as that many
  /// observe calls would grow it. `counts` must have spec.buckets entries;
  /// the spec rules are observe's.
  void observeCounts(const std::string& name, const HistogramSpec& spec,
                     std::span<const std::uint64_t> counts);

  [[nodiscard]] std::uint64_t count(const std::string& name) const;  ///< 0 if absent
  [[nodiscard]] double gauge(const std::string& name) const;         ///< 0.0 if absent
  [[nodiscard]] HistogramSnapshot histogram(const std::string& name) const;  ///< throws if absent

  /// Sorted counter names.
  [[nodiscard]] std::vector<std::string> counterNames() const;

  /// Folds `other` into this registry (counters add, gauges max, histograms
  /// add bin-wise; mismatched histogram specs throw).
  void merge(const Registry& other);

  /// Full JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  /// {...}}. Deterministic (sorted names).
  [[nodiscard]] JsonValue toJson() const;

  /// As toJson() but with every "wall."-prefixed metric removed — the
  /// deterministic subset that must be bit-identical across thread counts.
  [[nodiscard]] JsonValue goldenJson() const;

  /// dump() of goldenJson(): a comparable fingerprint string.
  [[nodiscard]] std::string goldenFingerprint() const;

 private:
  struct HistogramState {
    HistogramSpec spec;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
  };

  /// The named histogram, created with `spec` if it is new; throws on a spec
  /// mismatch. The caller holds `mutex_`.
  HistogramState& histogramLocked(const std::string& name, const HistogramSpec& spec);

  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramState> histograms_;
};

}  // namespace nlft::obs
