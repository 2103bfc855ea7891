// Importance-sampling (IS) estimators for rare-event reliability questions.
//
// Plain Monte-Carlo needs ~100/p trials to resolve a failure probability p;
// for a one-year mission of the paper's node (lambda ~ 2e-4/h, coverage
// 0.99) interesting events can be orders of magnitude rarer than that. The
// IS path simulates the SAME lifetime model (lifetime_model.hpp) under a
// biased measure that makes failures common — faults arrive faster, the
// coverage draw fails more often — and multiplies every trial's outcome by
// the likelihood ratio w = dP_nominal/dP_biased of the draws it consumed, so
// the weighted estimator remains unbiased for the nominal model. The full
// derivation, diagnostics and determinism contract live in
// docs/ESTIMATORS.md.
//
// Determinism: trials are chunked exactly like estimateReliability (per-chunk
// RNG sub-streams, chunk-order merge), so results are bit-identical at every
// thread count. With both boosts at 1.0 the biased draws consume the RNG
// stream identically to the nominal path and every weight is EXACTLY 1.0 —
// tests assert the estimates then coincide with plain Monte-Carlo bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sysmodel/montecarlo.hpp"

namespace nlft::sys {

/// How far to tilt the sampling distribution toward failure. Boosts must be
/// positive; 1.0 leaves the corresponding draw unbiased.
struct ImportanceSamplingConfig {
  /// Multiplies the fault inter-arrival rate (lambda -> lambda * boost).
  double arrivalBoost = 10.0;
  /// Multiplies the uncovered-error probability (1-c -> min((1-c)*boost,
  /// 0.5), never below the nominal value). 1.0 leaves coverage unbiased.
  double uncoveredBoost = 1.0;
};

/// One biased lifetime draw: the (possibly censored) failure time plus the
/// likelihood-ratio weight of the path that produced it.
struct BiasedLifetimeSample {
  double failedAt = 0.0;  ///< hours; >= horizon means survived the horizon
  double weight = 1.0;    ///< dP_nominal / dP_biased over the consumed draws
};

[[nodiscard]] BiasedLifetimeSample simulateLifetimeBiased(const SystemSpec& spec,
                                                          double horizonHours, util::Rng& rng,
                                                          const ImportanceSamplingConfig& bias);

struct IsCheckpointEstimate {
  double tHours = 0.0;
  /// Unbiased IS estimate of the failure probability F(t): mean of w * 1[T <= t].
  double failureProbability = 0.0;
  double reliability = 0.0;  ///< 1 - failureProbability
  /// Normal-approximation 95% half-width of the failureProbability estimate.
  double halfWidth = 0.0;
};

struct IsReliabilityResult {
  std::vector<IsCheckpointEstimate> checkpoints;
  std::size_t trials = 0;  ///< trials the estimates are based on
  bool stoppedEarly = false;
  /// Weighted accumulator over the horizon-failure indicator: mean() is the
  /// self-normalized alternative estimate, effectiveSampleSize() and
  /// weightCv() are the proposal-quality diagnostics (docs/ESTIMATORS.md).
  util::WeightedStats weightDiagnostics;
};

/// IS counterpart of estimateReliability: same checkpoints, same chunked
/// determinism contract, same PrecisionTarget early stopping (applied to the
/// IS half-widths). Metrics (when config.metrics is set) land under
/// "mc.is.*": trial counters plus ESS and weight-CV gauges.
[[nodiscard]] IsReliabilityResult estimateReliabilityIs(const SystemSpec& spec,
                                                        const MonteCarloConfig& config,
                                                        const ImportanceSamplingConfig& bias);

}  // namespace nlft::sys
