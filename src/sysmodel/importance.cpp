#include "sysmodel/importance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/chunked_campaign.hpp"
#include "sysmodel/lifetime_model.hpp"
#include "util/time.hpp"

namespace nlft::sys {

namespace {

void validateBias(const ImportanceSamplingConfig& bias) {
  if (!(bias.arrivalBoost > 0.0) || !(bias.uncoveredBoost > 0.0))
    throw std::invalid_argument("ImportanceSamplingConfig: boosts must be positive");
}

/// Draw policy that tilts fault arrivals and the coverage coin toward
/// failure while accumulating the log likelihood ratio of every biased draw.
/// Unbiased sites (boost == 1.0) call the SAME util::Rng method as the
/// nominal policy and leave logWeight untouched, so the identity
/// configuration reproduces plain Monte-Carlo bit for bit with weight
/// exactly 1.0.
struct BiasedDraws {
  util::Rng& rng;
  double arrivalBoost;
  double uncoveredBoost;
  double logWeight = 0.0;

  double faultArrival(double lambda, double remainingHours) {
    if (arrivalBoost == 1.0) return rng.exponential(lambda);
    const double biased = lambda * arrivalBoost;
    const double x = rng.exponential(biased);
    if (x >= remainingHours) {
      // Censored draw: the arrival lands past the horizon, where the event
      // loop only ever uses the fact that no fault fired in time. Weight by
      // the survival ratio P[X > r] / P'[X > r] = exp((l' - l) r), which is
      // bounded — the raw density ratio's tail diverges whenever l' > l and
      // would sink the effective sample size (docs/ESTIMATORS.md).
      logWeight += (biased - lambda) * remainingHours;
    } else {
      // Exp likelihood ratio: (l/l') * exp(-(l - l') x).
      logWeight += std::log(lambda / biased) - (lambda - biased) * x;
    }
    return x;
  }

  double repairDelay(double rate) { return rng.exponential(rate); }

  bool permanentSplit(double pPermanent) { return rng.bernoulli(pPermanent); }

  bool covered(double coverage) {
    const double q = 1.0 - coverage;  // nominal uncovered probability
    // Bias only genuinely rare coverage failures; cap at 1/2 so the covered
    // branch keeps positive biased mass (absolute continuity both ways).
    const double qBiased =
        q > 0.0 && q < 0.5 ? std::max(q, std::min(q * uncoveredBoost, 0.5)) : q;
    if (qBiased == q) return rng.bernoulli(coverage);
    const bool uncovered = rng.bernoulli(qBiased);
    logWeight += uncovered ? std::log(q / qBiased) : std::log((1.0 - q) / (1.0 - qBiased));
    return !uncovered;
  }

  double maskSplit() { return rng.uniform01(); }

  bool correlatedHit(double fraction) { return rng.bernoulli(fraction); }
};

}  // namespace

BiasedLifetimeSample simulateLifetimeBiased(const SystemSpec& spec, double horizonHours,
                                            util::Rng& rng,
                                            const ImportanceSamplingConfig& bias) {
  validateBias(bias);
  BiasedDraws draws{rng, bias.arrivalBoost, bias.uncoveredBoost};
  BiasedLifetimeSample sample;
  sample.failedAt = detail::simulateLifetimeImpl(spec, horizonHours, draws);
  sample.weight = draws.logWeight == 0.0 ? 1.0 : std::exp(draws.logWeight);
  return sample;
}

namespace {

/// Per-chunk accumulator for estimateReliabilityIs, mergeable in chunk order.
struct IsChunk {
  std::size_t experiments = 0;
  std::vector<util::RunningStats> weightedFailure;  ///< per checkpoint, samples w * 1[fail]
  util::WeightedStats diagnostics;                  ///< x = horizon indicator, w = weight

  void merge(const IsChunk& other) {
    experiments += other.experiments;
    diagnostics.merge(other.diagnostics);
    if (other.weightedFailure.empty()) return;
    if (weightedFailure.empty()) weightedFailure.resize(other.weightedFailure.size());
    for (std::size_t c = 0; c < weightedFailure.size(); ++c)
      weightedFailure[c].merge(other.weightedFailure[c]);
  }
};

}  // namespace

IsReliabilityResult estimateReliabilityIs(const SystemSpec& spec, const MonteCarloConfig& config,
                                          const ImportanceSamplingConfig& bias) {
  if (config.checkpointHours.empty())
    throw std::invalid_argument("estimateReliabilityIs: no checkpoints");
  validateBias(bias);
  const util::MonotonicStopwatch clock;
  const double horizon =
      *std::max_element(config.checkpointHours.begin(), config.checkpointHours.end());
  const std::size_t checkpointCount = config.checkpointHours.size();

  exec::EarlyStopRule<IsChunk> rule;
  if (config.target.ciHalfWidth > 0.0) {
    rule.minItems = std::max<std::size_t>(config.target.minTrials, 1);
    rule.shouldStop = [&config](const IsChunk& prefix, std::size_t) {
      if (prefix.weightedFailure.empty()) return false;
      for (const util::RunningStats& stats : prefix.weightedFailure) {
        if (stats.confidenceHalfWidth() > config.target.ciHalfWidth) return false;
      }
      return true;
    };
  }

  const auto run = exec::runChunkedCampaign<IsChunk>(
      config.trials, config.seed, config.parallelism,
      [&](util::Rng& rng, std::size_t count, IsChunk& acc) {
        acc.weightedFailure.resize(checkpointCount);
        for (std::size_t i = 0; i < count; ++i) {
          const BiasedLifetimeSample sample = simulateLifetimeBiased(spec, horizon, rng, bias);
          for (std::size_t c = 0; c < checkpointCount; ++c) {
            const bool failed = sample.failedAt < config.checkpointHours[c];
            acc.weightedFailure[c].add(failed ? sample.weight : 0.0);
          }
          acc.diagnostics.add(sample.failedAt < horizon ? 1.0 : 0.0, sample.weight);
        }
      },
      rule, config.onProgress);

  IsReliabilityResult result;
  result.trials = run.itemsUsed;
  result.stoppedEarly = run.stoppedEarly;
  result.weightDiagnostics = run.stats.diagnostics;
  for (std::size_t c = 0; c < checkpointCount; ++c) {
    IsCheckpointEstimate estimate;
    estimate.tHours = config.checkpointHours[c];
    if (!run.stats.weightedFailure.empty()) {
      const util::RunningStats& stats = run.stats.weightedFailure[c];
      estimate.failureProbability = stats.mean();
      estimate.halfWidth = stats.confidenceHalfWidth();
    }
    estimate.reliability = 1.0 - estimate.failureProbability;
    result.checkpoints.push_back(estimate);
  }
  if (config.metrics != nullptr) {
    config.metrics->add("mc.is.estimations");
    config.metrics->add("mc.is.trials", result.trials);
    if (result.stoppedEarly) config.metrics->add("mc.is.early_stopped");
    config.metrics->gaugeMax("mc.is.ess", result.weightDiagnostics.effectiveSampleSize());
    config.metrics->gaugeMax("mc.is.weight_cv", result.weightDiagnostics.weightCv());
    const double elapsed = clock.elapsedSeconds();
    config.metrics->gaugeMax("wall.mc.is.seconds", elapsed);
    if (elapsed > 0.0) {
      config.metrics->gaugeMax("wall.mc.is.samples_per_second",
                               static_cast<double>(result.trials) / elapsed);
    }
  }
  return result;
}

}  // namespace nlft::sys
