// Rare-event acceleration: how many samples the variance-reduction layer
// saves on the reliability questions plain Monte-Carlo answers worst.
//
// Part 1 — importance sampling (sysmodel): the probability that a DEGRADED
// NLFT system (central-unit duplex down to 1-of-2, wheel group 3-of-4)
// misses its dependability target within a short 48 h mission — the
// system-level analogue of a missed stop — is a few 1e-3. Plain MC burns
// ~100/p trials to see it at all; the importance-sampling path tilts fault
// arrivals and the coverage coin toward failure and reweights by the exact
// likelihood ratio (docs/ESTIMATORS.md). The bench reports both estimators
// at the SAME trial budget, the measured per-sample variance reduction, the
// projected samples-to-target-CI for each, and a sequential-early-stop run
// that halts at the target half-width. A determinism cross-check re-runs the
// IS estimate at 1 and 8 threads and verifies bit-identical results.
//
// Part 2 — stratified system campaign (faults): rare outcome classes of the
// closed-loop brake-by-wire campaign (missed stop, value failure) live in
// scenario cells the crude sampler visits by luck. The stratified campaign
// pins the budget across fault-class x node x injection-window strata and
// recombines post-stratified; the bench compares interval half-widths at the
// same budget.
//
// Results append to BENCH_rare_event.json. `--smoke` shrinks budgets for CI;
// any other argument exits 2 with the usage line.
#include <cmath>
#include <cstdio>
#include <optional>

#include "faults/system_campaign.hpp"
#include "flag_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sysmodel/importance.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/statistics.hpp"

using namespace nlft;

namespace {

/// Degraded-mode system: one CU channel and one wheel node already lost.
sys::SystemSpec degradedSpec() {
  sys::SystemSpec spec;
  spec.behavior = sys::NodeBehavior::Nlft;
  spec.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  return spec;
}

double zSquared() {
  const double z = util::inverseNormalCdf(0.975);
  return z * z;
}

/// Per-sample variance implied by a normal-approximation half-width at n.
double impliedVariance(double halfWidth, std::size_t n) {
  return halfWidth * halfWidth * static_cast<double>(n) / zSquared();
}

/// Trials needed for a target half-width given per-sample variance.
double samplesToTarget(double variancePerSample, double targetHalfWidth) {
  return zSquared() * variancePerSample / (targetHalfWidth * targetHalfWidth);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<bool> smokeFlag = cli::parseSmokeFlag(argc, argv, "rare_event_speedup");
  if (!smokeFlag) return 2;
  const bool smoke = *smokeFlag;

  obs::JsonValue report = obs::JsonValue::object();
  report.set("report", obs::JsonValue::string("rare_event_speedup"));
  report.set("smoke", obs::JsonValue::boolean(smoke));

  // ---- Part 1: importance sampling on the degraded-mode rare event ----
  const sys::SystemSpec spec = degradedSpec();
  const double horizonHours = 48.0;
  const std::size_t trials = smoke ? 6000 : 40000;

  sys::MonteCarloConfig config;
  config.trials = trials;
  config.seed = 41;
  config.checkpointHours = {horizonHours};
  config.parallelism.threads = 0;

  sys::ImportanceSamplingConfig bias;
  bias.arrivalBoost = 15.0;
  bias.uncoveredBoost = 5.0;

  std::printf("Rare event: degraded-mode system failure within %.0f h "
              "(CU 1-of-2, wheels 3-of-4, NLFT nodes)\n\n",
              horizonHours);

  const sys::MonteCarloResult plain = sys::estimateReliability(spec, config);
  const util::ProportionEstimate plainRel = plain.checkpoints[0].reliability;
  const double plainP = 1.0 - plainRel.proportion;
  const double plainHalfWidth = (plainRel.high - plainRel.low) / 2.0;

  const sys::IsReliabilityResult is = sys::estimateReliabilityIs(spec, config, bias);
  const sys::IsCheckpointEstimate& isEst = is.checkpoints[0];

  // Determinism cross-check: the IS estimate must be bit-identical at every
  // thread count (chunk-order merge; docs/ESTIMATORS.md).
  bool deterministic = true;
  for (unsigned threads : {1u, 8u}) {
    sys::MonteCarloConfig check = config;
    check.parallelism.threads = threads;
    const sys::IsReliabilityResult rerun = sys::estimateReliabilityIs(spec, check, bias);
    deterministic = deterministic &&
                    rerun.checkpoints[0].failureProbability == isEst.failureProbability &&
                    rerun.weightDiagnostics.sumWeights() == is.weightDiagnostics.sumWeights();
  }

  // Reference probability for the variance comparison: the IS estimate (far
  // tighter than plain MC here). Plain MC per-sample variance is p(1-p).
  const double pRef = isEst.failureProbability;
  const double plainVariance = pRef * (1.0 - pRef);
  const double isVariance = impliedVariance(isEst.halfWidth, is.trials);
  const double varianceReduction = isVariance > 0.0 ? plainVariance / isVariance : 0.0;
  const double targetHalfWidth = pRef / 5.0;  // 20% relative precision
  const double plainSamples = samplesToTarget(plainVariance, targetHalfWidth);
  const double isSamples = samplesToTarget(isVariance, targetHalfWidth);

  // Sequential early stopping: give the IS estimator the same budget and let
  // it halt at the target half-width on its own.
  sys::MonteCarloConfig stopConfig = config;
  stopConfig.target.ciHalfWidth = targetHalfWidth;
  stopConfig.target.minTrials = 500;
  const sys::IsReliabilityResult stopped = sys::estimateReliabilityIs(spec, stopConfig, bias);

  std::printf("%-28s %12s %14s %12s\n", "estimator", "trials", "P(fail)", "half-width");
  std::printf("%-28s %12zu %14.3e %12.3e\n", "plain Monte-Carlo", plain.trials, plainP,
              plainHalfWidth);
  std::printf("%-28s %12zu %14.3e %12.3e\n", "importance sampling", is.trials,
              isEst.failureProbability, isEst.halfWidth);
  std::printf("%-28s %12zu %14.3e %12.3e  (target %.3e, stopped %s)\n\n",
              "IS + sequential stop", stopped.trials, stopped.checkpoints[0].failureProbability,
              stopped.checkpoints[0].halfWidth, targetHalfWidth,
              stopped.stoppedEarly ? "early" : "at budget");
  std::printf("per-sample variance        plain %.3e vs IS %.3e  => %.1fx reduction\n",
              plainVariance, isVariance, varianceReduction);
  std::printf("samples to %.0f%% relative CI  plain %.0f vs IS %.0f\n",
              100.0 * targetHalfWidth / pRef, plainSamples, isSamples);
  std::printf("weight diagnostics         ESS %.0f / %zu, weight CV %.2f\n",
              is.weightDiagnostics.effectiveSampleSize(), is.trials,
              is.weightDiagnostics.weightCv());
  std::printf("thread determinism (1 vs 8) %s\n\n", deterministic ? "bit-identical" : "BROKEN");

  obs::JsonValue isReport = obs::JsonValue::object();
  isReport.set("workload", obs::JsonValue::string("degraded_missed_stop_48h"));
  isReport.set("trials", obs::JsonValue::integer(static_cast<std::int64_t>(trials)));
  isReport.set("plain_estimate", obs::JsonValue::number(plainP));
  isReport.set("plain_half_width", obs::JsonValue::number(plainHalfWidth));
  isReport.set("is_estimate", obs::JsonValue::number(isEst.failureProbability));
  isReport.set("is_half_width", obs::JsonValue::number(isEst.halfWidth));
  isReport.set("arrival_boost", obs::JsonValue::number(bias.arrivalBoost));
  isReport.set("uncovered_boost", obs::JsonValue::number(bias.uncoveredBoost));
  isReport.set("ess", obs::JsonValue::number(is.weightDiagnostics.effectiveSampleSize()));
  isReport.set("weight_cv", obs::JsonValue::number(is.weightDiagnostics.weightCv()));
  isReport.set("variance_reduction", obs::JsonValue::number(varianceReduction));
  isReport.set("target_half_width", obs::JsonValue::number(targetHalfWidth));
  isReport.set("samples_to_target_plain", obs::JsonValue::number(plainSamples));
  isReport.set("samples_to_target_is", obs::JsonValue::number(isSamples));
  isReport.set("early_stop_trials_used",
               obs::JsonValue::integer(static_cast<std::int64_t>(stopped.trials)));
  isReport.set("early_stop_budget", obs::JsonValue::integer(static_cast<std::int64_t>(trials)));
  isReport.set("threads_bit_identical", obs::JsonValue::boolean(deterministic));
  report.set("importance_sampling", std::move(isReport));

  // ---- Part 2: stratified vs crude system campaign ----
  fi::SystemCampaignConfig campaign;
  campaign.experiments = smoke ? 144 : 720;
  campaign.seed = 42;
  campaign.parallelism.threads = 0;

  std::printf("Stratified system campaign, %zu closed-loop stops "
              "(vs crude sampling at the same budget)\n",
              campaign.experiments);

  const fi::SystemCampaignStats crude = fi::runSystemCampaign(campaign);
  const fi::StratifiedCampaignResult stratified = fi::runStratifiedSystemCampaign(campaign, 3);

  obs::JsonValue outcomesReport = obs::JsonValue::object();
  std::printf("%-24s %10s %12s %10s %12s %8s\n", "outcome", "crude p", "crude hw", "strat p",
              "strat hw", "var red");
  for (const fi::SystemOutcome outcome :
       {fi::SystemOutcome::MissedStop, fi::SystemOutcome::ValueFailure,
        fi::SystemOutcome::FailSilentDegradation}) {
    const util::ProportionEstimate crudeRate =
        util::wilsonInterval(crude.outcome(outcome), crude.experiments);
    const double crudeHalfWidth = (crudeRate.high - crudeRate.low) / 2.0;
    const util::StratifiedProportionEstimate stratRate = stratified.outcomeEstimate(outcome);
    const double ratio = stratRate.halfWidth > 0.0
                             ? (crudeHalfWidth * crudeHalfWidth) /
                                   (stratRate.halfWidth * stratRate.halfWidth)
                             : 0.0;
    std::printf("%-24s %10.4f %12.4e %10.4f %12.4e %7.1fx\n", fi::describe(outcome),
                crudeRate.proportion, crudeHalfWidth, stratRate.proportion, stratRate.halfWidth,
                ratio);
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("crude_estimate", obs::JsonValue::number(crudeRate.proportion));
    entry.set("crude_half_width", obs::JsonValue::number(crudeHalfWidth));
    entry.set("stratified_estimate", obs::JsonValue::number(stratRate.proportion));
    entry.set("stratified_half_width", obs::JsonValue::number(stratRate.halfWidth));
    entry.set("variance_reduction", obs::JsonValue::number(ratio));
    outcomesReport.set(fi::describe(outcome), std::move(entry));
  }
  obs::JsonValue stratReport = obs::JsonValue::object();
  stratReport.set("experiments",
                  obs::JsonValue::integer(static_cast<std::int64_t>(stratified.experiments)));
  stratReport.set("strata", obs::JsonValue::integer(
                                static_cast<std::int64_t>(stratified.strata.size())));
  stratReport.set("outcomes", std::move(outcomesReport));
  report.set("stratified_campaign", std::move(stratReport));

  obs::writeRunReportFile(report, "BENCH_rare_event.json");
  std::printf("\nRun report written to BENCH_rare_event.json\n");

  if (!deterministic) return 1;
  if (!smoke && varianceReduction < 10.0) {
    std::printf("FAIL: variance reduction %.1fx below the 10x acceptance floor\n",
                varianceReduction);
    return 1;
  }
  return 0;
}
