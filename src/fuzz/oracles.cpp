#include "fuzz/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"
#include "util/crc.hpp"
#include "verify/bbw_configs.hpp"
#include "verify/holistic.hpp"

namespace nlft::fuzz {

namespace {

using bbw::BbwSimConfig;
using bbw::BbwSimResult;
using bbw::BbwSystemSim;

[[nodiscard]] BbwSimResult runScenarioSim(const BbwSimConfig& config,
                                          const std::vector<bbw::Injection>& events,
                                          obs::Registry* metrics = nullptr) {
  BbwSystemSim sim{config};
  if (metrics != nullptr) sim.setMetricsRegistry(metrics);
  for (const bbw::Injection& event : events) sim.inject(event);
  return sim.run();
}

[[nodiscard]] std::size_t bucketOf(double value, std::initializer_list<double> edges) {
  std::size_t bucket = 0;
  for (const double edge : edges) {
    if (value <= edge) return bucket;
    ++bucket;
  }
  return bucket;
}

[[nodiscard]] std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

[[nodiscard]] const char* nodeTypeName(bbw::NodeType type) {
  return type == bbw::NodeType::Nlft ? "nlft" : "fail-silent";
}

[[nodiscard]] ScenarioSignature makeSignature(const Scenario& scenario,
                                              const BbwSimResult& golden,
                                              const BbwSimResult& run,
                                              fi::SystemOutcome outcome) {
  ScenarioSignature sig;
  sig.outcome = fi::describe(outcome);
  sig.nodeType = nodeTypeName(scenario.params.nodeType);
  sig.stopped = run.stopped;
  const double delta = std::abs(run.stoppingDistanceM - golden.stoppingDistanceM);
  // Bucket edges include the vehicle-level oracle's two thresholds.
  sig.distanceBucket = bucketOf(delta, {fi::SystemCampaignConfig::maskToleranceM, 2.0, 5.0,
                                        fi::SystemCampaignConfig::missedStopMarginM});
  const std::uint64_t runOmissions = fi::omissionCount(run);
  const std::uint64_t goldenOmissions = fi::omissionCount(golden);
  const std::uint64_t extraOmissions =
      runOmissions > goldenOmissions ? runOmissions - goldenOmissions : 0;
  sig.omissionBucket = static_cast<std::size_t>(std::min<std::uint64_t>(extraOmissions, 3));
  const std::uint64_t extraDrops = run.busFramesDropped > golden.busFramesDropped
                                       ? run.busFramesDropped - golden.busFramesDropped
                                       : 0;
  sig.busDropBucket = static_cast<std::size_t>(std::min<std::uint64_t>(extraDrops, 3));
  sig.nodesDown = run.nodesDownAtEnd.size();
  sig.masking = run.errorsMaskedByTem > 0;
  sig.failSilent = run.failSilentEvents > 0;
  sig.undetectedValue = run.undetectedValueDeliveries > 0;
  for (const bbw::Injection& event : scenario.events) {
    std::size_t& bucket = sig.eventKindBuckets[static_cast<std::size_t>(event.kind)];
    bucket = std::min<std::size_t>(bucket + 1, 2);
  }
  return sig;
}

}  // namespace

OracleConfig resolveOracleConfig(OracleConfig config) {
  // The registered verifier configurations are immutable, so the derived
  // bounds are process-wide constants; computing them is not free (FT-RTA
  // fixed points), hence the static cache.
  if (config.e2eBoundNlftUs == 0) {
    static const std::int64_t nlftBound = [] {
      const auto bound = verify::computeEndToEndBound(verify::bbwNlftConfig());
      return bound ? bound->sampleToApply().us() : 0;
    }();
    config.e2eBoundNlftUs = nlftBound;
  }
  if (config.e2eBoundFsUs == 0) {
    static const std::int64_t fsBound = [] {
      const auto bound = verify::computeEndToEndBound(verify::bbwFailSilentConfig());
      return bound ? bound->sampleToApply().us() : 0;
    }();
    config.e2eBoundFsUs = fsBound;
  }
  return config;
}

std::size_t outcomeSeverity(fi::SystemOutcome outcome) {
  return static_cast<std::size_t>(outcome);
}

std::string ScenarioSignature::canonical() const {
  std::string line = outcome;
  line += '|';
  line += nodeType;
  line += stopped ? "|stopped" : "|unstopped";
  line += "|d" + std::to_string(distanceBucket);
  line += "|o" + std::to_string(omissionBucket);
  line += "|b" + std::to_string(busDropBucket);
  line += "|down" + std::to_string(nodesDown);
  line += masking ? "|tem" : "|-";
  line += failSilent ? "|fs" : "|-";
  line += undetectedValue ? "|val" : "|-";
  line += "|ev";
  for (const std::size_t bucket : eventKindBuckets) line += std::to_string(bucket);
  return line;
}

std::uint32_t ScenarioSignature::key() const {
  const std::string line = canonical();
  return util::crc32({reinterpret_cast<const std::uint8_t*>(line.data()), line.size()});
}

bbw::BbwSimResult GoldenCache::get(const BbwSimConfig& config) {
  std::string key = nodeTypeName(config.nodeType);
  key += '|' + fmt(config.initialSpeedMps) + '|' + fmt(config.pedal) + '|' +
         std::to_string(config.restartTime.us()) + '|' + std::to_string(config.horizon.us());
  {
    std::lock_guard<std::mutex> lock{mutex_};
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  const BbwSimResult golden = runScenarioSim(config, {});
  std::lock_guard<std::mutex> lock{mutex_};
  return cache_.emplace(key, golden).first->second;
}

ScenarioVerdict evaluateScenario(const Scenario& scenario, const OracleConfig& config,
                                 GoldenCache* goldenCache) {
  ScenarioVerdict verdict;
  GoldenCache localCache;
  GoldenCache& cache = goldenCache != nullptr ? *goldenCache : localCache;

  const BbwSimResult golden = cache.get(scenario.params);
  verdict.goldenDistanceM = golden.stoppingDistanceM;
  if (!golden.stopped) return verdict;  // invalid: oracles are vacuous here
  verdict.valid = true;

  obs::Registry metrics;
  const BbwSimResult run = runScenarioSim(scenario.params, scenario.events, &metrics);
  verdict.stoppingDistanceM = run.stoppingDistanceM;
  verdict.e2eMaxUs = metrics.gauge("e2e.latency.max_us");
  verdict.outcome = fi::classifyStop(golden, run);
  verdict.signature = makeSignature(scenario, golden, run, verdict.outcome);

  // diff.e2e-bound: the static verifier's sample->apply bound must dominate
  // the measured worst end-to-end latency of this run.
  verdict.e2eBoundUs = scenario.params.nodeType == bbw::NodeType::Nlft
                           ? config.e2eBoundNlftUs
                           : config.e2eBoundFsUs;
  if (verdict.e2eBoundUs > 0 && verdict.e2eMaxUs > static_cast<double>(verdict.e2eBoundUs)) {
    verdict.violations.push_back(
        {"diff.e2e-bound",
         "measured e2e.latency.max_us " + fmt(verdict.e2eMaxUs) + " exceeds the static bound " +
             std::to_string(verdict.e2eBoundUs) + "us for the " +
             nodeTypeName(scenario.params.nodeType) + " deployment"});
  }

  // nlft.single-transient: one transient on the certified NLFT deployment
  // must never miss the stop (value failures are the documented coverage
  // gap and excluded by definition).
  if (scenario.params.nodeType == bbw::NodeType::Nlft && scenario.events.size() == 1 &&
      scenario.events.front().kind != bbw::InjectionKind::ValueFailure &&
      verdict.outcome == fi::SystemOutcome::MissedStop) {
    verdict.violations.push_back(
        {"nlft.single-transient",
         std::string{"single "} + bbw::describe(scenario.events.front().kind) + " on node " +
             std::to_string(scenario.events.front().node) + " at " +
             std::to_string(scenario.events.front().at.us()) + "us produced a missed stop (" +
             fmt(run.stoppingDistanceM) + "m vs golden " + fmt(golden.stoppingDistanceM) + "m)"});
  }

  // meta.tem-monotone: the fail-silent twin of an NLFT scenario must not
  // fare strictly better, and must not report TEM maskings.
  if (config.checkTemMonotone && scenario.params.nodeType == bbw::NodeType::Nlft) {
    BbwSimConfig fsParams = scenario.params;
    fsParams.nodeType = bbw::NodeType::FailSilent;
    const BbwSimResult fsGolden = cache.get(fsParams);
    if (fsGolden.stopped) {
      const BbwSimResult fsRun = runScenarioSim(fsParams, scenario.events);
      const fi::SystemOutcome fsOutcome = fi::classifyStop(fsGolden, fsRun);
      if (outcomeSeverity(verdict.outcome) > outcomeSeverity(fsOutcome)) {
        verdict.violations.push_back(
            {"meta.tem-monotone",
             std::string{"TEM-enabled outcome '"} + fi::describe(verdict.outcome) +
                 "' is more severe than the TEM-disabled outcome '" + fi::describe(fsOutcome) +
                 "' on the same schedule"});
      }
      if (fsRun.errorsMaskedByTem > 0) {
        verdict.violations.push_back(
            {"meta.tem-monotone",
             "fail-silent run reports " + std::to_string(fsRun.errorsMaskedByTem) +
                 " TEM maskings — masking machinery active with TEM disabled"});
      }
    }
  }

  // det.replay: a second, independent straight run of the scenario, with
  // its own registry, must reproduce the first run's metrics fingerprint
  // byte-for-byte.
  if (config.checkReplayDeterminism) {
    obs::Registry replayMetrics;
    (void)runScenarioSim(scenario.params, scenario.events, &replayMetrics);
    if (replayMetrics.goldenFingerprint() != metrics.goldenFingerprint()) {
      verdict.violations.push_back(
          {"det.replay",
           "metrics fingerprint differs between two straight runs of the same scenario — "
           "ambient nondeterminism in the simulation"});
    }
  }

  return verdict;
}

std::function<bool(const Scenario&)> violatesOracle(std::string oracleId, OracleConfig config,
                                                    GoldenCache* goldenCache) {
  return [oracleId = std::move(oracleId), config,
          goldenCache](const Scenario& scenario) {
    const ScenarioVerdict verdict = evaluateScenario(scenario, config, goldenCache);
    for (const OracleViolation& violation : verdict.violations) {
      if (violation.oracle == oracleId) return true;
    }
    return false;
  };
}

}  // namespace nlft::fuzz
