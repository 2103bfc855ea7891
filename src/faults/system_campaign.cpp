#include "faults/system_campaign.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bbw/guest_programs.hpp"
#include "exec/chunked_campaign.hpp"

namespace nlft::fi {

namespace {

using bbw::BbwSimConfig;
using bbw::BbwSimResult;
using bbw::BbwSystemSim;
using util::SimTime;

constexpr net::NodeId kNodeCount = 6;  // CU-A, CU-B, four wheel nodes

[[nodiscard]] bool isWheelNode(net::NodeId id) { return id >= bbw::kWheelNodeBase; }

/// Guest images and their golden copies, resolved once per campaign and
/// shared read-only across worker threads.
struct GuestContext {
  TaskImage wheel;
  TaskImage cu;
  CopyRun wheelGolden;
  CopyRun cuGolden;

  [[nodiscard]] const TaskImage& imageFor(net::NodeId id) const {
    return isWheelNode(id) ? wheel : cu;
  }
  [[nodiscard]] const CopyRun& goldenFor(net::NodeId id) const {
    return isWheelNode(id) ? wheelGolden : cuGolden;
  }
};

GuestContext makeGuestContext() {
  GuestContext ctx;
  bool haveWheel = false;
  bool haveCu = false;
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    if (program.name == "wheel") {
      ctx.wheel = program.makeNominalImage();
      haveWheel = true;
    } else if (program.name == "cu") {
      ctx.cu = program.makeNominalImage();
      haveCu = true;
    }
  }
  if (!haveWheel || !haveCu) {
    throw std::runtime_error("system campaign: wheel/cu guest programs missing");
  }
  ctx.wheelGolden = goldenRun(ctx.wheel);
  ctx.cuGolden = goldenRun(ctx.cu);
  return ctx;
}

/// Classifies the machine-level experiment, folds it into node-level counts
/// and returns the injection kind that replays the outcome into the system:
/// none when the fault never became an error (the run equals the golden
/// stop).
std::optional<bbw::InjectionKind> classifyMachineFault(const SystemCampaignConfig& config,
                                                       const GuestContext& ctx,
                                                       const SystemScenario& scenario,
                                                       NodeLevelCounts& counts) {
  using bbw::InjectionKind;
  const TaskImage& image = ctx.imageFor(scenario.targets.front());
  const CopyRun& golden = ctx.goldenFor(scenario.targets.front());
  ++counts.injected;
  if (config.nodeType == bbw::NodeType::Nlft) {
    switch (runTemExperiment(image, golden, scenario.fault, config.jobBudgetFactor)) {
      case TemOutcome::NotActivated: ++counts.notActivated; return std::nullopt;
      case TemOutcome::MaskedByEcc: ++counts.maskedByEcc; return std::nullopt;
      case TemOutcome::MaskedByVote: ++counts.masked; return InjectionKind::ComputationFault;
      case TemOutcome::MaskedByRestart: ++counts.masked; return InjectionKind::DetectedError;
      case TemOutcome::OmissionVoteFailed:
      case TemOutcome::OmissionNoBudget: ++counts.omission; return InjectionKind::OmissionFailure;
      case TemOutcome::UndetectedWrongOutput:
        ++counts.undetected;
        return InjectionKind::ValueFailure;
    }
  } else {
    switch (runFsExperiment(image, golden, scenario.fault)) {
      case FsOutcome::NotActivated: ++counts.notActivated; return std::nullopt;
      case FsOutcome::MaskedByEcc: ++counts.maskedByEcc; return std::nullopt;
      case FsOutcome::FailSilent: ++counts.failSilent; return InjectionKind::DetectedError;
      case FsOutcome::DetectedByEndToEnd: ++counts.omission; return InjectionKind::OmissionFailure;
      case FsOutcome::UndetectedWrongOutput:
        ++counts.undetected;
        return InjectionKind::ValueFailure;
    }
  }
  return std::nullopt;
}

BbwSimConfig makeSimConfig(const SystemCampaignConfig& config) {
  BbwSimConfig sim = config.sim;
  sim.nodeType = config.nodeType;
  return sim;
}

/// Samples a scenario; `stratum == nullptr` is the crude sampler (kind by
/// weight, node uniform, time over the whole window — the draw order here is
/// frozen by the golden-trace tests), a non-null stratum pins kind, first
/// target and window bin and draws only the remaining coordinates.
SystemScenario sampleScenarioImpl(const SystemCampaignConfig& config, util::Rng& rng,
                                  const GuestContext& ctx,
                                  const StratumSpec* stratum = nullptr) {
  SystemScenario scenario;
  if (stratum != nullptr) {
    scenario.kind = stratum->kind;
  } else {
    const double total = config.machineTransientWeight + config.busCorruptionWeight +
                         config.nodeCrashWeight + config.correlatedBurstWeight;
    if (total <= 0.0) throw std::invalid_argument("system campaign: all scenario weights zero");
    const double pick = rng.uniform(0.0, total);
    if (pick < config.machineTransientWeight) {
      scenario.kind = ScenarioKind::MachineTransient;
    } else if (pick < config.machineTransientWeight + config.busCorruptionWeight) {
      scenario.kind = ScenarioKind::BusCorruption;
    } else if (pick < config.machineTransientWeight + config.busCorruptionWeight +
                          config.nodeCrashWeight) {
      scenario.kind = ScenarioKind::NodeCrash;
    } else {
      scenario.kind = ScenarioKind::CorrelatedBurst;
    }
  }

  const double windowLoS = stratum != nullptr ? stratum->windowLoS : config.injectEarliestS;
  const double windowHiS = stratum != nullptr ? stratum->windowHiS : config.injectLatestS;
  scenario.at = SimTime::fromUs(
      static_cast<std::int64_t>(std::llround(rng.uniform(windowLoS, windowHiS) * 1e6)));

  const auto pickNode = [&rng] {
    return static_cast<net::NodeId>(1 + rng.uniformInt(kNodeCount));
  };
  const auto firstTarget = [&] {
    return stratum != nullptr ? stratum->target : pickNode();
  };
  switch (scenario.kind) {
    case ScenarioKind::MachineTransient: {
      const net::NodeId target = firstTarget();
      scenario.targets.push_back(target);
      scenario.fault = sampleFault(ctx.imageFor(target), ctx.goldenFor(target).instructions,
                                   config.mix, rng);
      break;
    }
    case ScenarioKind::BusCorruption: {
      scenario.targets.push_back(firstTarget());
      const std::size_t flips = 1 + rng.uniformInt(3);
      for (std::size_t i = 0; i < flips; ++i) {
        scenario.flipBits.push_back(static_cast<std::uint32_t>(rng.uniformInt(512)));
      }
      break;
    }
    case ScenarioKind::NodeCrash:
      scenario.targets.push_back(firstTarget());
      break;
    case ScenarioKind::CorrelatedBurst: {
      // A burst strikes 2..3 distinct nodes simultaneously (e.g. a power
      // glitch over one cabinet) — beyond the paper's independence
      // assumption, mirroring sys::CorrelationModel. In a stratum the
      // pinned target leads the burst (consuming no draw, so the crude
      // path's draw order stays frozen); partners draw as usual.
      if (stratum != nullptr) scenario.targets.push_back(stratum->target);
      const std::size_t count = 2 + rng.uniformInt(2);
      while (scenario.targets.size() < count) {
        const net::NodeId candidate = pickNode();
        if (std::find(scenario.targets.begin(), scenario.targets.end(), candidate) ==
            scenario.targets.end()) {
          scenario.targets.push_back(candidate);
        }
      }
      break;
    }
  }
  return scenario;
}

/// Arms the scenario's injections on a fresh simulation: the replayed
/// node-level outcome of a machine transient, the corrupted frame, or a
/// kernel error on every crashed node.
void armScenario(BbwSystemSim& sim, const SystemScenario& scenario,
                 std::optional<bbw::InjectionKind> replayed) {
  using bbw::InjectionKind;
  const net::NodeId target = scenario.targets.front();
  switch (scenario.kind) {
    case ScenarioKind::MachineTransient:
      if (replayed) sim.inject({*replayed, target, scenario.at, {}});
      break;
    case ScenarioKind::BusCorruption:
      sim.inject({InjectionKind::BusCorruption, target, scenario.at, scenario.flipBits});
      break;
    case ScenarioKind::NodeCrash:
    case ScenarioKind::CorrelatedBurst:
      for (const net::NodeId node : scenario.targets) {
        sim.inject({InjectionKind::KernelError, node, scenario.at, {}});
      }
      break;
  }
}

SystemExperiment runSystemExperimentImpl(const SystemCampaignConfig& config,
                                         const SystemScenario& scenario,
                                         const BbwSimResult& golden, const GuestContext& ctx,
                                         obs::Registry* simMetrics = nullptr) {
  SystemExperiment experiment;
  experiment.scenario = scenario;
  if (scenario.targets.empty()) throw std::invalid_argument("system scenario without targets");

  std::optional<bbw::InjectionKind> replayed;
  if (scenario.kind == ScenarioKind::MachineTransient) {
    replayed = classifyMachineFault(config, ctx, scenario, experiment.nodeLevel);
    if (!replayed) {
      // The fault never became an error (or ECC absorbed it): the stop is
      // identical to the golden run, so skip the simulation, costing zero
      // simulated events. The caller counts the skip (stats.skippedMasked /
      // "campaign.skipped_masked") so the campaign reducers and the per-sim
      // metrics stay reconcilable.
      experiment.outcome = SystemOutcome::Masked;
      experiment.sim = golden;
      experiment.skippedMasked = true;
      return experiment;
    }
  }

  BbwSystemSim sim{makeSimConfig(config)};
  if (simMetrics != nullptr) sim.setMetricsRegistry(simMetrics);
  armScenario(sim, scenario, replayed);
  experiment.sim = sim.run();
  experiment.outcome = classifyStop(golden, experiment.sim);
  return experiment;
}

/// Shared by the bbw:: and sys:: parameter overloads (identical fields).
template <typename Params>
Params applyMeasuredCoverage(const CoverageEstimate& measured, Params base) {
  // With zero activated faults (an empty campaign, or one where every
  // sampled fault was absorbed before becoming an error) there is NO
  // measurement: every Wilson interval has trials == 0 and a zeroed point
  // estimate. Feeding that through would stomp the paper-assumed coverage
  // with 0.0 (and, before the guard below existed, divide by it) — keep the
  // base parameters untouched instead.
  if (measured.coverage.trials == 0) return base;
  const double coverage = measured.coverage.proportion;
  base.coverage = coverage;
  if (coverage > 0.0) {
    base.pMask = std::min(1.0, measured.pMask.proportion / coverage);
    // The conditional reactions must remain a distribution: cap P_OM at the
    // mass P_MASK left over, so noisy small-sample point estimates can
    // never push P_MASK + P_OM past 1 (which would drive P_FS formally
    // negative and feed garbage transition rates to the Markov models).
    base.pOmission = std::min(1.0 - base.pMask, measured.pOmission.proportion / coverage);
    base.pFailSilent = std::max(0.0, 1.0 - base.pMask - base.pOmission);
    assert(base.pMask + base.pOmission <= 1.0 + 1e-12);
  }
  return base;
}

}  // namespace

std::uint64_t omissionCount(const BbwSimResult& result) {
  std::uint64_t total = result.commandsOmitted;
  for (const std::uint64_t omissions : result.wheelOmissions) total += omissions;
  return total;
}

SystemOutcome classifyStop(const BbwSimResult& golden, const BbwSimResult& run) {
  if (!run.stopped ||
      run.stoppingDistanceM > golden.stoppingDistanceM + SystemCampaignConfig::missedStopMarginM) {
    return SystemOutcome::MissedStop;
  }
  if (run.undetectedValueDeliveries > 0) return SystemOutcome::ValueFailure;
  if (run.failSilentEvents > 0) return SystemOutcome::FailSilentDegradation;
  if (omissionCount(run) > omissionCount(golden) ||
      run.busFramesDropped > golden.busFramesDropped) {
    return SystemOutcome::OmissionDegradation;
  }
  if (std::abs(run.stoppingDistanceM - golden.stoppingDistanceM) >
      SystemCampaignConfig::maskToleranceM) {
    return SystemOutcome::OmissionDegradation;
  }
  return SystemOutcome::Masked;
}

const char* describe(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::MachineTransient: return "machine-transient";
    case ScenarioKind::BusCorruption: return "bus-corruption";
    case ScenarioKind::NodeCrash: return "node-crash";
    case ScenarioKind::CorrelatedBurst: return "correlated-burst";
  }
  return "?";
}

const char* describe(SystemOutcome outcome) {
  switch (outcome) {
    case SystemOutcome::Masked: return "masked";
    case SystemOutcome::OmissionDegradation: return "omission-degradation";
    case SystemOutcome::FailSilentDegradation: return "fail-silent-degradation";
    case SystemOutcome::ValueFailure: return "value-failure";
    case SystemOutcome::MissedStop: return "missed-stop";
  }
  return "?";
}

void NodeLevelCounts::merge(const NodeLevelCounts& other) {
  injected += other.injected;
  notActivated += other.notActivated;
  maskedByEcc += other.maskedByEcc;
  masked += other.masked;
  omission += other.omission;
  failSilent += other.failSilent;
  undetected += other.undetected;
}

util::ProportionEstimate NodeLevelCounts::pMask() const {
  return util::wilsonInterval(masked, activated());
}

util::ProportionEstimate NodeLevelCounts::pOmission() const {
  return util::wilsonInterval(omission, activated());
}

util::ProportionEstimate NodeLevelCounts::pFailSilent() const {
  return util::wilsonInterval(failSilent, activated());
}

util::ProportionEstimate NodeLevelCounts::coverage() const {
  return util::wilsonInterval(activated() - undetected, activated());
}

void SystemCampaignStats::merge(const SystemCampaignStats& other) {
  experiments += other.experiments;
  for (std::size_t o = 0; o < kSystemOutcomeCount; ++o) outcomes[o] += other.outcomes[o];
  for (std::size_t k = 0; k < kScenarioKindCount; ++k) {
    for (std::size_t o = 0; o < kSystemOutcomeCount; ++o) {
      outcomesByKind[k][o] += other.outcomesByKind[k][o];
    }
  }
  nodeLevel.merge(other.nodeLevel);
  stoppingDistanceM.merge(other.stoppingDistanceM);
  stops += other.stops;
  skippedMasked += other.skippedMasked;
}

CoverageEstimate measuredCoverage(const SystemCampaignStats& stats) {
  CoverageEstimate estimate;
  estimate.pMask = stats.nodeLevel.pMask();
  estimate.pOmission = stats.nodeLevel.pOmission();
  estimate.pFailSilent = stats.nodeLevel.pFailSilent();
  estimate.coverage = stats.nodeLevel.coverage();
  return estimate;
}

bbw::ReliabilityParameters withMeasuredCoverage(const CoverageEstimate& measured,
                                                bbw::ReliabilityParameters base) {
  return applyMeasuredCoverage(measured, base);
}

sys::NodeParameters withMeasuredCoverage(const CoverageEstimate& measured,
                                         sys::NodeParameters base) {
  return applyMeasuredCoverage(measured, base);
}

SystemScenario sampleScenario(const SystemCampaignConfig& config, util::Rng& rng) {
  return sampleScenarioImpl(config, rng, makeGuestContext());
}

bbw::BbwSimResult goldenStop(const SystemCampaignConfig& config) {
  BbwSystemSim sim{makeSimConfig(config)};
  return sim.run();
}

SystemExperiment runSystemExperiment(const SystemCampaignConfig& config,
                                     const SystemScenario& scenario,
                                     const bbw::BbwSimResult& golden) {
  return runSystemExperimentImpl(config, scenario, golden, makeGuestContext());
}

namespace {

/// Derived campaign counters, reconciling 1:1 with SystemCampaignStats so a
/// run report can be cross-checked against the printed statistics.
void addCampaignCounters(obs::Registry& m, const SystemCampaignStats& stats) {
  m.add("campaign.experiments", stats.experiments);
  m.add("campaign.stops", stats.stops);
  for (std::size_t o = 0; o < kSystemOutcomeCount; ++o) {
    m.add(std::string{"campaign.outcome."} + describe(static_cast<SystemOutcome>(o)),
          stats.outcomes[o]);
  }
  m.add("campaign.node.injected", stats.nodeLevel.injected);
  m.add("campaign.node.not_activated", stats.nodeLevel.notActivated);
  m.add("campaign.node.masked_by_ecc", stats.nodeLevel.maskedByEcc);
  m.add("campaign.node.masked", stats.nodeLevel.masked);
  m.add("campaign.node.omission", stats.nodeLevel.omission);
  m.add("campaign.node.fail_silent", stats.nodeLevel.failSilent);
  m.add("campaign.node.undetected", stats.nodeLevel.undetected);
  // Experiments that never ran a simulation (fault not activated / absorbed
  // by ECC): reconciles the gap between campaign.outcome.masked and the
  // per-sim registries, which only see the simulated experiments.
  m.add("campaign.skipped_masked", stats.skippedMasked);
}

/// Chunk accumulator: the campaign statistics plus a chunk-local registry
/// for the per-simulation metrics (attached only when config.metrics is
/// set). Both merge in chunk order, so the merged registry is bit-identical
/// at every thread count.
struct SystemChunkStats {
  std::size_t experiments = 0;
  SystemCampaignStats stats;
  obs::Registry sims;

  void merge(const SystemChunkStats& other) {
    experiments += other.experiments;
    stats.merge(other.stats);
    sims.merge(other.sims);
  }
};

/// One sampled-and-classified experiment, folded into campaign statistics.
/// `stratum == nullptr` samples crudely; otherwise inside the stratum.
void runOneScenario(const SystemCampaignConfig& config, const GuestContext& ctx,
                    const BbwSimResult& golden, const StratumSpec* stratum, util::Rng& rng,
                    SystemCampaignStats& stats, obs::Registry* simMetrics) {
  const SystemScenario scenario = sampleScenarioImpl(config, rng, ctx, stratum);
  const SystemExperiment experiment =
      runSystemExperimentImpl(config, scenario, golden, ctx, simMetrics);
  ++stats.outcomes[static_cast<std::size_t>(experiment.outcome)];
  ++stats.outcomesByKind[static_cast<std::size_t>(scenario.kind)]
                        [static_cast<std::size_t>(experiment.outcome)];
  stats.nodeLevel.merge(experiment.nodeLevel);
  stats.stoppingDistanceM.add(experiment.sim.stoppingDistanceM);
  if (experiment.sim.stopped) ++stats.stops;
  if (experiment.skippedMasked) ++stats.skippedMasked;
}

/// The one chunk driver of every system campaign: `experiments` scenarios
/// from `seed`, sampled crudely (`stratum == nullptr`) or inside the
/// stratum. Folds the per-simulation metrics into config.metrics and
/// returns the merged statistics.
SystemCampaignStats runSystemChunks(const SystemCampaignConfig& config, const GuestContext& ctx,
                                    const BbwSimResult& golden, const StratumSpec* stratum,
                                    std::size_t experiments, std::uint64_t seed,
                                    const exec::ProgressFn& onProgress) {
  const auto runChunk = [&](util::Rng& rng, std::size_t count, SystemChunkStats& chunk) {
    obs::Registry* simMetrics = config.metrics != nullptr ? &chunk.sims : nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      runOneScenario(config, ctx, golden, stratum, rng, chunk.stats, simMetrics);
    }
  };
  const SystemChunkStats total =
      exec::runChunkedCampaign<SystemChunkStats>(experiments, seed, config.parallelism,
                                                 runChunk, {}, onProgress, config.metrics)
          .stats;
  if (config.metrics != nullptr) config.metrics->merge(total.sims);
  SystemCampaignStats stats = total.stats;
  stats.experiments = total.experiments;
  return stats;
}

}  // namespace

SystemCampaignStats runSystemCampaign(const SystemCampaignConfig& config) {
  const GuestContext ctx = makeGuestContext();
  const BbwSimResult golden = goldenStop(config);
  SystemCampaignStats stats = runSystemChunks(config, ctx, golden, nullptr, config.experiments,
                                              config.seed, config.onProgress);
  if (config.metrics != nullptr) addCampaignCounters(*config.metrics, stats);
  return stats;
}

util::StratifiedProportionEstimate StratifiedCampaignResult::outcomeEstimate(
    SystemOutcome outcome, double confidence) const {
  std::vector<util::StratumProportion> cells;
  cells.reserve(strata.size());
  for (const StratumResult& stratum : strata) {
    cells.push_back({stratum.spec.weight, stratum.stats.outcome(outcome),
                     stratum.stats.experiments});
  }
  return util::stratifiedProportion(cells, confidence);
}

std::vector<StratumSpec> stratifySystemCampaign(const SystemCampaignConfig& config,
                                                std::size_t windowBins) {
  if (windowBins == 0)
    throw std::invalid_argument("stratifySystemCampaign: windowBins must be >= 1");
  if (!(config.injectLatestS > config.injectEarliestS))
    throw std::invalid_argument("stratifySystemCampaign: empty injection window");
  const std::array<double, kScenarioKindCount> kindWeights{
      config.machineTransientWeight, config.busCorruptionWeight, config.nodeCrashWeight,
      config.correlatedBurstWeight};
  double totalWeight = 0.0;
  for (const double w : kindWeights) {
    if (w < 0.0) throw std::invalid_argument("stratifySystemCampaign: negative kind weight");
    totalWeight += w;
  }
  if (totalWeight <= 0.0)
    throw std::invalid_argument("stratifySystemCampaign: all scenario weights zero");

  const double windowSpanS = config.injectLatestS - config.injectEarliestS;
  std::vector<StratumSpec> strata;
  for (std::size_t k = 0; k < kScenarioKindCount; ++k) {
    if (kindWeights[k] <= 0.0) continue;
    const double kindShare = kindWeights[k] / totalWeight;
    for (net::NodeId node = 1; node <= kNodeCount; ++node) {
      for (std::size_t bin = 0; bin < windowBins; ++bin) {
        StratumSpec spec;
        spec.kind = static_cast<ScenarioKind>(k);
        spec.target = node;
        spec.windowBin = bin;
        spec.windowLoS = config.injectEarliestS +
                         windowSpanS * static_cast<double>(bin) / static_cast<double>(windowBins);
        spec.windowHiS = config.injectEarliestS + windowSpanS * static_cast<double>(bin + 1) /
                                                      static_cast<double>(windowBins);
        spec.weight = kindShare / static_cast<double>(kNodeCount) /
                      static_cast<double>(windowBins);
        strata.push_back(spec);
      }
    }
  }

  // Largest-remainder allocation of the budget, proportional to W_h.
  // Deterministic: remainder ties break on the (fixed) stratum order.
  std::size_t allocated = 0;
  std::vector<double> remainders(strata.size());
  for (std::size_t h = 0; h < strata.size(); ++h) {
    const double quota = static_cast<double>(config.experiments) * strata[h].weight;
    strata[h].experiments = static_cast<std::size_t>(quota);
    remainders[h] = quota - static_cast<double>(strata[h].experiments);
    allocated += strata[h].experiments;
  }
  std::vector<std::size_t> order(strata.size());
  for (std::size_t h = 0; h < order.size(); ++h) order[h] = h;
  std::stable_sort(order.begin(), order.end(), [&remainders](std::size_t a, std::size_t b) {
    return remainders[a] > remainders[b];
  });
  for (std::size_t i = 0; allocated < config.experiments && i < order.size(); ++i) {
    ++strata[order[i]].experiments;
    ++allocated;
  }
  return strata;
}

SystemScenario sampleScenario(const SystemCampaignConfig& config, util::Rng& rng,
                              const StratumSpec& stratum) {
  return sampleScenarioImpl(config, rng, makeGuestContext(), &stratum);
}

StratifiedCampaignResult runStratifiedSystemCampaign(const SystemCampaignConfig& config,
                                                     std::size_t windowBins) {
  const GuestContext ctx = makeGuestContext();
  // ONE golden stop shared by every stratum: it is a pure function of the
  // sim configuration, which is identical across strata.
  const BbwSimResult golden = goldenStop(config);
  StratifiedCampaignResult result;

  const std::vector<StratumSpec> strata = stratifySystemCampaign(config, windowBins);
  for (std::size_t h = 0; h < strata.size(); ++h) {
    StratumResult stratumResult;
    stratumResult.spec = strata[h];
    if (strata[h].experiments > 0) {
      // Independent, reproducible sub-seed per stratum: a fixed mix of the
      // campaign seed and the stratum's position in the (deterministic)
      // grid. Each sub-campaign keeps the usual chunk-order determinism.
      const std::uint64_t stratumSeed =
          config.seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(h) + 1));
      stratumResult.stats = runSystemChunks(config, ctx, golden, &strata[h],
                                            strata[h].experiments, stratumSeed, {});
    }
    result.total.merge(stratumResult.stats);
    result.strata.push_back(std::move(stratumResult));
  }
  result.experiments = result.total.experiments;

  if (config.metrics != nullptr) {
    addCampaignCounters(*config.metrics, result.total);
    std::size_t occupied = 0;
    std::size_t minAlloc = result.strata.empty() ? 0 : result.strata.front().spec.experiments;
    std::size_t maxAlloc = 0;
    for (const StratumResult& stratum : result.strata) {
      if (stratum.spec.experiments > 0) ++occupied;
      minAlloc = std::min(minAlloc, stratum.spec.experiments);
      maxAlloc = std::max(maxAlloc, stratum.spec.experiments);
    }
    config.metrics->add("campaign.strat.strata", result.strata.size());
    config.metrics->add("campaign.strat.occupied", occupied);
    config.metrics->add("campaign.strat.empty", result.strata.size() - occupied);
    config.metrics->gaugeMax("campaign.strat.min_alloc", static_cast<double>(minAlloc));
    config.metrics->gaugeMax("campaign.strat.max_alloc", static_cast<double>(maxAlloc));
  }
  return result;
}

}  // namespace nlft::fi
