// Timed runs: process set-up, then one campaign call of the workload (plus
// the coverage-feedback stage on system_fi), measured with tracing off.
#include <cstdio>
#include <exception>
#include <string>

#include "bbw/guest_programs.hpp"
#include "bbw/markov_models.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/time.hpp"

namespace perfbench {

using namespace nlft;

fi::SystemCampaignConfig systemConfig(const WorkloadSpec& workload, std::uint64_t seed) {
  fi::SystemCampaignConfig config;
  config.experiments = workload.experiments;
  config.seed = seed;
  config.parallelism.threads = workload.workers;
  config.parallelism.chunkSize = workload.chunkSize;
  return config;
}

fi::CampaignConfig machineConfig(const WorkloadSpec& workload, std::uint64_t seed,
                                 std::size_t program, bool failSilent) {
  fi::CampaignConfig config;
  config.experiments = workload.experiments;
  // One independent stream per (program, campaign kind), all from `seed`.
  config.seed = seed * 8 + 2 * program + (failSilent ? 1 : 0);
  config.parallelism.threads = workload.workers;
  config.parallelism.chunkSize = workload.chunkSize;
  return config;
}

Setup runSetup(const WorkloadSpec& workload, std::uint64_t seed) {
  Setup setup;
  (void)bbw::bbwDeployment();
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    setup.programNames.push_back(program.name);
    setup.images.push_back(program.makeNominalImage());
    (void)program.analyze();
    setup.goldenInstructions.push_back(fi::goldenRun(setup.images.back()).instructions);
  }
  if (workload.systemLevel) {
    const Clock::time_point start = Clock::now();
    (void)fi::goldenStop(systemConfig(workload, seed));
    setup.goldenStopSeconds = secondsSince(start);
  }
  return setup;
}

Feedback runFeedback(const WorkloadSpec& workload, std::uint64_t seed,
                     const fi::SystemCampaignStats& stats) {
  constexpr double kYear = util::kHoursPerYear;
  Feedback feedback;
  feedback.measured = fi::measuredCoverage(stats);

  Clock::time_point start = Clock::now();
  {
    const Span span{"reliability.study"};
    const bbw::BbwStudy assumedStudy;
    const bbw::BbwStudy measuredStudy{fi::withMeasuredCoverage(feedback.measured)};
    constexpr auto kNlft = bbw::NodeType::Nlft;
    constexpr auto kDegraded = bbw::FunctionalityMode::Degraded;
    feedback.r1yMarkovAssumed = assumedStudy.systemReliability(kNlft, kDegraded, kYear);
    feedback.r1yMarkovMeasured = measuredStudy.systemReliability(kNlft, kDegraded, kYear);
    feedback.mttfAssumedYears = assumedStudy.systemMttfHours(kNlft, kDegraded) / kYear;
    feedback.mttfMeasuredYears = measuredStudy.systemMttfHours(kNlft, kDegraded) / kYear;
  }
  feedback.studySeconds = secondsSince(start);

  start = Clock::now();
  const Span span{"sysmodel.estimate_reliability"};
  sys::SystemSpec spec;
  spec.behavior = sys::NodeBehavior::Nlft;
  spec.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  sys::MonteCarloConfig mc;
  mc.trials = workload.mcTrials;
  mc.seed = seed + 1;
  mc.checkpointHours = {kYear};
  mc.parallelism.threads = workload.workers;
  mc.parallelism.chunkSize = 1000;
  const auto r1y = [&mc](const sys::SystemSpec& s) {
    return sys::estimateReliability(s, mc).checkpoints.at(0).reliability.proportion;
  };
  feedback.r1yMcAssumed = r1y(spec);
  spec.params = fi::withMeasuredCoverage(feedback.measured, spec.params);
  feedback.r1yMcMeasured = r1y(spec);
  feedback.mcSeconds = secondsSince(start);
  return feedback;
}

std::string systemOutputsJson(const fi::SystemCampaignStats& stats, const obs::Registry* metrics,
                              const Feedback* feedback) {
  std::string byKind = "[";
  for (std::size_t k = 0; k < fi::kScenarioKindCount; ++k) {
    if (k > 0) byKind += ",";
    byKind += jsonArray({stats.outcomesByKind[k].begin(), stats.outcomesByKind[k].end()});
  }
  byKind += "]";
  const fi::NodeLevelCounts& n = stats.nodeLevel;
  Json node;
  node.num("injected", std::uint64_t{n.injected})
      .num("not_activated", std::uint64_t{n.notActivated})
      .num("masked_by_ecc", std::uint64_t{n.maskedByEcc})
      .num("masked", std::uint64_t{n.masked})
      .num("omission", std::uint64_t{n.omission})
      .num("fail_silent", std::uint64_t{n.failSilent})
      .num("undetected", std::uint64_t{n.undetected});
  const fi::CoverageEstimate measured = fi::measuredCoverage(stats);

  Json out;
  out.num("experiments", std::uint64_t{stats.experiments})
      .raw("outcomes", jsonArray({stats.outcomes.begin(), stats.outcomes.end()}))
      .raw("outcomes_by_kind", byKind)
      .raw("node", node.dump())
      .num("stops", std::uint64_t{stats.stops})
      .num("skipped_masked", std::uint64_t{stats.skippedMasked})
      .num("stopping_distance_mean_m", stats.stoppingDistanceM.mean())
      .num("p_t", measured.pMask.proportion)
      .num("p_om", measured.pOmission.proportion)
      .num("c_d", measured.coverage.proportion);
  if (metrics != nullptr) {
    Json counters;
    for (const std::string& name : metrics->counterNames()) {
      if (name.rfind("campaign.", 0) == 0) counters.num(name, metrics->count(name));
    }
    out.str("golden_fingerprint", hex64(fnv1a(metrics->goldenFingerprint())))
        .raw("campaign_counters", counters.dump());
  }
  if (feedback != nullptr) {
    out.num("r1y_markov_assumed", feedback->r1yMarkovAssumed)
        .num("r1y_markov_measured", feedback->r1yMarkovMeasured)
        .num("mttf_assumed_y", feedback->mttfAssumedYears)
        .num("mttf_measured_y", feedback->mttfMeasuredYears)
        .num("r1y_mc_assumed", feedback->r1yMcAssumed)
        .num("r1y_mc_measured", feedback->r1yMcMeasured);
  }
  return out.dump();
}

std::string temOutputsJson(const fi::TemCampaignStats& stats) {
  Json out;
  out.num("experiments", std::uint64_t{stats.experiments})
      .num("not_activated", std::uint64_t{stats.notActivated})
      .num("masked_by_ecc", std::uint64_t{stats.maskedByEcc})
      .num("masked_by_vote", std::uint64_t{stats.maskedByVote})
      .num("masked_by_restart", std::uint64_t{stats.maskedByRestart})
      .num("omission_vote_failed", std::uint64_t{stats.omissionVoteFailed})
      .num("omission_no_budget", std::uint64_t{stats.omissionNoBudget})
      .num("undetected", std::uint64_t{stats.undetected});
  return out.dump();
}

std::string fsOutputsJson(const fi::FsCampaignStats& stats) {
  Json out;
  out.num("experiments", std::uint64_t{stats.experiments})
      .num("not_activated", std::uint64_t{stats.notActivated})
      .num("masked_by_ecc", std::uint64_t{stats.maskedByEcc})
      .num("fail_silent", std::uint64_t{stats.failSilent})
      .num("detected_by_end_to_end", std::uint64_t{stats.detectedByEndToEnd})
      .num("undetected", std::uint64_t{stats.undetected});
  return out.dump();
}

int runTimed(const WorkloadSpec& workload, std::uint64_t seed) {
  const Setup setup = runSetup(workload, seed);

  std::uint64_t calls = 0;
  std::uint64_t failedCalls = 0;
  std::uint64_t experiments = 0;
  std::string outputs = "{}";
  const auto fail = [&failedCalls](const char* what, const std::exception& error) {
    ++failedCalls;
    std::fprintf(stderr, "%s failed: %s\n", what, error.what());
  };

  const Clock::time_point start = Clock::now();
  const double setupSeconds = std::chrono::duration<double>(start - kProcessStart).count();
  if (workload.systemLevel) {
    obs::Registry registry;
    fi::SystemCampaignConfig config = systemConfig(workload, seed);
    if (workload.metricsAttached) config.metrics = &registry;
    ++calls;
    try {
      const fi::SystemCampaignStats stats = fi::runSystemCampaign(config);
      Feedback feedback;
      if (workload.feedbackStage) feedback = runFeedback(workload, seed, stats);
      experiments = stats.experiments;
      outputs = systemOutputsJson(stats, config.metrics,
                                  workload.feedbackStage ? &feedback : nullptr);
    } catch (const std::exception& error) {
      fail("runSystemCampaign", error);
    }
  } else {
    Json programs;
    for (std::size_t p = 0; p < setup.images.size(); ++p) {
      Json program;
      ++calls;
      try {
        const fi::TemCampaignStats tem =
            fi::runTemCampaign(setup.images[p], machineConfig(workload, seed, p, false));
        experiments += tem.experiments;
        program.raw("tem", temOutputsJson(tem));
      } catch (const std::exception& error) {
        fail("runTemCampaign", error);
      }
      ++calls;
      try {
        const fi::FsCampaignStats fs =
            fi::runFsCampaign(setup.images[p], machineConfig(workload, seed, p, true));
        experiments += fs.experiments;
        program.raw("fs", fsOutputsJson(fs));
      } catch (const std::exception& error) {
        fail("runFsCampaign", error);
      }
      programs.raw(setup.programNames[p], program.dump());
    }
    outputs = Json{}.raw("programs", programs.dump()).dump();
  }
  const double campaignSeconds = secondsSince(start);

  Json result;
  result.str("mode", "run")
      .str("workload", workload.name)
      .num("seed", seed)
      .num("setup_s", setupSeconds)
      .num("campaign_s", campaignSeconds)
      .num("experiments", experiments)
      .num("calls", calls)
      .num("failed_calls", failedCalls)
      .num("peak_rss_mb", peakRssMiB())
      .raw("facts", factsJson(workload, seed))
      .raw("outputs", outputs);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace perfbench
