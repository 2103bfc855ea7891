// System-level fault-injection campaign over the distributed brake-by-wire
// stop, with measured-coverage feedback into the analytic models.
//
// The campaign injects machine-level transients, bus-frame corruptions, node
// crashes and correlated bursts into full six-node closed-loop stops, and
// classifies each run with the system-level oracle (masked .. missed stop).
// The aggregated node-level outcomes give MEASURED P_T / P_OM / C_D with
// Wilson intervals; the second half of the report re-evaluates the Markov
// models and the Monte-Carlo system model with those measured parameters and
// prints them next to the paper's assumed 0.9 / 0.05 / 0.99 (Section 3.3).
//
// Observability: the campaign runs with an obs::Registry attached and writes
// a machine-readable run report (BENCH_system_fi_report.json) whose
// campaign.* counters reconcile 1:1 with the printed statistics. Pass
// `--trace out.json` to additionally record one representative faulty stop
// as Chrome trace_event JSON (open in chrome://tracing or Perfetto). Any
// other argument, or `--trace` without a path, exits 2 with the usage line
// before the campaign starts.
#include <cstdio>
#include <string>
#include <string_view>

#include "bbw/markov_models.hpp"
#include "faults/system_campaign.hpp"
#include "flag_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "reliability/reliability_fn.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/time.hpp"

using namespace nlft;

namespace {

void printHistogram(const fi::SystemCampaignStats& stats) {
  std::printf("%-20s", "scenario \\ outcome");
  for (std::size_t o = 0; o < fi::kSystemOutcomeCount; ++o) {
    std::printf(" %22s", fi::describe(static_cast<fi::SystemOutcome>(o)));
  }
  std::printf("\n");
  for (std::size_t k = 0; k < fi::kScenarioKindCount; ++k) {
    std::printf("%-20s", fi::describe(static_cast<fi::ScenarioKind>(k)));
    for (std::size_t o = 0; o < fi::kSystemOutcomeCount; ++o) {
      std::printf(" %22zu", stats.outcomesByKind[k][o]);
    }
    std::printf("\n");
  }
  std::printf("%-20s", "total");
  for (std::size_t o = 0; o < fi::kSystemOutcomeCount; ++o) {
    std::printf(" %22zu", stats.outcomes[o]);
  }
  std::printf("\n");
}

void printParameterRow(const char* name, double assumed, const util::ProportionEstimate& m) {
  std::printf("%-12s %10.3f   %.3f [%.3f, %.3f] %10s\n", name, assumed, m.proportion, m.low,
              m.high, m.low <= assumed && assumed <= m.high ? "yes" : "NO");
}

/// Records one representative faulty stop (a computation fault on a wheel
/// node mid-stop) as Chrome trace_event JSON.
void recordExampleTrace(const fi::SystemCampaignConfig& config, const std::string& path) {
  obs::TraceRecorder recorder;
  bbw::BbwSimConfig simConfig = config.sim;
  simConfig.nodeType = config.nodeType;
  bbw::BbwSystemSim sim{simConfig};
  sim.setTraceRecorder(&recorder);
  sim.injectComputationFault(bbw::kWheelNodeBase, util::SimTime::fromUs(500'000));
  (void)sim.run();
  recorder.writeJsonFile(path);
  std::printf("Chrome trace written to %s (%zu events)\n", path.c_str(),
              recorder.events().size());
}

obs::JsonValue runReport(const fi::SystemCampaignConfig& config,
                         const fi::SystemCampaignStats& stats, const obs::Registry& metrics) {
  obs::JsonValue report = obs::JsonValue::object();
  report.set("report", obs::JsonValue::string("system_fi_campaign"));
  obs::JsonValue cfg = obs::JsonValue::object();
  cfg.set("experiments", obs::JsonValue::integer(static_cast<std::int64_t>(config.experiments)));
  cfg.set("seed", obs::JsonValue::integer(static_cast<std::int64_t>(config.seed)));
  report.set("config", std::move(cfg));
  obs::JsonValue outcomes = obs::JsonValue::object();
  for (std::size_t o = 0; o < fi::kSystemOutcomeCount; ++o) {
    outcomes.set(fi::describe(static_cast<fi::SystemOutcome>(o)),
                 obs::JsonValue::integer(static_cast<std::int64_t>(stats.outcomes[o])));
  }
  report.set("outcomes", std::move(outcomes));
  report.set("stops", obs::JsonValue::integer(static_cast<std::int64_t>(stats.stops)));
  report.set("metrics", metrics.toJson());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr double kYear = util::kHoursPerYear;

  constexpr std::string_view kUsage = "system_fi_campaign [--trace out.json]";
  std::string tracePath;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg != "--trace") {
      return cli::refuse("system_fi_campaign: unknown argument '" + std::string{arg} + "'",
                         kUsage);
    }
    if (i + 1 == argc || *argv[i + 1] == '\0') {
      return cli::refuse("system_fi_campaign: --trace expects an output path", kUsage);
    }
    tracePath = argv[++i];
  }

  fi::SystemCampaignConfig config;
  config.experiments = 2000;
  config.seed = 20;
  config.parallelism.threads = 0;  // all hardware threads; same statistics
  obs::Registry metrics;
  config.metrics = &metrics;

  std::printf("System-level fault injection, %zu closed-loop stops (NLFT nodes)\n\n",
              config.experiments);
  const fi::SystemCampaignStats stats = fi::runSystemCampaign(config);
  printHistogram(stats);

  if (!tracePath.empty()) recordExampleTrace(config, tracePath);
  obs::writeRunReportFile(runReport(config, stats, metrics), "BENCH_system_fi_report.json");
  std::printf("Run report written to BENCH_system_fi_report.json "
              "(campaign throughput %.0f stops/s)\n",
              metrics.gauge("wall.exec.items_per_second"));

  const bbw::BbwSimResult golden = fi::goldenStop(config);
  std::printf("\nfault-free stop: %.2f m; under fault: mean %.2f m, worst %.2f m, "
              "stops %zu/%zu\n",
              golden.stoppingDistanceM, stats.stoppingDistanceM.mean(),
              stats.stoppingDistanceM.max(), stats.stops, stats.experiments);

  // --- measured node-level parameters vs the paper's assumptions ----------
  const fi::CoverageEstimate measured = fi::measuredCoverage(stats);
  std::printf("\nNode-level parameters: paper-assumed vs measured "
              "(%zu activated machine faults, Wilson 95%%)\n",
              stats.nodeLevel.activated());
  std::printf("%-12s %10s   %-24s %8s\n", "parameter", "assumed", "measured [95% CI]",
              "inside?");
  printParameterRow("P_T", 0.90, measured.pMask);
  printParameterRow("P_OM", 0.05, measured.pOmission);
  printParameterRow("C_D", 0.99, measured.coverage);

  // --- feedback into the analytic models ----------------------------------
  const bbw::BbwStudy assumedStudy;
  const bbw::BbwStudy measuredStudy{fi::withMeasuredCoverage(measured)};
  std::printf("\nMarkov models, NLFT degraded mode: assumed vs measured parameters\n");
  std::printf("%-10s %12s %12s %10s\n", "t", "R(assumed)", "R(measured)", "delta");
  const auto assumedFn = [&](double t) {
    return assumedStudy.systemReliability(bbw::NodeType::Nlft, bbw::FunctionalityMode::Degraded,
                                          t);
  };
  const auto measuredFn = [&](double t) {
    return measuredStudy.systemReliability(bbw::NodeType::Nlft, bbw::FunctionalityMode::Degraded,
                                           t);
  };
  for (const rel::ReliabilityComparison& row : rel::compareReliability(
           assumedFn, measuredFn, {0.25 * kYear, 0.5 * kYear, kYear, 2.0 * kYear})) {
    std::printf("%8.2f y %12.4f %12.4f %9.2f%%\n", row.tHours / kYear, row.baseline,
                row.alternative, 100.0 * row.relativeDelta);
  }
  std::printf("MTTF: assumed %.3f years, measured %.3f years\n",
              assumedStudy.systemMttfHours(bbw::NodeType::Nlft,
                                           bbw::FunctionalityMode::Degraded) /
                  kYear,
              measuredStudy.systemMttfHours(bbw::NodeType::Nlft,
                                            bbw::FunctionalityMode::Degraded) /
                  kYear);

  // --- and into the Monte-Carlo system model ------------------------------
  sys::SystemSpec spec;
  spec.behavior = sys::NodeBehavior::Nlft;
  spec.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  sys::MonteCarloConfig mcConfig;
  mcConfig.trials = 20000;
  mcConfig.seed = 21;
  mcConfig.checkpointHours = {kYear};
  mcConfig.parallelism.threads = 0;
  const auto assumedMc = sys::estimateReliability(spec, mcConfig);
  spec.params = fi::withMeasuredCoverage(measured, spec.params);
  const auto measuredMc = sys::estimateReliability(spec, mcConfig);
  std::printf("\nMonte-Carlo R(1 y), NLFT degraded: assumed %.4f [%.4f, %.4f], "
              "measured %.4f [%.4f, %.4f]\n",
              assumedMc.checkpoints[0].reliability.proportion,
              assumedMc.checkpoints[0].reliability.low,
              assumedMc.checkpoints[0].reliability.high,
              measuredMc.checkpoints[0].reliability.proportion,
              measuredMc.checkpoints[0].reliability.low,
              measuredMc.checkpoints[0].reliability.high);
  return 0;
}
