// Fault-injection campaign on the interpreted brake-by-wire wheel task.
//
// Reproduces the methodology behind the paper's parameter assumptions
// (Section 3.3, derived from the fault-injection study [7]): inject one
// transient fault per experiment into the simulated COTS processor running
// the wheel slip-control task, execute the TEM protocol, classify the
// outcome, and estimate P_T, P_OM and the coverage. The same campaign on a
// single-copy fail-silent node shows the coverage gap TEM closes.
//
// The campaign runs on the parallel engine with live progress reporting;
// the estimates are identical for every thread count (see docs/BENCHMARKS.md).
//
//   $ ./fault_injection_campaign [experiments] [threads]   (threads 0 = all cores)
//
// Both arguments are whole decimal numbers; anything else prints the usage
// line and exits 2 before any campaign starts.
#include <cstdio>
#include <stdexcept>

#include "analysis/analyzer.hpp"
#include "bbw/wheel_task.hpp"
#include "flag_parse.hpp"

using namespace nlft;

namespace {

int usage() {
  std::fputs(
      "usage: fault_injection_campaign [experiments] [threads]\n"
      "  experiments >= 1 (default 5000); threads >= 0 (default 0 = all cores)\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) return usage();
  std::size_t experiments = 5000;
  unsigned threads = 0;
  try {
    if (argc > 1) experiments = cli::parseFlag<std::size_t>("experiments", argv[1], 1);
    if (argc > 2) threads = cli::parseFlag<unsigned>("threads", argv[2]);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "fault_injection_campaign: %s\n", error.what());
    return usage();
  }

  const fi::TaskImage image = bbw::makeWheelTaskImage(800 * 256, 50, 600 * 256);
  const fi::CopyRun golden = fi::goldenRun(image);
  std::printf("wheel task: %llu instructions per copy, output {%u, %u}\n",
              static_cast<unsigned long long>(golden.instructions), golden.output[0],
              golden.output[1]);

  // The image's execution-time budget and MMU regions come from the static
  // analyzer (src/analysis, `nlft-analyze wheel` prints the full report).
  // Cross-check the machine against the analysis before trusting either: the
  // fault-free PC trace must follow the statically derived CFG.
  const analysis::ProgramAnalysis& analysis = bbw::wheelTaskAnalysis();
  const fi::TracedRun traced = fi::runTracedCopy(image, std::nullopt);
  const analysis::TraceCheck check = analysis::checkTrace(analysis.cfg, traced.pcTrace);
  std::printf("static analysis: WCET %llu instr, budget %llu, %zu legal paths; "
              "golden trace vs CFG: %s\n",
              static_cast<unsigned long long>(analysis.timing.wcetInstructions),
              static_cast<unsigned long long>(analysis.budgetInstructions),
              analysis.paths.paths.size(), check.controlFlowIntact ? "ok" : "VIOLATED");

  fi::CampaignConfig config;
  config.experiments = experiments;
  config.seed = 42;
  config.jobBudgetFactor = 3.8;
  config.parallelism.threads = threads;
  config.onProgress = [](const exec::ProgressSnapshot& p) {
    std::fprintf(stderr, "\r  %zu/%zu experiments  %.0f/s  ETA %.1fs  (%zu workers)   ",
                 p.completedItems, p.totalItems, p.itemsPerSecond, p.etaSeconds,
                 p.perWorkerItems.size());
    if (p.completedItems == p.totalItems) std::fprintf(stderr, "\n");
  };

  std::printf("\nTEM campaign (%zu experiments, one transient fault each, %u threads):\n",
              experiments, config.parallelism.resolvedThreads());
  const fi::TemCampaignStats tem = fi::runTemCampaign(image, config);
  std::printf("  not activated          %6zu\n", tem.notActivated);
  std::printf("  masked by ECC          %6zu\n", tem.maskedByEcc);
  std::printf("  masked by vote         %6zu\n", tem.maskedByVote);
  std::printf("  masked by replacement  %6zu\n", tem.maskedByRestart);
  std::printf("  omission (vote failed) %6zu\n", tem.omissionVoteFailed);
  std::printf("  omission (no budget)   %6zu\n", tem.omissionNoBudget);
  std::printf("  undetected wrong output%6zu\n", tem.undetected);
  const auto pMask = tem.pMask();
  const auto pOmission = tem.pOmission();
  const auto coverage = tem.coverage();
  std::printf("  => P_T  = %.3f [%.3f, %.3f]   (paper assumes 0.90)\n", pMask.proportion,
              pMask.low, pMask.high);
  std::printf("  => P_OM = %.3f [%.3f, %.3f]   (paper assumes 0.05)\n", pOmission.proportion,
              pOmission.low, pOmission.high);
  std::printf("  => C_D  = %.4f [%.4f, %.4f]  (paper assumes 0.99)\n", coverage.proportion,
              coverage.low, coverage.high);

  std::printf("\nFail-silent baseline (single copy, same faults):\n");
  const fi::FsCampaignStats fs = fi::runFsCampaign(image, config);
  std::printf("  not activated          %6zu\n", fs.notActivated);
  std::printf("  masked by ECC          %6zu\n", fs.maskedByEcc);
  std::printf("  fail-silent (safe)     %6zu\n", fs.failSilent);
  std::printf("  undetected wrong output%6zu\n", fs.undetected);
  const auto fsCoverage = fs.coverage();
  std::printf("  => C_D  = %.4f [%.4f, %.4f]\n", fsCoverage.proportion, fsCoverage.low,
              fsCoverage.high);

  std::printf("\nTEM turns silent data corruptions into masked errors: every fault an FS\n"
              "node delivers undetected is caught by the TEM comparison.\n");
  return 0;
}
