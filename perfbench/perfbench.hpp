// Shared pieces of the repository benchmark program (see BENCHMARK.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/campaign.hpp"
#include "faults/system_campaign.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, i.e. as close to process start as
/// the program can observe; setup_s is measured from here.
extern const Clock::time_point kProcessStart;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One named workload: a closed batch of campaign experiments pulled chunk
/// by chunk by a fixed number of workers.
struct WorkloadSpec {
  const char* name;
  bool systemLevel;              ///< system campaign (else node-level TEM/FS)
  bool metricsAttached;          ///< obs::Registry attached to the campaign
  bool feedbackStage;            ///< coverage feedback into the reliability models
  std::size_t experiments;       ///< per campaign call
  std::size_t chunkSize;
  unsigned workers;
  std::size_t mcTrials;          ///< Monte-Carlo trials per estimate (feedback stage)
  std::size_t tracedTemExperiments;  ///< fi::runTemExperiment calls probed (machine_fi)
};

[[nodiscard]] const WorkloadSpec* findWorkload(const std::string& name);

/// RAII span around one call into a module's public function. Spans are
/// kept in memory by the trace recorder of the traced run and cost one
/// branch when no recorder is enabled (timed runs). A span nests under the
/// innermost open span of its thread unless an explicit parent id is given
/// (worker-thread chunk spans name the chunk-loop span on the main thread).
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::int64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = -1;
};

/// Tags the spans this thread opens from now on with an experiment (run) id.
void setRunId(std::uint64_t runId);

/// Minimal JSON object writer: numbers keep all 17 significant digits.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& num(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& raw(const std::string& key, const std::string& json);
  Json& flag(const std::string& key, bool value);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& key);
  std::string body_;
};

[[nodiscard]] std::string jsonArray(const std::vector<std::uint64_t>& values);
[[nodiscard]] std::string hex64(std::uint64_t value);
/// FNV-1a over a string (output digests).
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

/// Build and host facts recorded in every result.
[[nodiscard]] std::string factsJson(const WorkloadSpec& workload, std::uint64_t seed);
[[nodiscard]] bool optimizedBuild();
[[nodiscard]] double peakRssMiB();

/// The workload's campaign configurations (inputs derive from `seed` only).
[[nodiscard]] nlft::fi::SystemCampaignConfig systemConfig(const WorkloadSpec& workload,
                                                          std::uint64_t seed);
[[nodiscard]] nlft::fi::CampaignConfig machineConfig(const WorkloadSpec& workload,
                                                     std::uint64_t seed, std::size_t program,
                                                     bool failSilent);

/// Process-level set-up shared by the timed and the traced runs: guest image
/// assembly and analysis, static deployment tables and the golden stop.
struct Setup {
  std::vector<std::string> programNames;
  std::vector<nlft::fi::TaskImage> images;
  std::vector<std::uint64_t> goldenInstructions;
  double goldenStopSeconds = 0.0;
};
[[nodiscard]] Setup runSetup(const WorkloadSpec& workload, std::uint64_t seed);

/// Measured-coverage feedback stage (system_fi): Markov R(1 y) and MTTF,
/// Monte-Carlo R(1 y), each with assumed and with measured parameters.
struct Feedback {
  nlft::fi::CoverageEstimate measured;
  double r1yMarkovAssumed = 0.0;
  double r1yMarkovMeasured = 0.0;
  double mttfAssumedYears = 0.0;
  double mttfMeasuredYears = 0.0;
  double r1yMcAssumed = 0.0;
  double r1yMcMeasured = 0.0;
  double studySeconds = 0.0;  ///< time in the two bbw::BbwStudy evaluations
  double mcSeconds = 0.0;     ///< time in the two sys::estimateReliability calls
};
[[nodiscard]] Feedback runFeedback(const WorkloadSpec& workload, std::uint64_t seed,
                                   const nlft::fi::SystemCampaignStats& stats);

/// Output summaries compared against recorded references (run.py).
[[nodiscard]] std::string systemOutputsJson(const nlft::fi::SystemCampaignStats& stats,
                                            const nlft::obs::Registry* metrics,
                                            const Feedback* feedback);
[[nodiscard]] std::string temOutputsJson(const nlft::fi::TemCampaignStats& stats);
[[nodiscard]] std::string fsOutputsJson(const nlft::fi::FsCampaignStats& stats);

/// `run` mode: set-up plus one timed campaign call; prints one JSON line.
int runTimed(const WorkloadSpec& workload, std::uint64_t seed);
/// `trace` mode: traced re-enactment plus layer probes; prints one JSON line
/// and writes the span file to `spansPath`.
int runTraced(const WorkloadSpec& workload, std::uint64_t seed, const std::string& spansPath);

}  // namespace perfbench
