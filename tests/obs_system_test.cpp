// Observability against the system simulation: the differential golden test
// (recorder event counts must exactly match the counts greppable from the
// checked-in golden traces), run-report/campaign reconciliation, and
// bit-identity of the deterministic metrics across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "faults/golden_trace.hpp"
#include "faults/system_campaign.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nlft::fi {
namespace {

std::string goldenPath(const std::string& name) {
  return std::string{NLFT_GOLDEN_DIR} + "/" + name + ".trace";
}

/// (category, name) key of one recorder instant, as the system-sim adapter
/// maps trace lines (src/bbw/system_sim.cpp record() companions).
using EventKey = std::pair<std::string, std::string>;

/// Classifies one golden trace line; returns false for non-event lines
/// (the trailing "result ..." summary).
bool classifyGoldenLine(const std::string& line, EventKey& key) {
  if (line.rfind("t=", 0) != 0) return false;
  std::istringstream in{line};
  std::string time, word;
  in >> time >> word;
  if (word == "inject") {
    std::string kind;
    in >> kind;
    key = {"inject", kind};
  } else if (word == "omission" || word == "undetected-value") {
    key = {"failure", word};
  } else if (word == "node-silent" || word == "node-restarted") {
    key = {"node", word};
  } else if (word == "kernel-error" || word == "job-omitted") {
    key = {"kernel", word};
  } else if (word == "membership") {
    key = {"membership", "membership-change"};
  } else if (word == "bus-drop") {
    key = {"bus", "bus-drop"};
  } else if (word == "vehicle-stopped") {
    key = {"vehicle", "vehicle-stopped"};
  } else {
    ADD_FAILURE() << "unclassified golden trace line: " << line;
    return false;
  }
  return true;
}

// For every catalogued scenario: re-run it with the trace recorder attached
// and reconcile the recorder's (category, name) counts against the counts
// grepped from the checked-in golden trace — exactly, in both directions.
TEST(ObsGoldenDifferential, RecorderCountsMatchGoldenTraceCounts) {
  for (const std::string& name : goldenScenarioNames()) {
    SCOPED_TRACE(name);
    const std::vector<std::string> golden = readTraceFile(goldenPath(name));

    obs::TraceRecorder recorder;
    const std::vector<std::string> actual = recordScenarioTrace(name, {}, &recorder);
    ASSERT_TRUE(compareTraces(golden, actual).identical)
        << "scenario drifted from its golden; differential comparison is void";

    std::map<EventKey, std::uint64_t> expected;
    for (const std::string& line : golden) {
      EventKey key;
      if (classifyGoldenLine(line, key)) ++expected[key];
    }
    ASSERT_FALSE(expected.empty());

    std::uint64_t expectedTotal = 0;
    for (const auto& [key, count] : expected) {
      EXPECT_EQ(recorder.countEvents(key.first, key.second), count)
          << "category=" << key.first << " name=" << key.second;
      expectedTotal += count;
    }

    // And nothing extra: every recorded instant (phase 'i', excluding the
    // synthetic CPU spans and lane metadata) maps back to a golden line.
    std::uint64_t recordedInstants = 0;
    for (const obs::TraceEvent& event : recorder.events()) {
      if (event.phase != 'i') continue;
      ++recordedInstants;
      EXPECT_TRUE(expected.count({event.category, event.name}))
          << "recorder-only event: cat=" << event.category << " name=" << event.name;
    }
    EXPECT_EQ(recordedInstants, expectedTotal);

    // The CPU span export is present and well-formed Chrome JSON.
    EXPECT_GT(recorder.countCategory("cpu"), 0u);
    const obs::JsonValue doc = obs::parseJson(recorder.toJson());
    EXPECT_EQ(doc.get("traceEvents").size(), recorder.events().size());
  }
}

// The golden traces must stay identical whether or not observability is
// attached — instrumentation may never perturb behaviour.
TEST(ObsGoldenDifferential, AttachingObservabilityDoesNotPerturbTheTrace) {
  obs::TraceRecorder recorder;
  obs::Registry metrics;
  const auto plain = recordScenarioTrace("nlft-computation-fault");
  const auto instrumented = recordScenarioTrace("nlft-computation-fault", {}, &recorder, &metrics);
  EXPECT_TRUE(compareTraces(plain, instrumented).identical);
  EXPECT_GT(metrics.count("sim.events_processed"), 0u);
  // The scenario's one fault is masked by TEM (golden: "result temMasked=1").
  EXPECT_EQ(metrics.count("tem.vote.masked_by_vote") +
                metrics.count("tem.vote.masked_by_replacement"),
            1u);
}

SystemCampaignConfig smallCampaign(unsigned threads) {
  SystemCampaignConfig config;
  config.experiments = 48;
  config.seed = 33;
  config.parallelism.threads = threads;
  config.parallelism.chunkSize = 8;
  return config;
}

// Run-report reconciliation: the campaign.* counters the registry exports
// must equal the statistics the campaign returns, counter for counter.
TEST(ObsCampaign, RegistryCountersReconcileWithCampaignStatistics) {
  obs::Registry metrics;
  SystemCampaignConfig config = smallCampaign(2);
  config.metrics = &metrics;
  const SystemCampaignStats stats = runSystemCampaign(config);

  EXPECT_EQ(stats.experiments, config.experiments);
  EXPECT_EQ(metrics.count("campaign.experiments"), stats.experiments);
  EXPECT_EQ(metrics.count("campaign.stops"), stats.stops);
  for (std::size_t o = 0; o < kSystemOutcomeCount; ++o) {
    const std::string name =
        std::string{"campaign.outcome."} + describe(static_cast<SystemOutcome>(o));
    EXPECT_EQ(metrics.count(name), stats.outcomes[o]) << name;
  }
  EXPECT_EQ(metrics.count("campaign.node.injected"), stats.nodeLevel.injected);
  EXPECT_EQ(metrics.count("campaign.node.masked"), stats.nodeLevel.masked);
  EXPECT_EQ(metrics.count("campaign.node.undetected"), stats.nodeLevel.undetected);

  // Per-simulation counters aggregated across all experiments are present.
  EXPECT_GT(metrics.count("sim.events_processed"), 0u);
  EXPECT_GT(metrics.count("bus.frames_delivered"), 0u);
  EXPECT_GT(metrics.count("tem.jobs"), 0u);
  EXPECT_EQ(metrics.count("exec.items"), config.experiments);

  // Profiling output exists but is fenced out of the golden subset.
  EXPECT_TRUE(obs::isNonGoldenMetric("wall.exec.campaign_seconds"));
  EXPECT_GT(metrics.gauge("wall.exec.items_per_second"), 0.0);
}

// The deterministic (golden) subset of the merged registry must be
// bit-identical across thread counts — same fingerprint at 1, 2 and 8
// workers, and the same campaign statistics.
TEST(ObsCampaign, GoldenMetricsAreBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> fingerprints;
  std::vector<std::size_t> stops;
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::Registry metrics;
    SystemCampaignConfig config = smallCampaign(threads);
    config.metrics = &metrics;
    const SystemCampaignStats stats = runSystemCampaign(config);
    fingerprints.push_back(metrics.goldenFingerprint());
    stops.push_back(stats.stops);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_EQ(stops[0], stops[1]);
  EXPECT_EQ(stops[0], stops[2]);
}

// Metrics attached vs detached must not change the campaign statistics.
TEST(ObsCampaign, MetricsDoNotChangeCampaignStatistics) {
  SystemCampaignConfig plain = smallCampaign(2);
  const SystemCampaignStats without = runSystemCampaign(plain);

  obs::Registry metrics;
  SystemCampaignConfig instrumented = smallCampaign(2);
  instrumented.metrics = &metrics;
  const SystemCampaignStats with = runSystemCampaign(instrumented);

  EXPECT_EQ(without.outcomes, with.outcomes);
  EXPECT_EQ(without.stops, with.stops);
  EXPECT_EQ(without.experiments, with.experiments);
}

}  // namespace
}  // namespace nlft::fi
