#include "faults/golden_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace nlft::fi {

namespace {

using bbw::BbwSimConfig;
using bbw::BbwSystemSim;
using bbw::Injection;
using bbw::InjectionKind;
using util::SimTime;

struct ScenarioEntry {
  const char* name;
  bbw::NodeType nodeType;
  std::vector<Injection> schedule;  ///< armed in order on a fresh simulation
};

SimTime at(double seconds) {
  return SimTime::fromUs(static_cast<std::int64_t>(seconds * 1e6));
}

// The catalogue covers every injection family the system campaign samples,
// each at a fixed instant so traces are reproducible. Scenarios that take a
// node down run long enough for the mu_R restart to appear in the trace, so
// a perturbed restart time is caught by the harness.
const std::vector<ScenarioEntry>& catalogue() {
  static const std::vector<ScenarioEntry> entries = {
      {"nlft-computation-fault", bbw::NodeType::Nlft,
       {{InjectionKind::ComputationFault, bbw::kWheelNodeBase, at(0.5), {}}}},
      {"nlft-omission-value", bbw::NodeType::Nlft,
       {{InjectionKind::OmissionFailure, bbw::kWheelNodeBase + 1, at(0.4), {}},
        {InjectionKind::ValueFailure, bbw::kWheelNodeBase + 2, at(0.8), {}}}},
      {"fs-kernel-error-restart", bbw::NodeType::FailSilent,
       {{InjectionKind::KernelError, bbw::kWheelNodeBase, at(0.4), {}}}},
      {"bus-corruption", bbw::NodeType::Nlft,
       {{InjectionKind::BusCorruption, bbw::kCuA, at(0.5), {}},
        {InjectionKind::BusCorruption, bbw::kWheelNodeBase + 3, at(0.9), {7, 133, 260}}}},
      {"cu-failover", bbw::NodeType::Nlft,
       {{InjectionKind::KernelError, bbw::kCuA, at(0.5), {}}}},
      {"correlated-burst", bbw::NodeType::Nlft,
       {{InjectionKind::KernelError, bbw::kWheelNodeBase, at(0.6), {}},
        {InjectionKind::KernelError, bbw::kWheelNodeBase + 2, at(0.6), {}}}},
  };
  return entries;
}

const ScenarioEntry& entryNamed(const std::string& name) {
  for (const ScenarioEntry& entry : catalogue()) {
    if (name == entry.name) return entry;
  }
  throw std::invalid_argument("unknown golden-trace scenario: " + name);
}

/// `base` with the entry's node type.
BbwSimConfig configFor(const ScenarioEntry& entry, const BbwSimConfig& base) {
  BbwSimConfig config = base;
  config.nodeType = entry.nodeType;
  return config;
}

void arm(BbwSystemSim& sim, const ScenarioEntry& entry) {
  for (const Injection& injection : entry.schedule) sim.inject(injection);
}

void appendResultSummary(const bbw::BbwSimResult& result, std::vector<std::string>& lines) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "result stopped=%d distanceM=%.3f stopTimeS=%.3f",
                result.stopped ? 1 : 0, result.stoppingDistanceM, result.stopTimeS);
  lines.emplace_back(buffer);
  std::snprintf(buffer, sizeof(buffer),
                "result commands=%llu duplicatesDropped=%llu busDropped=%llu omitted=%llu "
                "undetectedValues=%llu",
                static_cast<unsigned long long>(result.commandFramesDelivered),
                static_cast<unsigned long long>(result.duplicateCommandsDropped),
                static_cast<unsigned long long>(result.busFramesDropped),
                static_cast<unsigned long long>(result.commandsOmitted),
                static_cast<unsigned long long>(result.undetectedValueDeliveries));
  lines.emplace_back(buffer);
  std::uint64_t wheelOmissions = 0;
  for (const std::uint64_t omissions : result.wheelOmissions) wheelOmissions += omissions;
  std::snprintf(buffer, sizeof(buffer),
                "result temMasked=%llu failSilent=%llu wheelOmissions=%llu nodesDown=%zu",
                static_cast<unsigned long long>(result.errorsMaskedByTem),
                static_cast<unsigned long long>(result.failSilentEvents),
                static_cast<unsigned long long>(wheelOmissions), result.nodesDownAtEnd.size());
  lines.emplace_back(buffer);
}

}  // namespace

std::vector<std::string> goldenScenarioNames() {
  std::vector<std::string> names;
  for (const ScenarioEntry& entry : catalogue()) names.emplace_back(entry.name);
  return names;
}

std::int64_t goldenScenarioEarliestUs(const std::string& name) {
  const std::vector<Injection>& schedule = entryNamed(name).schedule;
  return std::min_element(schedule.begin(), schedule.end(),
                          [](const Injection& a, const Injection& b) { return a.at < b.at; })
      ->at.us();
}

std::vector<std::string> recordScenarioTrace(const std::string& name,
                                             const bbw::BbwSimConfig& base) {
  return recordScenarioTrace(name, base, nullptr);
}

std::vector<std::string> recordScenarioTrace(const std::string& name, const bbw::BbwSimConfig& base,
                                             obs::TraceRecorder* recorder,
                                             obs::Registry* metrics) {
  const ScenarioEntry& entry = entryNamed(name);
  BbwSystemSim sim{configFor(entry, base)};
  std::vector<std::string> lines;
  sim.setTraceSink([&lines](const std::string& line) { lines.push_back(line); });
  if (recorder != nullptr) sim.setTraceRecorder(recorder);
  if (metrics != nullptr) sim.setMetricsRegistry(metrics);
  arm(sim, entry);
  appendResultSummary(sim.run(), lines);
  return lines;
}

std::vector<std::string> recordScenarioTraceResumed(const std::string& name,
                                                    std::int64_t splitAtUs,
                                                    const bbw::BbwSimConfig& base) {
  const ScenarioEntry& entry = entryNamed(name);
  const BbwSimConfig config = configFor(entry, base);
  BbwSystemSim producer{config};
  arm(producer, entry);
  producer.runUntil(SimTime::fromUs(splitAtUs));
  const std::vector<std::uint8_t> checkpoint = producer.saveState();

  BbwSystemSim resumed{config};
  std::vector<std::string> lines;
  resumed.setTraceSink([&lines](const std::string& line) { lines.push_back(line); });
  resumed.restoreState(checkpoint);
  appendResultSummary(resumed.run(), lines);
  return lines;
}

std::vector<std::string> recordScenarioTraceForked(const std::string& name,
                                                   std::int64_t forkBeforeUs,
                                                   const bbw::BbwSimConfig& base) {
  const ScenarioEntry& entry = entryNamed(name);
  const BbwSimConfig config = configFor(entry, base);

  // The clean producer stands in for a campaign's shared golden baseline:
  // no injections armed, checkpointed at the fork point.
  BbwSystemSim clean{config};
  clean.runUntil(SimTime::fromUs(forkBeforeUs));
  if (clean.simulator().now().us() >= goldenScenarioEarliestUs(name)) {
    throw std::invalid_argument(
        "recordScenarioTraceForked: fork point not strictly before the first injection");
  }
  const std::vector<std::uint8_t> checkpoint = clean.saveState();

  BbwSystemSim forked{config};
  std::vector<std::string> lines;
  forked.setTraceSink([&lines](const std::string& line) { lines.push_back(line); });
  forked.restoreState(checkpoint);
  arm(forked, entry);
  appendResultSummary(forked.run(), lines);
  return lines;
}

TraceDiff compareTraces(const std::vector<std::string>& expected,
                        const std::vector<std::string>& actual) {
  TraceDiff diff;
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      diff.identical = false;
      diff.line = i + 1;
      diff.expected = expected[i];
      diff.actual = actual[i];
      return diff;
    }
  }
  if (expected.size() != actual.size()) {
    diff.identical = false;
    diff.line = common + 1;
    diff.expected = common < expected.size() ? expected[common] : "<missing>";
    diff.actual = common < actual.size() ? actual[common] : "<missing>";
  }
  return diff;
}

std::vector<std::string> readTraceFile(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open golden trace: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void writeTraceFile(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write golden trace: " + path);
  for (const std::string& line : lines) out << line << '\n';
}

}  // namespace nlft::fi
