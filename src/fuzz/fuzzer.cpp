#include "fuzz/fuzzer.hpp"

#include <set>
#include <utility>

#include "exec/chunked_campaign.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/shrink.hpp"

namespace nlft::fuzz {

namespace {

/// Scenarios per round: the window in which the corpus stays frozen.
constexpr std::size_t kBatchSize = 25;
/// Probability of mutating a corpus entry instead of drawing a fresh random
/// scenario, once the corpus is non-empty.
constexpr double kMutateProbability = 0.75;
/// Shrink at most this many distinct (oracle, signature) violations; the
/// rest are still counted and reported unshrunk.
constexpr std::size_t kMaxShrinks = 4;

/// One executed scenario, carried from the workers to the sequential fold.
struct RoundItem {
  Scenario scenario;
  ScenarioVerdict verdict;
};

/// Chunk-local accumulator; merge() appends in chunk order, so the merged
/// item list is ordered by (chunk, item) — a pure function of the round.
struct RoundStats {
  std::size_t experiments = 0;
  std::vector<RoundItem> items;

  void merge(const RoundStats& other) {
    experiments += other.experiments;
    items.insert(items.end(), other.items.begin(), other.items.end());
  }
};

[[nodiscard]] std::uint64_t roundSeed(std::uint64_t seed, std::size_t round) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(round) + 1));
  return util::splitmix64(state);
}

[[nodiscard]] Scenario generateScenario(util::Rng& rng, const std::vector<CorpusEntry>& snapshot) {
  if (snapshot.empty() || !rng.bernoulli(kMutateProbability)) return randomScenario(rng);
  const Scenario& base = snapshot[rng.uniformInt(snapshot.size())].scenario;
  const Scenario& donor = snapshot[rng.uniformInt(snapshot.size())].scenario;
  return mutateScenario(rng, base, &donor);
}

}  // namespace

obs::JsonValue FuzzReport::toJson() const {
  obs::JsonValue root = obs::JsonValue::object();
  root.set("executed", obs::JsonValue::integer(static_cast<std::int64_t>(executed)));
  root.set("valid", obs::JsonValue::integer(static_cast<std::int64_t>(valid)));
  root.set("rounds", obs::JsonValue::integer(static_cast<std::int64_t>(rounds)));

  obs::JsonValue outcomes = obs::JsonValue::object();
  for (const auto& [outcome, count] : outcomeCounts) {
    outcomes.set(outcome, obs::JsonValue::integer(static_cast<std::int64_t>(count)));
  }
  root.set("outcomes", std::move(outcomes));

  obs::JsonValue violationTotals = obs::JsonValue::object();
  for (const auto& [oracle, count] : violationCounts) {
    violationTotals.set(oracle, obs::JsonValue::integer(static_cast<std::int64_t>(count)));
  }
  root.set("violation_counts", std::move(violationTotals));

  obs::JsonValue corpusJson = obs::JsonValue::array();
  for (const CorpusEntry& entry : corpus.entries()) {
    obs::JsonValue e = obs::JsonValue::object();
    e.set("signature", obs::JsonValue::string(entry.signature));
    e.set("outcome", obs::JsonValue::string(entry.outcome));
    e.set("scenario", scenarioToJson(entry.scenario));
    corpusJson.push(std::move(e));
  }
  root.set("corpus", std::move(corpusJson));

  obs::JsonValue violationsJson = obs::JsonValue::array();
  for (const FuzzViolation& violation : violations) {
    obs::JsonValue v = obs::JsonValue::object();
    v.set("oracle", obs::JsonValue::string(violation.oracle));
    v.set("message", obs::JsonValue::string(violation.message));
    v.set("scenario", scenarioToJson(violation.scenario));
    v.set("shrunk", scenarioToJson(violation.shrunk));
    v.set("was_shrunk", obs::JsonValue::boolean(violation.wasShrunk));
    violationsJson.push(std::move(v));
  }
  root.set("violations", std::move(violationsJson));
  return root;
}

FuzzReport runFuzzer(const FuzzConfig& config) {
  const OracleConfig oracle = resolveOracleConfig(config.oracle);
  GoldenCache cache;
  FuzzReport report;
  std::set<std::pair<std::string, std::uint32_t>> violationKeys;

  while (report.executed < config.budget) {
    const std::size_t batch = std::min(kBatchSize, config.budget - report.executed);
    // Frozen snapshot: workers read it concurrently, nobody writes until
    // the sequential fold below.
    const std::vector<CorpusEntry> snapshot = report.corpus.entries();

    const RoundStats stats =
        exec::runChunkedCampaign<RoundStats>(
            batch, roundSeed(config.seed, report.rounds), config.parallelism,
            [&](util::Rng& rng, std::size_t count, RoundStats& roundStats) {
              for (std::size_t i = 0; i < count; ++i) {
                RoundItem item;
                item.scenario = generateScenario(rng, snapshot);
                item.verdict = evaluateScenario(item.scenario, oracle, &cache);
                roundStats.items.push_back(std::move(item));
              }
            })
            .stats;

    // Sequential fold in deterministic (chunk, item) order.
    for (const RoundItem& item : stats.items) {
      if (!item.verdict.valid) continue;
      ++report.valid;
      ++report.outcomeCounts[fi::describe(item.verdict.outcome)];
      report.corpus.addIfNovel(makeCorpusEntry(item.scenario, item.verdict));
      for (const OracleViolation& violation : item.verdict.violations) {
        ++report.violationCounts[violation.oracle];
        if (!violationKeys
                 .emplace(violation.oracle, item.verdict.signature.key())
                 .second) {
          continue;  // same oracle on the same behaviour class: one repro is enough
        }
        FuzzViolation repro;
        repro.oracle = violation.oracle;
        repro.message = violation.message;
        repro.scenario = item.scenario;
        repro.shrunk = item.scenario;
        if (report.violations.size() < kMaxShrinks) {
          const ShrinkResult shrunk =
              shrinkScenario(item.scenario, violatesOracle(violation.oracle, oracle, &cache));
          repro.shrunk = shrunk.scenario;
          repro.wasShrunk = true;
          repro.shrinkEvaluations = shrunk.evaluations;
        }
        report.violations.push_back(std::move(repro));
      }
    }
    report.executed += stats.experiments;
    ++report.rounds;
  }
  return report;
}

ScenarioVerdict replayCase(const CorpusEntry& entry, const FuzzConfig& config) {
  return evaluateScenario(entry.scenario, resolveOracleConfig(config.oracle), nullptr);
}

}  // namespace nlft::fuzz
