// The coverage-guided fuzzing loop (docs/FUZZING.md).
//
// The search runs in ROUNDS. Within a round the corpus is FROZEN: a batch of
// 25 scenarios is generated (fresh random draws, or mutations of snapshot
// entries once the corpus is non-empty) and executed on
// exec::runChunkedCampaign — generation happens inside the chunk body from
// the chunk's forked Rng against the frozen snapshot, and the per-chunk result
// lists merge in chunk order, so the full round outcome is a pure function
// of (seed, round, chunkSize) at ANY thread count. Between rounds the merged
// results are folded into the corpus and novelty map sequentially, in that
// deterministic order. Oracle violations are deduplicated by (oracle,
// signature) and shrunk to minimal repros.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/scenario.hpp"

namespace nlft::fuzz {

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t budget = 200;  ///< total scenario executions
  exec::Parallelism parallelism{};
  OracleConfig oracle{};  ///< resolved internally (resolveOracleConfig)
};

struct FuzzViolation {
  std::string oracle;
  std::string message;
  Scenario scenario;  ///< as found
  Scenario shrunk;    ///< minimized (== scenario when shrinking was skipped)
  bool wasShrunk = false;
  std::size_t shrinkEvaluations = 0;
};

struct FuzzReport {
  std::size_t executed = 0;
  std::size_t valid = 0;  ///< scenarios whose fault-free reference stopped
  std::size_t rounds = 0;
  std::map<std::string, std::size_t> outcomeCounts;          ///< by outcome class
  std::map<std::string, std::size_t> violationCounts;        ///< by oracle id
  Corpus corpus;
  std::vector<FuzzViolation> violations;  ///< deduplicated, shrunk repros

  /// Deterministic JSON summary — byte-identical for identical searches
  /// (no wall-clock, no absolute paths).
  [[nodiscard]] obs::JsonValue toJson() const;
};

/// Runs the search. Deterministic for fixed (seed, budget, chunkSize) at any
/// thread count.
[[nodiscard]] FuzzReport runFuzzer(const FuzzConfig& config);

/// Replays one case: evaluates the scenario and reports the verdict (used by
/// tools/nlft-fuzz --replay and fuzz_corpus_test). The verdict's violations
/// list is the pass/fail criterion against entry.expectedViolations.
[[nodiscard]] ScenarioVerdict replayCase(const CorpusEntry& entry, const FuzzConfig& config);

}  // namespace nlft::fuzz
