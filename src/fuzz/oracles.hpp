// Differential and metamorphic oracles of the scenario fuzzer.
//
// Every executed scenario is checked against properties that hold by design
// of the NLFT architecture, independently of any hand-picked expectation:
//
//   diff.e2e-bound        the static verifier's sample->apply bound for the
//                         scenario's configuration dominates the measured
//                         e2e.latency.max_us of the run (the same contract
//                         tests/verify_differential_test.cpp pins on the six
//                         golden traces, here enforced on EVERY fuzzed run);
//   nlft.single-transient a single transient (any event except the
//                         by-construction-undetectable value failure) on the
//                         verified NLFT deployment never produces a missed
//                         stop — the paper's core claim;
//   meta.tem-monotone     replaying the same schedule with TEM disabled
//                         (fail-silent baseline) must not yield a STRICTLY
//                         LESS severe outcome, and must not mask more: TEM
//                         only ever improves the outcome class;
//   det.replay            replay determinism: a second, independent straight
//                         run of the scenario with its own metrics registry
//                         must reproduce the first run's metrics fingerprint
//                         byte-for-byte (the campaign layer separately pins
//                         thread-count bit-identity).
//
// Violations carry the oracle id plus the numbers that refute the property;
// the shrinker reduces the scenario while the SAME oracle keeps failing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bbw/system_sim.hpp"
#include "faults/system_campaign.hpp"
#include "fuzz/scenario.hpp"

namespace nlft::fuzz {

struct OracleConfig {
  /// Static sample->apply bounds in us; 0 = derive from the registered
  /// verifier configurations (verify::bbwNlftConfig / bbwFailSilentConfig).
  /// Tests override these to emulate a weakened (reverted) verifier check.
  std::int64_t e2eBoundNlftUs = 0;
  std::int64_t e2eBoundFsUs = 0;

  /// Metamorphic TEM comparison costs one extra fail-silent run per NLFT
  /// scenario; replay determinism costs one re-run. Both default on.
  bool checkTemMonotone = true;
  bool checkReplayDeterminism = true;
};

/// Resolves the 0-defaults of `config` against the registered verifier
/// configurations (computed once, cached).
[[nodiscard]] OracleConfig resolveOracleConfig(OracleConfig config);

/// Severity order of an outcome (index in fi::SystemOutcome).
[[nodiscard]] std::size_t outcomeSeverity(fi::SystemOutcome outcome);

/// Coarse behaviour signature of one executed scenario — the novelty key of
/// the corpus. Deliberately quantised: two runs that differ only in noise
/// (exact distances, counter values) share a signature; runs that differ in
/// WHICH mechanisms fired do not.
struct ScenarioSignature {
  std::string outcome;       ///< fi::describe(SystemOutcome)
  std::string nodeType;      ///< "nlft" | "fail-silent"
  bool stopped = false;
  std::size_t distanceBucket = 0;   ///< |distance - golden| in log-ish buckets
  std::size_t omissionBucket = 0;   ///< extra omissions vs golden
  std::size_t busDropBucket = 0;    ///< extra bus drops vs golden
  std::size_t nodesDown = 0;        ///< nodes still down at the end
  bool masking = false;             ///< TEM masked at least one error
  bool failSilent = false;
  bool undetectedValue = false;
  std::array<std::size_t, bbw::kInjectionKindCount> eventKindBuckets{};  ///< 0/1/2(=2+)

  /// Canonical one-line form (deterministic; feeds key()).
  [[nodiscard]] std::string canonical() const;
  /// CRC-32 of canonical() — the novelty-map key.
  [[nodiscard]] std::uint32_t key() const;
};

struct OracleViolation {
  std::string oracle;   ///< stable id, e.g. "diff.e2e-bound"
  std::string message;  ///< the numbers that refute the property
};

/// Everything the fuzzer learns from one scenario execution.
struct ScenarioVerdict {
  bool valid = false;  ///< fault-free stop completed inside the horizon
  fi::SystemOutcome outcome = fi::SystemOutcome::Masked;
  ScenarioSignature signature;
  double stoppingDistanceM = 0.0;
  double goldenDistanceM = 0.0;
  double e2eMaxUs = 0.0;
  std::int64_t e2eBoundUs = 0;
  std::vector<OracleViolation> violations;
};

/// Shared fault-free reference runs, keyed by the stop's configuration.
/// Golden results are pure functions of the configuration, so the cache
/// only affects speed, never results; safe to share across worker threads.
/// A miss runs the fault-free stop once, straight from t = 0.
class GoldenCache {
 public:
  [[nodiscard]] bbw::BbwSimResult get(const bbw::BbwSimConfig& config);

 private:
  std::mutex mutex_;
  std::map<std::string, bbw::BbwSimResult> cache_;
};

/// Runs the scenario (plus its fault-free reference and, when configured,
/// the fail-silent counterpart and a replay) and checks every oracle.
/// `config` must be resolved (resolveOracleConfig) when bounds are derived.
[[nodiscard]] ScenarioVerdict evaluateScenario(const Scenario& scenario,
                                               const OracleConfig& config,
                                               GoldenCache* goldenCache = nullptr);

/// Convenience predicate for the shrinker: does the scenario still violate
/// the given oracle id?
[[nodiscard]] std::function<bool(const Scenario&)> violatesOracle(
    std::string oracleId, OracleConfig config, GoldenCache* goldenCache = nullptr);

}  // namespace nlft::fuzz
