// Structured scenario model of the coverage-guided fuzzer (docs/FUZZING.md).
//
// A Scenario is everything one adversarial experiment needs to be replayed
// bit-identically: the stop's configuration, whose node type, initial speed,
// pedal position and restart time the fuzzer perturbs (each confined to the
// legal range the static verifier certifies the deployment for), plus a
// fault SCHEDULE, an ordered list of bbw::Injection records. Correlated
// bursts are simply several kernel-error injections sharing one instant, so
// the schedule subsumes every scenario kind of the fi:: system campaigns.
//
// Scenarios serialise to self-contained JSON case files (obs::json, sorted
// keys, fixed number format) — the corpus under tests/corpus/ and every
// minimized repro the fuzzer emits use exactly this format.
#pragma once

#include <cstdint>
#include <vector>

#include "bbw/system_sim.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace nlft::fuzz {

/// The legal ranges of the generator; clampScenario() enforces them. They
/// keep every value inside what the verifier's certified deployment
/// tolerates (and inside the region where the fault-free stop completes well
/// before the horizon, so the missed-stop oracle is meaningful).
inline constexpr double kMinSpeedMps = 15.0;
inline constexpr double kMaxSpeedMps = 40.0;
inline constexpr double kMinPedal = 0.6;
inline constexpr double kMaxPedal = 1.0;
inline constexpr std::int64_t kMinRestartUs = 1'000'000;
inline constexpr std::int64_t kMaxRestartUs = 5'000'000;
inline constexpr std::int64_t kMinEventUs = 100'000;    ///< after the control loop settles
inline constexpr std::int64_t kMaxEventUs = 8'000'000;  ///< inside every legal stop
inline constexpr std::size_t kMaxEvents = 8;
inline constexpr std::size_t kMaxFlipBits = 3;
inline constexpr std::uint32_t kFlipBitSpace = 512;  ///< net::flipFrameBit index space
inline constexpr net::NodeId kNodeCount = 6;

struct Scenario {
  bbw::BbwSimConfig params;
  std::vector<bbw::Injection> events;

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Clamps every field into the legal ranges and canonicalises the event
/// order (by time, then node, then kind) so equal scenarios serialise
/// identically regardless of how they were produced.
void clampScenario(Scenario& scenario);

/// True when the scenario is already clamped and canonical.
[[nodiscard]] bool isLegalScenario(const Scenario& scenario);

/// Uniform random scenario inside the legal ranges (already canonical).
[[nodiscard]] Scenario randomScenario(util::Rng& rng);

/// One uniform random injection inside the legal ranges.
[[nodiscard]] bbw::Injection randomInjection(util::Rng& rng);

/// Deterministic JSON encoding (sorted keys; see docs/FUZZING.md).
[[nodiscard]] obs::JsonValue scenarioToJson(const Scenario& scenario);
/// Parses a scenario back; throws std::runtime_error on schema violations.
[[nodiscard]] Scenario scenarioFromJson(const obs::JsonValue& json);

}  // namespace nlft::fuzz
