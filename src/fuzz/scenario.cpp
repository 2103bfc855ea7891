#include "fuzz/scenario.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

namespace nlft::fuzz {

namespace {

/// Reads a field the scenario stores in 32 bits. A value that does not fit
/// is refused: narrowing it first would let a wrapped value pass the legality
/// check.
[[nodiscard]] std::uint32_t asU32(const obs::JsonValue& value, const char* field) {
  const std::int64_t v = value.asInt();
  if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error(std::string{"scenarioFromJson: "} + field + " " + std::to_string(v) +
                             " does not fit 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

[[nodiscard]] std::int64_t clampI64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::min(std::max(v, lo), hi);
}

[[nodiscard]] double clampD(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

[[nodiscard]] auto eventOrderKey(const bbw::Injection& e) {
  return std::make_tuple(e.at, e.node, static_cast<std::uint8_t>(e.kind), e.flipBits);
}

}  // namespace

void clampScenario(Scenario& scenario) {
  bbw::BbwSimConfig& p = scenario.params;
  p.initialSpeedMps = clampD(p.initialSpeedMps, kMinSpeedMps, kMaxSpeedMps);
  p.pedal = clampD(p.pedal, kMinPedal, kMaxPedal);
  p.restartTime = util::Duration::microseconds(
      clampI64(p.restartTime.us(), kMinRestartUs, kMaxRestartUs));

  if (scenario.events.size() > kMaxEvents) scenario.events.resize(kMaxEvents);
  for (bbw::Injection& event : scenario.events) {
    event.node =
        static_cast<net::NodeId>(1 + (event.node == 0 ? 0 : (event.node - 1) % kNodeCount));
    event.at = util::SimTime::fromUs(clampI64(event.at.us(), kMinEventUs, kMaxEventUs));
    if (event.kind == bbw::InjectionKind::BusCorruption) {
      if (event.flipBits.empty()) event.flipBits.push_back(0);
      if (event.flipBits.size() > kMaxFlipBits) event.flipBits.resize(kMaxFlipBits);
      for (std::uint32_t& bit : event.flipBits) bit %= kFlipBitSpace;
      std::sort(event.flipBits.begin(), event.flipBits.end());
    } else {
      event.flipBits.clear();
    }
  }
  std::sort(scenario.events.begin(), scenario.events.end(),
            [](const bbw::Injection& a, const bbw::Injection& b) {
              return eventOrderKey(a) < eventOrderKey(b);
            });
}

bool isLegalScenario(const Scenario& scenario) {
  Scenario clamped = scenario;
  clampScenario(clamped);
  return clamped == scenario;
}

bbw::Injection randomInjection(util::Rng& rng) {
  bbw::Injection event;
  event.kind = static_cast<bbw::InjectionKind>(rng.uniformInt(bbw::kInjectionKindCount));
  event.node = static_cast<net::NodeId>(1 + rng.uniformInt(kNodeCount));
  event.at = util::SimTime::fromUs(kMinEventUs + static_cast<std::int64_t>(rng.uniformInt(
      static_cast<std::uint64_t>(kMaxEventUs - kMinEventUs + 1))));
  if (event.kind == bbw::InjectionKind::BusCorruption) {
    const std::size_t flips = 1 + rng.uniformInt(kMaxFlipBits);
    for (std::size_t f = 0; f < flips; ++f) {
      event.flipBits.push_back(static_cast<std::uint32_t>(rng.uniformInt(kFlipBitSpace)));
    }
  }
  return event;
}

Scenario randomScenario(util::Rng& rng) {
  Scenario scenario;
  scenario.params.nodeType =
      rng.bernoulli(0.5) ? bbw::NodeType::Nlft : bbw::NodeType::FailSilent;
  scenario.params.initialSpeedMps = rng.uniform(kMinSpeedMps, kMaxSpeedMps);
  scenario.params.pedal = rng.uniform(kMinPedal, kMaxPedal);
  scenario.params.restartTime = util::Duration::microseconds(
      kMinRestartUs + static_cast<std::int64_t>(rng.uniformInt(
                          static_cast<std::uint64_t>(kMaxRestartUs - kMinRestartUs + 1))));

  const std::size_t count = 1 + rng.uniformInt(3);  // fresh seeds start small
  for (std::size_t i = 0; i < count; ++i) scenario.events.push_back(randomInjection(rng));
  clampScenario(scenario);
  return scenario;
}

obs::JsonValue scenarioToJson(const Scenario& scenario) {
  obs::JsonValue params = obs::JsonValue::object();
  params.set("node_type", obs::JsonValue::string(
      scenario.params.nodeType == bbw::NodeType::Nlft ? "nlft" : "fail-silent"));
  params.set("initial_speed_mps", obs::JsonValue::number(scenario.params.initialSpeedMps));
  params.set("pedal", obs::JsonValue::number(scenario.params.pedal));
  params.set("restart_time_us", obs::JsonValue::integer(scenario.params.restartTime.us()));

  obs::JsonValue events = obs::JsonValue::array();
  for (const bbw::Injection& event : scenario.events) {
    obs::JsonValue e = obs::JsonValue::object();
    e.set("kind", obs::JsonValue::string(bbw::describe(event.kind)));
    e.set("node", obs::JsonValue::integer(static_cast<std::int64_t>(event.node)));
    e.set("at_us", obs::JsonValue::integer(event.at.us()));
    if (!event.flipBits.empty()) {
      obs::JsonValue bits = obs::JsonValue::array();
      for (const std::uint32_t bit : event.flipBits) {
        bits.push(obs::JsonValue::integer(static_cast<std::int64_t>(bit)));
      }
      e.set("flip_bits", std::move(bits));
    }
    events.push(std::move(e));
  }

  obs::JsonValue root = obs::JsonValue::object();
  root.set("params", std::move(params));
  root.set("events", std::move(events));
  return root;
}

Scenario scenarioFromJson(const obs::JsonValue& json) {
  if (json.kind() != obs::JsonValue::Kind::Object || !json.has("params") ||
      !json.has("events")) {
    throw std::runtime_error("scenarioFromJson: expected {params, events}");
  }
  Scenario scenario;
  const obs::JsonValue& params = json.get("params");
  const std::string nodeType = params.get("node_type").asString();
  if (nodeType == "nlft") {
    scenario.params.nodeType = bbw::NodeType::Nlft;
  } else if (nodeType == "fail-silent") {
    scenario.params.nodeType = bbw::NodeType::FailSilent;
  } else {
    throw std::runtime_error("scenarioFromJson: unknown node_type '" + nodeType + "'");
  }
  scenario.params.initialSpeedMps = params.get("initial_speed_mps").asDouble();
  scenario.params.pedal = params.get("pedal").asDouble();
  scenario.params.restartTime =
      util::Duration::microseconds(params.get("restart_time_us").asInt());

  const obs::JsonValue& events = json.get("events");
  if (events.kind() != obs::JsonValue::Kind::Array) {
    throw std::runtime_error("scenarioFromJson: events must be an array");
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    bbw::Injection event;
    event.kind = bbw::parseInjectionKind(e.get("kind").asString());
    event.node = asU32(e.get("node"), "node");
    event.at = util::SimTime::fromUs(e.get("at_us").asInt());
    if (e.has("flip_bits")) {
      const obs::JsonValue& bits = e.get("flip_bits");
      for (std::size_t b = 0; b < bits.size(); ++b) {
        event.flipBits.push_back(asU32(bits.at(b), "flip_bits"));
      }
    }
    scenario.events.push_back(std::move(event));
  }
  if (!isLegalScenario(scenario)) {
    throw std::runtime_error("scenarioFromJson: scenario outside the legal ranges "
                             "(re-canonicalise with clampScenario)");
  }
  return scenario;
}

}  // namespace nlft::fuzz
