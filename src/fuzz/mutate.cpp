#include "fuzz/mutate.hpp"

#include <algorithm>

namespace nlft::fuzz {

namespace {

void applyOne(util::Rng& rng, Scenario& scenario, const Scenario* donor, MutationKind kind) {
  switch (kind) {
    case MutationKind::ParamNudge: {
      switch (rng.uniformInt(4)) {
        case 0:
          scenario.params.initialSpeedMps +=
              rng.uniform(-3.0, 3.0);  // clamp pulls back into range
          break;
        case 1: scenario.params.pedal += rng.uniform(-0.1, 0.1); break;
        case 2:
          scenario.params.restartTime += util::Duration::microseconds(
              static_cast<std::int64_t>(rng.uniform(-500'000.0, 500'000.0)));
          break;
        default:
          scenario.params.nodeType = scenario.params.nodeType == bbw::NodeType::Nlft
                                         ? bbw::NodeType::FailSilent
                                         : bbw::NodeType::Nlft;
          break;
      }
      break;
    }
    case MutationKind::TimeShift: {
      if (scenario.events.empty()) break;
      const auto delta = util::Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform(-400'000.0, 400'000.0)));
      if (rng.bernoulli(0.5)) {
        bbw::Injection& event = scenario.events[rng.uniformInt(scenario.events.size())];
        event.at = event.at + delta;
      } else {
        for (bbw::Injection& event : scenario.events) event.at = event.at + delta;
      }
      break;
    }
    case MutationKind::ScheduleSplice: {
      const Scenario& source = donor != nullptr ? *donor : scenario;
      if (source.events.empty()) break;
      const std::size_t begin = rng.uniformInt(source.events.size());
      const std::size_t count = 1 + rng.uniformInt(source.events.size() - begin);
      scenario.events.insert(scenario.events.end(), source.events.begin() + begin,
                             source.events.begin() + begin + count);
      break;
    }
    case MutationKind::AddEvent: {
      scenario.events.push_back(randomInjection(rng));
      break;
    }
    case MutationKind::DeleteEvent: {
      if (scenario.events.empty()) break;
      scenario.events.erase(scenario.events.begin() +
                            static_cast<std::ptrdiff_t>(rng.uniformInt(scenario.events.size())));
      break;
    }
    case MutationKind::RetargetEvent: {
      if (scenario.events.empty()) break;
      bbw::Injection& event = scenario.events[rng.uniformInt(scenario.events.size())];
      const auto randomKind = [&rng] {
        return static_cast<bbw::InjectionKind>(rng.uniformInt(bbw::kInjectionKindCount));
      };
      switch (rng.uniformInt(3)) {
        case 0:
          event.node = static_cast<net::NodeId>(1 + rng.uniformInt(kNodeCount));
          break;
        case 1:
          event.kind = randomKind();
          break;
        default:
          if (event.kind == bbw::InjectionKind::BusCorruption) {
            event.flipBits.clear();
            const std::size_t flips = 1 + rng.uniformInt(kMaxFlipBits);
            for (std::size_t f = 0; f < flips; ++f) {
              event.flipBits.push_back(static_cast<std::uint32_t>(rng.uniformInt(kFlipBitSpace)));
            }
          } else {
            event.kind = randomKind();
          }
          break;
      }
      break;
    }
  }
}

}  // namespace

Scenario mutateScenario(util::Rng& rng, const Scenario& base, const Scenario* donor) {
  Scenario scenario = base;
  const std::size_t rounds = rng.bernoulli(0.25) ? 2 : 1;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto kind = static_cast<MutationKind>(rng.uniformInt(kMutationKindCount));
    applyOne(rng, scenario, donor, kind);
  }
  clampScenario(scenario);
  return scenario;
}

}  // namespace nlft::fuzz
