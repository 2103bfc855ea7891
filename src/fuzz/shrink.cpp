#include "fuzz/shrink.hpp"

#include <algorithm>
#include <cmath>

namespace nlft::fuzz {

namespace {

class Shrinker {
 public:
  Shrinker(const std::function<bool(const Scenario&)>& stillFails, std::size_t maxEvaluations)
      : stillFails_{stillFails}, maxEvaluations_{maxEvaluations} {}

  /// Evaluates a canonicalised candidate; true if it still fails (and is
  /// actually different from `current` — re-evaluating the same scenario
  /// would waste budget).
  [[nodiscard]] bool accepts(const Scenario& current, Scenario& candidate) {
    clampScenario(candidate);
    if (candidate == current) return false;
    if (evaluations_ >= maxEvaluations_) return false;
    ++evaluations_;
    return stillFails_(candidate);
  }

  [[nodiscard]] bool budgetLeft() const { return evaluations_ < maxEvaluations_; }
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }

 private:
  const std::function<bool(const Scenario&)>& stillFails_;
  std::size_t maxEvaluations_;
  std::size_t evaluations_ = 0;
};

/// One ddmin-style pass: try deleting chunks of `chunk` consecutive events.
/// Returns true when a deletion stuck.
bool deleteChunkPass(Scenario& scenario, std::size_t chunk, Shrinker& shrinker) {
  bool shrunk = false;
  for (std::size_t begin = 0; begin + chunk <= scenario.events.size();) {
    Scenario candidate = scenario;
    candidate.events.erase(candidate.events.begin() + static_cast<std::ptrdiff_t>(begin),
                           candidate.events.begin() + static_cast<std::ptrdiff_t>(begin + chunk));
    if (shrinker.accepts(scenario, candidate)) {
      scenario = std::move(candidate);
      shrunk = true;  // same begin now points at the next chunk
    } else {
      ++begin;
    }
    if (!shrinker.budgetLeft()) break;
  }
  return shrunk;
}

void deleteEvents(Scenario& scenario, Shrinker& shrinker, std::size_t& removed) {
  const std::size_t before = scenario.events.size();
  for (std::size_t chunk = std::max<std::size_t>(scenario.events.size() / 2, 1); chunk >= 1;) {
    const bool shrunk = deleteChunkPass(scenario, chunk, shrinker);
    if (!shrinker.budgetLeft()) break;
    if (shrunk && chunk > 1) continue;  // retry the same granularity first
    if (chunk == 1 && shrunk) continue; // keep sweeping singles until stable
    chunk /= 2;
  }
  removed += before - scenario.events.size();
}

}  // namespace

ShrinkResult shrinkScenario(const Scenario& seed,
                            const std::function<bool(const Scenario&)>& stillFails,
                            std::size_t maxEvaluations) {
  ShrinkResult result;
  result.scenario = seed;
  clampScenario(result.scenario);

  Shrinker shrinker{stillFails, maxEvaluations};
  {
    // The seed must fail; otherwise there is nothing to preserve.
    Scenario probe = result.scenario;
    if (!stillFails(probe)) {
      result.evaluations = 1;
      return result;
    }
  }

  Scenario& scenario = result.scenario;
  deleteEvents(scenario, shrinker, result.removedEvents);

  // Parameter bisection toward the defaults.
  const bbw::BbwSimConfig defaults{};
  const auto trySet = [&](auto apply, auto target, auto get) {
    constexpr int kIterations = 10;
    {
      Scenario candidate = scenario;
      apply(candidate, target);
      if (shrinker.accepts(scenario, candidate)) {
        scenario = std::move(candidate);
        return;
      }
    }
    auto lo = target;  // known-passing (or at least not known-failing) side
    for (int i = 0; i < kIterations && shrinker.budgetLeft(); ++i) {
      const auto hi = get(scenario);  // known-failing side
      const auto mid = lo + (hi - lo) / 2;
      if (mid == lo || mid == hi) break;
      Scenario candidate = scenario;
      apply(candidate, mid);
      if (shrinker.accepts(scenario, candidate)) {
        scenario = std::move(candidate);
      } else {
        lo = mid;
      }
    }
  };

  trySet([](Scenario& s, double v) { s.params.initialSpeedMps = v; }, defaults.initialSpeedMps,
         [](const Scenario& s) { return s.params.initialSpeedMps; });
  trySet([](Scenario& s, double v) { s.params.pedal = v; }, defaults.pedal,
         [](const Scenario& s) { return s.params.pedal; });
  trySet(
      [](Scenario& s, std::int64_t v) { s.params.restartTime = util::Duration::microseconds(v); },
      defaults.restartTime.us(), [](const Scenario& s) { return s.params.restartTime.us(); });

  // Time bisection: normalise each surviving event toward the earliest
  // legal instant. Event identity is positional, so iterate by index and
  // re-check the size after each attempt (clamping re-sorts, but the count
  // is stable under time changes).
  for (std::size_t i = 0; i < scenario.events.size(); ++i) {
    const std::size_t index = i;
    trySet(
        [index](Scenario& s, std::int64_t v) {
          if (index < s.events.size()) s.events[index].at = util::SimTime::fromUs(v);
        },
        kMinEventUs,
        [index](const Scenario& s) {
          return index < s.events.size() ? s.events[index].at.us() : std::int64_t{0};
        });
  }

  // A successful parameter change can make further events redundant.
  deleteEvents(scenario, shrinker, result.removedEvents);

  result.evaluations = shrinker.evaluations() + 1;  // + the initial probe
  return result;
}

}  // namespace nlft::fuzz
