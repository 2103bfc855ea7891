// Scenario minimization (shrinking).
//
// Given a failing scenario and a predicate "does this still fail?", the
// shrinker produces a smaller scenario that still fails:
//
//   1. greedy schedule-event deletion — ddmin-style: first try dropping
//      contiguous halves/quarters of the schedule, then single events, and
//      restart whenever a deletion sticks, until no single event can be
//      removed;
//   2. parameter bisection — each scalar deployment parameter is bisected
//      toward its default value (binary search on the failing/passing
//      boundary, fixed iteration count so runtime is bounded);
//   3. time bisection — each surviving event's injection time is bisected
//      toward the earliest legal instant, which normalises repros that
//      differ only in when the fault lands.
//
// The predicate is typically violatesOracle(...) from oracles.hpp, so a
// shrink preserves the SPECIFIC oracle violation, not just "something is
// wrong". Every candidate is canonicalised with clampScenario before
// evaluation; the result is therefore directly serialisable as a corpus
// case. Deterministic: no randomness, candidate order is fixed.
#pragma once

#include <cstddef>
#include <functional>

#include "fuzz/scenario.hpp"

namespace nlft::fuzz {

struct ShrinkResult {
  Scenario scenario;            ///< minimized, canonical, still failing
  std::size_t evaluations = 0;  ///< predicate calls spent
  std::size_t removedEvents = 0;
};

/// Predicate calls one shrink may spend.
inline constexpr std::size_t kShrinkEvaluations = 400;

/// Shrinks `seed` while `stillFails` holds. `seed` itself must fail (the
/// shrinker asserts this with the first evaluation and returns it unchanged
/// if not). `maxEvaluations` bounds the total predicate calls.
[[nodiscard]] ShrinkResult shrinkScenario(const Scenario& seed,
                                          const std::function<bool(const Scenario&)>& stillFails,
                                          std::size_t maxEvaluations = kShrinkEvaluations);

}  // namespace nlft::fuzz
