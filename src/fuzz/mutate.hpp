// Mutation operators of the scenario fuzzer.
//
// A mutation takes a corpus seed (and optionally a second "donor" seed for
// crossover-style splicing) and produces a new legal scenario. All operators
// draw exclusively from the caller's Rng and end with clampScenario(), so a
// mutated scenario is always canonical and the whole pipeline stays
// deterministic for a fixed seed.
#pragma once

#include "fuzz/scenario.hpp"
#include "util/rng.hpp"

namespace nlft::fuzz {

/// The operator families.
enum class MutationKind : std::uint8_t {
  ParamNudge,     ///< perturb speed / pedal / restart time (or flip node type)
  TimeShift,      ///< shift one event (or the whole schedule) in time
  ScheduleSplice, ///< copy a slice of the donor's schedule into the base
  AddEvent,       ///< insert one fresh random event
  DeleteEvent,    ///< drop one event
  RetargetEvent,  ///< move an event to a different node / kind / bit set
};
inline constexpr std::size_t kMutationKindCount = 6;

/// Applies one randomly chosen operator (two with probability 1/4) to `base`.
/// `donor` feeds ScheduleSplice; pass nullptr (or base itself) when the
/// corpus has a single entry — splicing then degrades to duplication, which
/// clampScenario keeps legal. The result is always canonical.
[[nodiscard]] Scenario mutateScenario(util::Rng& rng, const Scenario& base,
                                      const Scenario* donor = nullptr);

}  // namespace nlft::fuzz
