// ASCII Gantt rendering of CPU execution traces — a debugging and teaching
// aid for the preemptive schedule (used by examples; handy in test failure
// output too).
#pragma once

#include <string>
#include <vector>

#include "rtkernel/cpu.hpp"

namespace nlft::rt {

/// Renders one row per distinct label (in order of first execution); each
/// column covers `resolution` of simulated time. A cell shows '#' when the
/// task held the CPU during any part of that column, '.' otherwise.
///
///   brake-distribution |##..##..
///   wheel-control      |..##..##
///
/// `horizon` bounds the chart; zero means "end of the last segment".
[[nodiscard]] std::string renderGantt(const std::vector<ExecutionSegment>& trace,
                                      Duration resolution, Duration horizon = Duration{});

}  // namespace nlft::rt
