// Task model of the real-time kernel.
//
// Tasks follow the paper's read input - compute - write output loop
// (Fig. 2). Critical tasks are executed under temporal error masking by the
// NLFT layer (src/core); non-critical tasks run once and are simply shut
// down when an error is detected. Priorities are fixed before run-time and
// assigned by criticality (Section 2.8).
#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace nlft::rt {

using util::Duration;
using util::SimTime;

struct TaskId {
  std::uint32_t value = 0;
  friend bool operator==(TaskId, TaskId) = default;
};

enum class Criticality : std::uint8_t {
  Critical,     ///< TEM-protected; omission enforced when recovery is impossible
  NonCritical,  ///< best effort; shut down on error
};

/// Static task attributes. All durations are in simulated time.
struct TaskConfig {
  std::string name;
  Criticality criticality = Criticality::Critical;
  int priority = 0;          ///< higher value = higher priority
  Duration period{};         ///< zero for sporadic tasks
  Duration offset{};         ///< release offset of the first job
  Duration relativeDeadline{};  ///< deadline after release (defaults to period)
  Duration wcet{};           ///< worst-case execution time of ONE copy
  Duration budget{};         ///< execution-time-monitor budget per copy (defaults to wcet)
};

/// Per-task runtime counters, exposed for tests and observability.
struct TaskStats {
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;      ///< jobs that delivered a result
  std::uint64_t omissions = 0;        ///< jobs that ended in an omission failure
  std::uint64_t deadlineMisses = 0;   ///< jobs aborted by the deadline monitor
  std::uint64_t budgetOverruns = 0;   ///< copies killed by the budget timer
};

}  // namespace nlft::rt
