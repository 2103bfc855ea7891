// Span/trace recorder with Chrome trace_event JSON export.
//
// Events carry SIMULATED-clock microsecond timestamps (util::SimTime), never
// wall clock, so an export is a pure function of the recorded run: exporting
// twice yields byte-identical JSON (tests/obs_trace_test.cpp enforces it and
// tools/determinism_lint.sh re-runs that check when a build is present).
//
// Mapping convention used by the system-simulation adapter: pid = node id,
// tid = task id (+1; tid 0 is the node-scope pseudo-thread for events that
// are not task-scoped). Open build/…/trace.json in chrome://tracing or
// https://ui.perfetto.dev to see one lane per node/task.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace nlft::obs {

/// One Chrome trace_event. Phase 'X' = complete (has dur), 'i' = instant,
/// 'M' = metadata (process_name / thread_name).
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'i';
  std::int64_t tsUs = 0;
  std::int64_t durUs = 0;  ///< complete events only
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  /// Optional single string argument, rendered under "args" (metadata events
  /// use it for the name; instants may carry a detail string).
  std::string argKey;
  std::string argValue;
};

class TraceRecorder {
 public:
  /// Names the process lane (Chrome metadata event, pid-scoped).
  void setProcessName(std::uint32_t pid, const std::string& name);
  /// Names the thread lane (pid, tid)-scoped.
  void setThreadName(std::uint32_t pid, std::uint32_t tid, const std::string& name);

  /// Records an instant event at the given simulated time.
  void instant(std::uint32_t pid, std::uint32_t tid, const std::string& name,
               const std::string& category, util::SimTime at, const std::string& detail = {});

  /// Records a complete ('X') span [start, start + duration).
  void complete(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                const std::string& category, util::SimTime start, util::Duration duration);

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// Number of non-metadata events in `category` (optionally further
  /// filtered by exact event name).
  [[nodiscard]] std::uint64_t countCategory(const std::string& category) const;
  [[nodiscard]] std::uint64_t countEvents(const std::string& category,
                                          const std::string& name) const;

  void clear() { events_.clear(); }

  /// Chrome trace_event JSON (object form: {"traceEvents": [...],
  /// "displayTimeUnit": "ms"}). Deterministic: a second call on the same
  /// recorder returns a byte-identical string.
  [[nodiscard]] std::string toJson() const;
  /// Writes toJson() to `path`; throws std::runtime_error on I/O failure.
  void writeJsonFile(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace nlft::obs
