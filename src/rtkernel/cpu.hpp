// Preemptive fixed-priority CPU resource on top of the discrete-event
// simulator.
//
// Work items occupy the (single) CPU for a given duration; a higher-priority
// item preempts the running one, which resumes later with its remaining
// time. The execution trace records every contiguous segment, which the
// tests use to assert exact Gantt charts.
//
// Labels are interned: the Cpu keeps one copy of every distinct label it
// was given, and work items and trace segments refer to it, so neither a
// post nor a trace segment copies a string.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace nlft::rt {

using util::Duration;
using util::SimTime;

struct WorkId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(WorkId, WorkId) = default;
};

/// One contiguous interval of CPU time given to a work item. `label` views
/// the Cpu's interned copy and stays valid while the Cpu lives.
struct ExecutionSegment {
  std::string_view label;
  SimTime start;
  SimTime end;
};

class Cpu {
 public:
  using CompletionFn = std::function<void()>;

  /// `contextSwitchOverhead` is charged whenever a different work item is
  /// dispatched (a simple but measurable model of kernel overhead).
  explicit Cpu(sim::Simulator& simulator, Duration contextSwitchOverhead = Duration{});

  /// Enqueues `work` at `priority` (higher runs first; FIFO within equal
  /// priority). `onComplete` fires when the accumulated CPU time reaches
  /// `work`. Returns an id usable with cancel().
  WorkId post(int priority, Duration work, CompletionFn onComplete, std::string_view label);

  /// Cancels a queued or running work item (its completion never fires).
  /// Returns false if the item already completed or is unknown.
  bool cancel(WorkId id);

  [[nodiscard]] bool idle() const { return !running_.has_value(); }
  /// Label of the running item, or empty when idle. Valid while the Cpu lives.
  [[nodiscard]] std::string_view runningLabel() const;

  [[nodiscard]] const std::vector<ExecutionSegment>& trace() const { return trace_; }
  /// Total CPU busy time accumulated so far.
  [[nodiscard]] Duration busyTime() const { return busy_; }
  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

 private:
  struct Item {
    WorkId id;
    int priority;
    std::uint64_t seq;
    Duration remaining;
    CompletionFn onComplete;
    std::string_view label;  ///< interned in labels_
  };
  struct Running {
    Item item;
    SimTime segmentStart;
    sim::EventId completionEvent;
  };

  /// Returns the interned copy of `label`, adding it on first use.
  std::string_view intern(std::string_view label);
  void dispatch();
  void preemptRunning();
  void onCompletion();
  void closeSegment();

  sim::Simulator& simulator_;
  Duration contextSwitch_;
  std::uint64_t nextId_ = 1;
  std::uint64_t nextSeq_ = 0;
  std::vector<Item> ready_;
  std::optional<Running> running_;
  std::vector<ExecutionSegment> trace_;
  /// Distinct labels; a deque so the views into it survive growth.
  std::deque<std::string> labels_;
  Duration busy_{};
  std::uint64_t preemptions_ = 0;
  std::uint64_t dispatches_ = 0;
  std::string_view lastDispatchedLabel_;
};

}  // namespace nlft::rt
