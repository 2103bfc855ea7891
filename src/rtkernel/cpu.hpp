// Preemptive fixed-priority CPU resource on top of the discrete-event
// simulator.
//
// Work items occupy the (single) CPU for a given duration; a higher-priority
// item preempts the running one, which resumes later with its remaining
// time. A segment tap, when set, sees every contiguous execution segment,
// which the tests use to assert exact Gantt charts and the brake-by-wire
// simulation exports as trace spans; without one no segment is kept.
//
// A work item completes through a typed simulator event (a handler, the
// index of the component it acts on, one payload word) that the poster
// hands over with the item, not through a closure. The Cpu calls that event
// at once, inside its own completion event, before it dispatches the next
// item (sim::Simulator::call), so the poster's completion is neither a
// second event nor a std::function. The kernel's copies complete this way,
// naming the kernel and the task.
//
// Labels are interned: the Cpu keeps one copy of every distinct label it
// was given, and work items and segments refer to it, so neither a post nor
// a segment copies a string. The kernel interns each task's label once, when
// the task is added, so its posts do no lookup.
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
  /// A label interned by this Cpu (see intern()); it views the Cpu's copy.
  struct Label {
    std::string_view name;
  };

  /// A dispatch costs no CPU time: a work item runs for exactly its work.
  explicit Cpu(sim::Simulator& simulator);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Returns the interned copy of `label`, adding it on first use.
  [[nodiscard]] Label intern(std::string_view label);

  /// Enqueues `work` at `priority` (higher runs first; FIFO within equal
  /// priority). When the accumulated CPU time reaches `work`, the Cpu calls
  /// `onComplete` inside its completion event, before the next dispatch; an
  /// event without a handler completes silently. Returns an id usable with
  /// cancel().
  WorkId post(int priority, Duration work, sim::Event onComplete, Label label);
  /// The same, interning `label` first.
  WorkId post(int priority, Duration work, sim::Event onComplete, std::string_view label) {
    return post(priority, work, onComplete, intern(label));
  }

  /// Cancels a queued or running work item (its completion is never called).
  /// Returns false if the item already completed or is unknown.
  bool cancel(WorkId id);

  [[nodiscard]] bool idle() const { return !running_.has_value(); }
  /// Label of the running item, or empty when idle. Valid while the Cpu lives.
  [[nodiscard]] std::string_view runningLabel() const;

  /// Receives every execution segment as it closes; one tap per Cpu.
  using SegmentTap = std::function<void(const ExecutionSegment&)>;
  void setSegmentTap(SegmentTap tap) { segmentTap_ = std::move(tap); }

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
    sim::Event onComplete;
    std::string_view label;  ///< interned in labels_
  };
  struct Running {
    Item item;
    SimTime segmentStart;
    sim::EventId completionEvent;
  };

  void dispatch();
  void preemptRunning();
  void onCompletion(std::uint64_t);
  void closeSegment();

  sim::Simulator& simulator_;
  std::uint32_t component_;  ///< this Cpu's index in the simulator
  std::uint64_t nextId_ = 1;
  std::uint64_t nextSeq_ = 0;
  std::vector<Item> ready_;
  std::optional<Running> running_;
  SegmentTap segmentTap_;
  /// Distinct labels; a deque so the views into it survive growth.
  std::deque<std::string> labels_;
  Duration busy_{};
  std::uint64_t preemptions_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace nlft::rt
