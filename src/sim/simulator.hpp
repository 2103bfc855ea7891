// Discrete-event simulation core.
//
// A single Simulator instance owns the simulated clock and an event queue.
// Events are callbacks scheduled at absolute times; ties are broken first by
// an explicit priority (lower value runs first) and then by insertion order,
// which makes every run fully deterministic.
//
// The real-time kernel, the TDMA bus and the fault injector all share one
// Simulator, so cross-component ordering (e.g. "fault strikes during the
// second task copy") is exact.
//
// Storage is a slab: each pending callback sits in a reusable slot with a
// generation counter, and the queue is a binary heap of plain entries that
// name their slot and generation. Cancelling frees the slot at once; the
// heap entry it leaves behind no longer matches the slot's generation and is
// skipped when it reaches the top. No event is hashed, and once the slab and
// heap have grown to the simulation's queue depth no event allocates inside
// the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace nlft::sim {

using util::Duration;
using util::SimTime;

/// Handle for a scheduled event; valid until the event fires or is cancelled.
/// Encodes the event's slot (low 32 bits) and that slot's generation at
/// scheduling time (high 32 bits), so a stale handle never matches a reused
/// slot.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Tie-break priorities for events scheduled at the same instant.
/// Lower runs first.
enum class EventPriority : int {
  FaultInjection = 0,  // faults strike "just before" anything else at t
  Hardware = 1,
  Kernel = 2,
  Network = 3,
  Application = 4,
  Observer = 9,
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (must not be in the past).
  EventId scheduleAt(SimTime at, Callback cb, EventPriority priority = EventPriority::Application);
  /// Schedules `cb` after a non-negative delay from now.
  EventId scheduleAfter(Duration delay, Callback cb,
                        EventPriority priority = EventPriority::Application);

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled (safe to call either way).
  bool cancel(EventId id);

  /// Runs the next event. Returns false when the queue is empty.
  bool step();
  /// Runs events until the queue is empty or `limit` is reached; the clock
  /// ends at exactly `limit` even if no event fires there.
  void runUntil(SimTime limit);
  /// Runs all events (use only for workloads that are known to terminate).
  void runAll();

  [[nodiscard]] std::size_t pendingEvents() const { return live_; }
  [[nodiscard]] std::uint64_t processedEvents() const { return processed_; }

 private:
  /// A slot's generation is odd while it holds a pending event and even
  /// while it is free; it advances on every allocation and every release.
  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
  };
  struct Entry {
    SimTime at;
    /// priority << 56 | seq. EventPriority values are below 2^8 and seq stays
    /// below 2^56, so comparing `order` compares (priority, seq); one word
    /// keeps the entry at 24 bytes, which makes the heap measurably faster.
    std::uint64_t order;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Heap order: the entry that must run LATER compares greater, so the
  /// heap's front is the earliest (at, priority, seq).
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.order > b.order;
    }
  };

  [[nodiscard]] bool stale(const Entry& entry) const {
    return slots_[entry.slot].generation != entry.generation;
  }
  void releaseSlot(std::uint32_t slot);
  void popTop();
  /// Pops cancelled entries until the front is live or the heap is empty.
  void dropStaleTop();
  /// Runs the live event at the heap's front.
  void fireTop();

  SimTime now_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
};

}  // namespace nlft::sim
