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
// generation counter, and the queue is a vector of plain entries that name
// their slot and generation, sorted so that the next entry to fire is at the
// back. Popping is O(1); an insert scans from the back and shifts the
// entries that fire before it, which stays cheap at the few dozen entries a
// brake-by-wire stop keeps queued. Keys are unique, so the order is exactly
// (at, priority, seq). Cancelling frees the slot at once; the entry it
// leaves behind no longer matches the slot's generation and is skipped when
// it reaches the back. No event is hashed, and once the slab and queue have
// grown to the simulation's queue depth no event allocates inside the
// simulator.
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
    /// keeps the entry at 24 bytes, which keeps the insert's shifts cheap.
    std::uint64_t order;
    std::uint32_t slot;
    std::uint32_t generation;

    [[nodiscard]] bool runsBefore(const Entry& other) const {
      return at != other.at ? at < other.at : order < other.order;
    }
  };

  [[nodiscard]] bool stale(const Entry& entry) const {
    return slots_[entry.slot].generation != entry.generation;
  }
  void insert(const Entry& entry);
  void releaseSlot(std::uint32_t slot);
  /// Pops cancelled entries until the back is live or the queue is empty.
  void dropStaleBack();
  /// Runs the live event at the queue's back.
  void fireBack();

  SimTime now_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  /// Sorted latest first: the next entry to fire is `queue_.back()`.
  std::vector<Entry> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
};

}  // namespace nlft::sim
