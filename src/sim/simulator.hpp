// Discrete-event simulation core.
//
// A single Simulator instance owns the simulated clock and an event queue.
// Events are scheduled at absolute times; ties are broken first by an
// explicit priority (lower value runs first) and then by insertion order,
// which makes every run fully deterministic.
//
// The real-time kernel, the TDMA bus and the fault injector all share one
// Simulator, so cross-component ordering (e.g. "fault strikes during the
// second task copy") is exact.
//
// An event is a small, trivially copyable record: a per-kind handler (a
// plain function), the index of the component it acts on in this
// simulator's component table, and one payload word. Components register
// once (addComponent) and schedule their recurring events (CPU completions,
// releases, bus slots, ticks) as records, so firing one is a copy and an
// indirect call. The typed scheduleAt/scheduleAfter are defined in this
// header (only their throw paths and the slab's growth are out of line), so
// a component's schedule compiles into its caller. A std::function is one more record
// kind: its closure sits in a closure store and the record's payload names
// the store entry, so one-off schedules and outside callers use the same
// queue and code path. Naming components by index rather than by pointer
// lets a copied queue be rebound to copied components.
//
// A record can also be called at once, inside the current event (call()):
// that is how a component hands a typed completion to another, as a CPU
// work item's completion reaches the kernel that posted it. A called
// record is neither queued nor counted, so it adds no event.
//
// Storage is a slab: each pending record sits in a reusable slot with a
// generation counter, and the queue is a vector of plain entries that name
// their slot and generation, sorted so that the next entry to fire is at the
// back. Popping is O(1); an insert scans from the back and shifts the
// entries that fire before it, which stays cheap at the few dozen entries a
// brake-by-wire stop keeps queued. Keys are unique, so the order is exactly
// (at, priority, seq). Cancelling frees the slot at once (and a closure's
// captures with it); the entry it leaves behind no longer matches the slot's
// generation and is skipped when it reaches the back. No event is hashed,
// and once the slab, queue and closure store have grown to the simulation's
// queue depth no event allocates inside the simulator.
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

/// A typed event: firing it calls `handler(component, word)` with the
/// component registered under index `component`.
struct Event {
  using Handler = void (*)(void* component, std::uint64_t word);
  Handler handler = nullptr;
  std::uint32_t component = 0;  ///< index in the simulator's component table
  std::uint64_t word = 0;       ///< payload: a slot, task or delivery index
};

/// The handler of an event kind that calls `Method(word)` on a `C`.
template <class C, void (C::*Method)(std::uint64_t)>
void callMember(void* component, std::uint64_t word) {
  (static_cast<C*>(component)->*Method)(word);
}

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Adds `component` to the component table and returns its index, which
  /// typed events name it by. The component must outlive its pending events.
  [[nodiscard]] std::uint32_t addComponent(void* component);

  /// Schedules a typed event at absolute time `at` (must not be in the past).
  EventId scheduleAt(SimTime at, Event event, EventPriority priority) {
    if (at < now_) throwPast();
    std::uint32_t slot = 0;
    if (freeSlots_.empty()) {
      slot = addSlot();
    } else {
      slot = freeSlots_.back();
      freeSlots_.pop_back();
    }
    Slot& record = slots_[slot];
    record.event = event;
    const std::uint32_t generation = ++record.generation;
    ++live_;
    const std::uint64_t order = static_cast<std::uint64_t>(priority) << 56 | nextSeq_++;
    insert(Entry{at, order, slot, generation});
    return EventId{std::uint64_t{generation} << 32 | slot};
  }
  /// Schedules a typed event after a non-negative delay from now.
  EventId scheduleAfter(Duration delay, Event event, EventPriority priority) {
    if (delay < Duration{}) throwNegativeDelay();
    return scheduleAt(now_ + delay, event, priority);
  }

  /// Calls `event` at once, inside the current event: its handler acts on
  /// the component it names. Nothing is queued and no event is counted.
  void call(const Event& event) { event.handler(components_[event.component], event.word); }

  /// Schedules `cb` at absolute time `at` (must not be in the past).
  EventId scheduleAt(SimTime at, Callback cb, EventPriority priority = EventPriority::Application);
  /// Schedules `cb` after a non-negative delay from now.
  EventId scheduleAfter(Duration delay, Callback cb,
                        EventPriority priority = EventPriority::Application);

  /// Cancels a pending event; a closure's captures are destroyed at once.
  /// Returns false if it already fired or was cancelled (safe to call
  /// either way).
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
  /// Entries of the closure store, pending or free: it grows only to the
  /// largest number of closures pending at once.
  [[nodiscard]] std::size_t closureStoreSize() const { return closures_.size(); }

 private:
  /// A slot's generation is odd while it holds a pending event and even
  /// while it is free; it advances on every allocation and every release.
  struct Slot {
    Event event;
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

  /// The closure kind's handler: runs and frees closure store entry `index`.
  static void runClosure(void* simulator, std::uint64_t index);
  /// The schedules' refusals and slab growth, out of line so that the
  /// inline paths stay small.
  [[noreturn]] static void throwPast();
  [[noreturn]] static void throwNegativeDelay();
  /// Appends a slot to the slab and returns its index.
  std::uint32_t addSlot();
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
  /// Component index -> component; entry 0 is the simulator itself, which
  /// the closure kind acts on.
  std::vector<void*> components_;
  /// Closures of pending closure events; free entries are empty.
  std::vector<Callback> closures_;
  std::vector<std::uint32_t> freeClosures_;
};

}  // namespace nlft::sim
