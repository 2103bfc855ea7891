#include "sim/simulator.hpp"

#include <stdexcept>

namespace nlft::sim {

EventId Simulator::scheduleAt(SimTime at, Callback cb, EventPriority priority) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  std::uint32_t slot = 0;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  Slot& record = slots_[slot];
  record.callback = std::move(cb);
  const std::uint32_t generation = ++record.generation;
  ++live_;
  const std::uint64_t order = static_cast<std::uint64_t>(priority) << 56 | nextSeq_++;
  insert(Entry{at, order, slot, generation});
  return EventId{std::uint64_t{generation} << 32 | slot};
}

EventId Simulator::scheduleAfter(Duration delay, Callback cb, EventPriority priority) {
  if (delay < Duration{}) throw std::invalid_argument("Simulator: negative delay");
  return scheduleAt(now_ + delay, std::move(cb), priority);
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  // Only odd generations are ever handed out, so an even one (including the
  // invalid id 0) can never match.
  if (generation % 2 == 0 || slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;
  }
  slots_[slot].callback = nullptr;
  releaseSlot(slot);
  return true;
}

void Simulator::releaseSlot(std::uint32_t slot) {
  ++slots_[slot].generation;
  freeSlots_.push_back(slot);
  --live_;
}

void Simulator::insert(const Entry& entry) {
  // One insertion-sort step from the back: the entries that fire before the
  // new one move one place towards the back, and it takes the gap.
  queue_.push_back(entry);
  std::size_t i = queue_.size() - 1;
  for (; i > 0 && queue_[i - 1].runsBefore(entry); --i) queue_[i] = queue_[i - 1];
  queue_[i] = entry;
}

void Simulator::dropStaleBack() {
  while (!queue_.empty() && stale(queue_.back())) queue_.pop_back();
}

void Simulator::fireBack() {
  const Entry entry = queue_.back();
  queue_.pop_back();
  // Free the slot before running the callback: the callback may schedule
  // (growing the slab) or try to cancel its own, already fired, event.
  Callback cb = std::move(slots_[entry.slot].callback);
  releaseSlot(entry.slot);
  now_ = entry.at;
  ++processed_;
  cb();
}

bool Simulator::step() {
  dropStaleBack();
  if (queue_.empty()) return false;
  fireBack();
  return true;
}

void Simulator::runUntil(SimTime limit) {
  for (;;) {
    dropStaleBack();
    if (queue_.empty() || queue_.back().at > limit) break;
    fireBack();
  }
  if (now_ < limit) now_ = limit;
}

void Simulator::runAll() {
  while (step()) {
  }
}

}  // namespace nlft::sim
