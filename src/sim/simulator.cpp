#include "sim/simulator.hpp"

#include <stdexcept>

namespace nlft::sim {

namespace {
/// The simulator's own index in its component table.
constexpr std::uint32_t kSelf = 0;
}  // namespace

Simulator::Simulator() : components_{this} {}

std::uint32_t Simulator::addComponent(void* component) {
  components_.push_back(component);
  return static_cast<std::uint32_t>(components_.size() - 1);
}

void Simulator::throwPast() {
  throw std::invalid_argument("Simulator: cannot schedule in the past");
}

void Simulator::throwNegativeDelay() { throw std::invalid_argument("Simulator: negative delay"); }

std::uint32_t Simulator::addSlot() {
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId Simulator::scheduleAt(SimTime at, Callback cb, EventPriority priority) {
  if (at < now_) throwPast();
  std::uint32_t index = 0;
  if (freeClosures_.empty()) {
    index = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(cb));
  } else {
    index = freeClosures_.back();
    freeClosures_.pop_back();
    closures_[index] = std::move(cb);
  }
  return scheduleAt(at, Event{&Simulator::runClosure, kSelf, index}, priority);
}

EventId Simulator::scheduleAfter(Duration delay, Callback cb, EventPriority priority) {
  if (delay < Duration{}) throwNegativeDelay();
  return scheduleAt(now_ + delay, std::move(cb), priority);
}

void Simulator::runClosure(void* simulator, std::uint64_t index) {
  Simulator& self = *static_cast<Simulator*>(simulator);
  // Move the closure out before running it: it may schedule closures of its
  // own, which can grow the store.
  Callback cb = std::move(self.closures_[index]);
  self.closures_[index] = nullptr;
  self.freeClosures_.push_back(static_cast<std::uint32_t>(index));
  cb();
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  // Only odd generations are ever handed out, so an even one (including the
  // invalid id 0) can never match.
  if (generation % 2 == 0 || slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;
  }
  const Event& event = slots_[slot].event;
  if (event.handler == &Simulator::runClosure) {
    closures_[event.word] = nullptr;
    freeClosures_.push_back(static_cast<std::uint32_t>(event.word));
  }
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
  // Free the slot before running the handler: it may schedule (growing the
  // slab) or try to cancel its own, already fired, event.
  const Event event = slots_[entry.slot].event;
  releaseSlot(entry.slot);
  now_ = entry.at;
  ++processed_;
  event.handler(components_[event.component], event.word);
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
