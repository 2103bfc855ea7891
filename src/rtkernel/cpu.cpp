#include "rtkernel/cpu.hpp"

#include <algorithm>
#include <stdexcept>

namespace nlft::rt {

Cpu::Cpu(sim::Simulator& simulator)
    : simulator_{simulator}, component_{simulator.addComponent(this)} {}

Cpu::Label Cpu::intern(std::string_view label) {
  for (const std::string& known : labels_) {
    if (known == label) return Label{known};
  }
  return Label{labels_.emplace_back(label)};
}

WorkId Cpu::post(int priority, Duration work, sim::Event onComplete, Label label) {
  if (work < Duration{}) throw std::invalid_argument("Cpu: negative work");
  const WorkId id{nextId_++};
  ready_.push_back(Item{id, priority, nextSeq_++, work, onComplete, label.name});
  if (running_ && priority > running_->item.priority) preemptRunning();
  dispatch();
  return id;
}

bool Cpu::cancel(WorkId id) {
  if (running_ && running_->item.id == id) {
    simulator_.cancel(running_->completionEvent);
    closeSegment();
    running_.reset();
    dispatch();
    return true;
  }
  const auto it = std::find_if(ready_.begin(), ready_.end(),
                               [id](const Item& item) { return item.id == id; });
  if (it == ready_.end()) return false;
  ready_.erase(it);
  return true;
}

std::string_view Cpu::runningLabel() const {
  return running_ ? running_->item.label : std::string_view{};
}

void Cpu::dispatch() {
  if (running_ || ready_.empty()) return;

  // Highest priority first, FIFO within a priority level.
  auto best = ready_.begin();
  for (auto it = std::next(ready_.begin()); it != ready_.end(); ++it) {
    if (it->priority > best->priority ||
        (it->priority == best->priority && it->seq < best->seq)) {
      best = it;
    }
  }
  Running& running = running_.emplace(Running{std::move(*best), simulator_.now(), {}});
  ready_.erase(best);
  ++dispatches_;
  running.completionEvent = simulator_.scheduleAfter(
      running.item.remaining,
      sim::Event{&sim::callMember<Cpu, &Cpu::onCompletion>, component_, 0},
      sim::EventPriority::Kernel);
}

void Cpu::preemptRunning() {
  simulator_.cancel(running_->completionEvent);
  const Duration consumed = simulator_.now() - running_->segmentStart;
  closeSegment();
  Item item = std::move(running_->item);
  running_.reset();
  // The completion event is still pending, so the item has time left.
  item.remaining -= consumed;
  ready_.push_back(std::move(item));
  ++preemptions_;
}

void Cpu::closeSegment() {
  const SimTime now = simulator_.now();
  if (now > running_->segmentStart) {
    busy_ += now - running_->segmentStart;
    if (segmentTap_) segmentTap_({running_->item.label, running_->segmentStart, now});
  }
}

void Cpu::onCompletion(std::uint64_t) {
  closeSegment();
  const sim::Event completion = running_->item.onComplete;
  running_.reset();
  if (completion.handler) simulator_.call(completion);
  dispatch();
}

}  // namespace nlft::rt
