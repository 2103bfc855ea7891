#include "rtkernel/cpu.hpp"

#include <algorithm>
#include <stdexcept>

namespace nlft::rt {

Cpu::Cpu(sim::Simulator& simulator, Duration contextSwitchOverhead)
    : simulator_{simulator}, contextSwitch_{contextSwitchOverhead} {
  if (contextSwitchOverhead < Duration{})
    throw std::invalid_argument("Cpu: negative context-switch overhead");
}

std::string_view Cpu::intern(std::string_view label) {
  for (const std::string& known : labels_) {
    if (known == label) return known;
  }
  return labels_.emplace_back(label);
}

WorkId Cpu::post(int priority, Duration work, CompletionFn onComplete, std::string_view label) {
  if (work < Duration{}) throw std::invalid_argument("Cpu: negative work");
  const WorkId id{nextId_++};
  ready_.push_back(Item{id, priority, nextSeq_++, work, std::move(onComplete), intern(label)});
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
  Item item = std::move(*best);
  ready_.erase(best);

  // Context-switch overhead is charged on every dispatch of a different
  // item than the one that ran last (including resumption after preemption
  // by a third party).
  Duration cost = item.remaining;
  if (contextSwitch_ > Duration{} && item.label != lastDispatchedLabel_) {
    cost += contextSwitch_;
  }
  lastDispatchedLabel_ = item.label;
  ++dispatches_;

  // Fold the overhead into the remaining work so that preemption accounting
  // stays exact: a preempted item resumes with precisely what it has left.
  item.remaining = cost;

  Running running;
  running.item = std::move(item);
  running.segmentStart = simulator_.now();
  running.completionEvent = simulator_.scheduleAfter(
      cost, [this] { onCompletion(); }, sim::EventPriority::Kernel);
  running_ = std::move(running);
}

void Cpu::preemptRunning() {
  simulator_.cancel(running_->completionEvent);
  const Duration consumed = simulator_.now() - running_->segmentStart;
  closeSegment();
  Item item = std::move(running_->item);
  running_.reset();
  // Remaining time can go slightly negative if overhead was charged; clamp.
  item.remaining = std::max(Duration{}, item.remaining - consumed);
  ready_.push_back(std::move(item));
  ++preemptions_;
}

void Cpu::closeSegment() {
  const SimTime now = simulator_.now();
  if (now > running_->segmentStart) {
    trace_.push_back({running_->item.label, running_->segmentStart, now});
    busy_ += now - running_->segmentStart;
  }
}

void Cpu::onCompletion() {
  closeSegment();
  CompletionFn callback = std::move(running_->item.onComplete);
  running_.reset();
  if (callback) callback();
  dispatch();
}

}  // namespace nlft::rt
