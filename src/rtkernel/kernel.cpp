#include "rtkernel/kernel.hpp"

#include <stdexcept>

namespace nlft::rt {

// --- Job ---

const TaskConfig& Job::config() const { return kernel_.config(task_); }

Duration Job::timeToDeadline() const { return deadline_ - kernel_.simulator_.now(); }

void Job::runCopy(Duration work, std::function<void(CopyStop)> onStop) {
  if (finished_) throw std::logic_error("Job::runCopy on finished job");
  if (copyWork_.valid()) throw std::logic_error("Job::runCopy while a copy is active");
  const TaskConfig& cfg = config();
  const Duration budget = cfg.budget > Duration{} ? cfg.budget : cfg.wcet;
  const bool overruns = budget > Duration{} && work > budget;
  const Duration granted = overruns ? budget : work;
  copyStop_ = std::move(onStop);
  copyWork_ = kernel_.cpu_.post(
      cfg.priority, granted,
      [this, overruns] {
        copyWork_ = WorkId{};
        auto stop = std::move(copyStop_);
        copyStop_ = nullptr;
        if (overruns) kernel_.mutableStats(task_).budgetOverruns++;
        if (stop) stop(overruns ? CopyStop::BudgetOverrun : CopyStop::Completed);
      },
      cfg.name);
}

void Job::killRunningCopy() {
  if (!copyWork_.valid()) return;
  kernel_.cpu_.cancel(copyWork_);
  copyWork_ = WorkId{};
  auto stop = std::move(copyStop_);
  copyStop_ = nullptr;
  if (stop) stop(CopyStop::Killed);
}

void Job::complete(std::span<const std::uint32_t> result) {
  if (finished_) return;
  kernel_.mutableStats(task_).completions++;
  kernel_.emitEvent(KernelEvent::Kind::JobCompleted, task_, index_);
  if (kernel_.resultSink_) {
    kernel_.resultSink_(JobResult{task_, index_, result, kernel_.simulator_.now()});
  }
  finish();
}

void Job::omit() {
  if (finished_) return;
  kernel_.mutableStats(task_).omissions++;
  kernel_.emitEvent(KernelEvent::Kind::JobOmitted, task_, index_);
  finish();
}

void Job::begin(TaskId task, std::uint64_t index, SimTime release, SimTime deadline) {
  task_ = task;
  index_ = index;
  release_ = release;
  deadline_ = deadline;
  copyWork_ = WorkId{};
  deadlineEvent_ = sim::EventId{};
  finished_ = false;
}

void Job::onDeadline() {
  RtKernel::TaskEntry& task = kernel_.tasks_[task_.value];
  if (task.activeJob.get() != this) return;  // already finished
  task.stats.deadlineMisses++;
  if (copyWork_.valid()) {
    kernel_.cpu_.cancel(copyWork_);
    copyWork_ = WorkId{};
    auto stop = std::move(copyStop_);
    copyStop_ = nullptr;
    if (stop) stop(CopyStop::Aborted);
  }
  if (task.activeJob.get() != this) return;  // the stop callback finished it
  auto abortHandler = std::move(abortHandler_);
  abortHandler_ = nullptr;
  omit();
  if (abortHandler) abortHandler();
}

void Job::finish() {
  finished_ = true;
  if (copyWork_.valid()) {
    kernel_.cpu_.cancel(copyWork_);
    copyWork_ = WorkId{};
    copyStop_ = nullptr;
  }
  kernel_.simulator_.cancel(deadlineEvent_);
  deadlineEvent_ = sim::EventId{};
  // Hand ownership to the retire list: finish() is often reached from
  // inside this job's own callbacks, so destruction must be deferred.
  kernel_.retire(std::move(kernel_.entry(task_).activeJob));
}

// --- RtKernel ---

RtKernel::RtKernel(sim::Simulator& simulator, Cpu& cpu) : simulator_{simulator}, cpu_{cpu} {}

TaskId RtKernel::addTask(TaskConfig config, JobHandler handler) {
  if (config.wcet < Duration{}) throw std::invalid_argument("RtKernel: negative wcet");
  if (config.relativeDeadline == Duration{}) config.relativeDeadline = config.period;
  if (config.budget == Duration{}) config.budget = config.wcet;
  TaskEntry taskEntry;
  taskEntry.config = std::move(config);
  taskEntry.handler = std::move(handler);
  tasks_.push_back(std::move(taskEntry));
  return TaskId{static_cast<std::uint32_t>(tasks_.size() - 1)};
}

RtKernel::TaskEntry& RtKernel::entry(TaskId task) {
  if (task.value >= tasks_.size()) throw std::invalid_argument("RtKernel: unknown task");
  return tasks_[task.value];
}

const RtKernel::TaskEntry& RtKernel::entry(TaskId task) const {
  if (task.value >= tasks_.size()) throw std::invalid_argument("RtKernel: unknown task");
  return tasks_[task.value];
}

const TaskConfig& RtKernel::config(TaskId task) const { return entry(task).config; }
const TaskStats& RtKernel::stats(TaskId task) const { return entry(task).stats; }
TaskStats& RtKernel::mutableStats(TaskId task) { return entry(task).stats; }
bool RtKernel::jobActive(TaskId task) const { return entry(task).activeJob != nullptr; }
Job* RtKernel::activeJob(TaskId task) { return entry(task).activeJob.get(); }

void RtKernel::start() {
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].config.period > Duration{}) {
      scheduleNextRelease(i, simulator_.now() + tasks_[i].config.offset);
    }
  }
}

void RtKernel::stop() {
  stopped_ = true;
  emitEvent(KernelEvent::Kind::Stopped);
  for (auto& task : tasks_) {
    simulator_.cancel(task.nextRelease);
    task.nextRelease = sim::EventId{};
    if (task.activeJob) {
      Job& job = *task.activeJob;
      if (job.copyWork_.valid()) {
        cpu_.cancel(job.copyWork_);
        job.copyWork_ = WorkId{};
        job.copyStop_ = nullptr;
      }
      simulator_.cancel(job.deadlineEvent_);
      retire(std::move(task.activeJob));
    }
  }
}

void RtKernel::restart() {
  if (!stopped_) return;
  stopped_ = false;
  emitEvent(KernelEvent::Kind::Restarted);
  start();
}

void RtKernel::retire(std::unique_ptr<Job> job) {
  if (!job) return;
  retired_.push_back(std::move(job));
  if (!retireCleanupScheduled_) {
    retireCleanupScheduled_ = true;
    simulator_.scheduleAfter(Duration{}, [this] {
      retireCleanupScheduled_ = false;
      for (std::unique_ptr<Job>& retired : retired_) {
        // Drop the handlers now: what they capture must not outlive the job.
        retired->copyStop_ = nullptr;
        retired->errorHandler_ = nullptr;
        retired->abortHandler_ = nullptr;
        freeJobs_.push_back(std::move(retired));
      }
      retired_.clear();
    }, sim::EventPriority::Observer);
  }
}

void RtKernel::scheduleNextRelease(std::uint32_t taskIndex, SimTime at) {
  tasks_[taskIndex].nextRelease = simulator_.scheduleAt(
      at, [this, taskIndex] { release(taskIndex); }, sim::EventPriority::Kernel);
}

void RtKernel::release(std::uint32_t taskIndex) {
  TaskEntry& task = tasks_[taskIndex];
  task.nextRelease = sim::EventId{};
  if (stopped_ || task.disabled) return;

  // Schedule the next periodic release first so a handler exception cannot
  // stall the task chain.
  if (task.config.period > Duration{}) {
    scheduleNextRelease(taskIndex, simulator_.now() + task.config.period);
  }

  task.stats.releases++;

  if (task.activeJob) {
    // Previous job still active at its successor's release: count it as a
    // deadline miss and abort it (it can no longer deliver a timely result).
    task.stats.deadlineMisses++;
    Job& previous = *task.activeJob;
    auto abortHandler = std::move(previous.abortHandler_);
    previous.abortHandler_ = nullptr;
    previous.omit();
    if (abortHandler) abortHandler();
  }

  const SimTime now = simulator_.now();
  const SimTime deadline = now + task.config.relativeDeadline;
  if (freeJobs_.empty()) {
    task.activeJob.reset(new Job{*this});
  } else {
    task.activeJob = std::move(freeJobs_.back());
    freeJobs_.pop_back();
  }
  Job* job = task.activeJob.get();
  job->begin(TaskId{taskIndex}, task.nextJobIndex++, now, deadline);

  // Capturing only the job keeps the closure in std::function's inline
  // buffer. Every way a job finishes cancels this event, and a finished job
  // is recycled only after the event that finished it.
  job->deadlineEvent_ =
      simulator_.scheduleAt(deadline, [job] { job->onDeadline(); }, sim::EventPriority::Kernel);

  task.handler(*job);
}

void RtKernel::releaseSporadic(TaskId task) {
  if (stopped_) return;
  release(task.value);
}

void RtKernel::reportTaskError(TaskId task, const ErrorEvent& event) {
  TaskEntry& taskEntry = entry(task);
  taskEntry.stats.errorsDetected++;
  emitEvent(KernelEvent::Kind::TaskError, task,
            taskEntry.activeJob ? taskEntry.activeJob->index() : 0);
  if (taskEntry.activeJob && taskEntry.activeJob->errorHandler_) {
    taskEntry.activeJob->errorHandler_(event);
  }
}

void RtKernel::reportKernelError(const ErrorEvent&) {
  ++kernelErrors_;
  emitEvent(KernelEvent::Kind::KernelError);
  // Strategy 3 (Section 2.2): errors in the kernel silence the node.
  stop();
  if (failSilent_) failSilent_();
}

void RtKernel::emitEvent(KernelEvent::Kind kind, TaskId task, std::uint64_t jobIndex) {
  if (!eventTap_) return;
  KernelEvent event;
  event.kind = kind;
  event.task = task;
  event.jobIndex = jobIndex;
  eventTap_(event);
}

void RtKernel::disableTask(TaskId task) {
  TaskEntry& taskEntry = entry(task);
  taskEntry.disabled = true;
  simulator_.cancel(taskEntry.nextRelease);
  taskEntry.nextRelease = sim::EventId{};
  if (taskEntry.activeJob) taskEntry.activeJob->omit();
}

}  // namespace nlft::rt
