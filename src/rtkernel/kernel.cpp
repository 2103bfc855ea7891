#include "rtkernel/kernel.hpp"

#include <stdexcept>

namespace nlft::rt {

// --- Job ---

const TaskConfig& Job::config() const { return kernel_.config(task_); }

Duration Job::timeToDeadline() const { return deadline_ - kernel_.simulator_.now(); }

void Job::runCopy(Duration work) {
  if (finished_) throw std::logic_error("Job::runCopy on finished job");
  if (copyWork_.valid()) throw std::logic_error("Job::runCopy while a copy is active");
  const RtKernel::TaskEntry& task = kernel_.tasks_[task_.value];
  const TaskConfig& cfg = task.config;
  const Duration budget = cfg.budget > Duration{} ? cfg.budget : cfg.wcet;
  copyOverruns_ = budget > Duration{} && work > budget;
  const Duration granted = copyOverruns_ ? budget : work;
  copyWork_ = kernel_.cpu_.post(cfg.priority, granted,
                                kernel_.event<&RtKernel::onCopyCompleted>(task_.value), task.label);
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
  task.stats.deadlineMisses++;
  if (copyWork_.valid()) {
    kernel_.cpu_.cancel(copyWork_);
    kernel_.endCopy(*this, CopyStop::Aborted);
  }
  if (task.activeJob.get() != this) return;  // the copy-stop handler finished it
  kernel_.abortActiveJob(task);
}

void Job::finish() {
  finished_ = true;
  if (copyWork_.valid()) {
    kernel_.cpu_.cancel(copyWork_);
    copyWork_ = WorkId{};
  }
  kernel_.simulator_.cancel(deadlineEvent_);
  deadlineEvent_ = sim::EventId{};
  // Hand ownership to the retire list: finish() is often reached from
  // inside this job's own callbacks, so destruction must be deferred.
  kernel_.retire(std::move(kernel_.entry(task_).activeJob));
}

// --- RtKernel ---

RtKernel::RtKernel(sim::Simulator& simulator, Cpu& cpu)
    : simulator_{simulator}, component_{simulator.addComponent(this)}, cpu_{cpu} {}

TaskId RtKernel::addTask(TaskConfig config, JobHandler handler, CopyStopHandler onCopyStop,
                         AbortHandler onAbort) {
  if (config.wcet < Duration{}) throw std::invalid_argument("RtKernel: negative wcet");
  if (config.relativeDeadline == Duration{}) config.relativeDeadline = config.period;
  if (config.budget == Duration{}) config.budget = config.wcet;
  TaskEntry taskEntry;
  taskEntry.label = cpu_.intern(config.name);
  taskEntry.config = std::move(config);
  taskEntry.handler = std::move(handler);
  taskEntry.onCopyStop = std::move(onCopyStop);
  taskEntry.onAbort = std::move(onAbort);
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
  for (auto& task : tasks_) {
    simulator_.cancel(task.nextRelease);
    task.nextRelease = sim::EventId{};
    if (task.activeJob) {
      Job& job = *task.activeJob;
      if (job.copyWork_.valid()) {
        cpu_.cancel(job.copyWork_);
        job.copyWork_ = WorkId{};
      }
      simulator_.cancel(job.deadlineEvent_);
      retire(std::move(task.activeJob));
    }
  }
}

void RtKernel::restart() {
  if (!stopped_) return;
  stopped_ = false;
  start();
}

void RtKernel::retire(std::unique_ptr<Job> job) {
  if (!job) return;
  retired_.push_back(std::move(job));
  if (!retireCleanupScheduled_) {
    retireCleanupScheduled_ = true;
    simulator_.scheduleAfter(Duration{}, event<&RtKernel::recycleRetired>(),
                             sim::EventPriority::Observer);
  }
}

void RtKernel::recycleRetired(std::uint64_t) {
  retireCleanupScheduled_ = false;
  for (std::unique_ptr<Job>& retired : retired_) freeJobs_.push_back(std::move(retired));
  retired_.clear();
}

void RtKernel::scheduleNextRelease(std::uint32_t taskIndex, SimTime at) {
  tasks_[taskIndex].nextRelease =
      simulator_.scheduleAt(at, event<&RtKernel::release>(taskIndex), sim::EventPriority::Kernel);
}

void RtKernel::abortActiveJob(TaskEntry& task) {
  Job& job = *task.activeJob;
  job.omit();  // retires the job; it stays alive until the cleanup event
  if (task.onAbort) task.onAbort(job);
}

void RtKernel::release(std::uint64_t taskIndex) {
  TaskEntry& task = tasks_[taskIndex];
  task.nextRelease = sim::EventId{};
  if (stopped_ || task.disabled) return;

  // Schedule the next periodic release first so a handler exception cannot
  // stall the task chain.
  const auto index = static_cast<std::uint32_t>(taskIndex);
  if (task.config.period > Duration{}) {
    scheduleNextRelease(index, simulator_.now() + task.config.period);
  }

  task.stats.releases++;

  if (task.activeJob) {
    // Previous job still active at its successor's release: count it as a
    // deadline miss and abort it (it can no longer deliver a timely result).
    task.stats.deadlineMisses++;
    abortActiveJob(task);
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
  job->begin(TaskId{index}, task.nextJobIndex++, now, deadline);

  // A periodic job whose deadline is at or after the next release needs no
  // deadline event: that release (scheduled above, so at D = T it runs
  // first) aborts the job if it is still active, so the event could only
  // ever be cancelled unfired.
  // The event names the task: every way a job finishes cancels it, so when
  // it fires, the task's active job is this one.
  if (task.config.period == Duration{} || task.config.relativeDeadline < task.config.period) {
    job->deadlineEvent_ = simulator_.scheduleAt(deadline, event<&RtKernel::onDeadline>(index),
                                                sim::EventPriority::Kernel);
  }

  task.handler(*job);
}

void RtKernel::onDeadline(std::uint64_t taskIndex) { tasks_[taskIndex].activeJob->onDeadline(); }

// Like the deadline event, the completion names the task: every way a job
// finishes cancels its copy, so the task's active job is the copy's job.
void RtKernel::onCopyCompleted(std::uint64_t taskIndex) {
  TaskEntry& task = tasks_[taskIndex];
  Job& job = *task.activeJob;
  if (job.copyOverruns_) task.stats.budgetOverruns++;
  endCopy(job, job.copyOverruns_ ? CopyStop::BudgetOverrun : CopyStop::Completed);
}

void RtKernel::endCopy(Job& job, CopyStop stop) {
  job.copyWork_ = WorkId{};
  const TaskEntry& task = tasks_[job.task_.value];
  if (task.onCopyStop) task.onCopyStop(job, stop);
}

void RtKernel::releaseSporadic(TaskId task) {
  if (stopped_) return;
  const TaskEntry& taskEntry = entry(task);
  if (taskEntry.config.period > Duration{}) {
    // A second release chain would double the task's releases.
    throw std::invalid_argument("RtKernel::releaseSporadic: task '" + taskEntry.config.name +
                                "' is periodic");
  }
  release(task.value);
}

void RtKernel::reportKernelError() {
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
