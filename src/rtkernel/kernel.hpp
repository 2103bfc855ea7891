// The real-time kernel: periodic/sporadic job release, per-job control,
// deadline monitoring and budget enforcement on top of the preemptive
// fixed-priority Cpu.
//
// The kernel itself is policy-free about error handling: it reports how
// each copy stopped and exposes the omission / fail-silent actions. The NLFT
// layer (src/core) implements temporal error masking on top of exactly this
// interface; a conventional fail-silent node uses the same kernel with a
// different policy. An error an EDM detects inside a copy ends that copy as
// the task's copy behaviour planned it (tem::CopyPlan::End::DetectedError);
// an error in the kernel itself silences the node (reportKernelError).
//
// Each task registers its handlers once, at addTask: the job handler, the
// copy-stop handler and the abort handler. A task copy (Job::runCopy)
// carries no callback of its own. Its CPU work item completes through a
// typed event that names the kernel and the task, and every stop of a copy
// (completed, budget overrun, aborted) reaches the task's one copy-stop
// handler with the task's active job. That job is always the copy's job,
// because every way a job finishes cancels its copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtkernel/cpu.hpp"
#include "rtkernel/task.hpp"

namespace nlft::rt {

class RtKernel;

/// Why a task-copy execution segment stopped.
enum class CopyStop : std::uint8_t {
  Completed,      ///< consumed its full CPU-time request
  BudgetOverrun,  ///< killed by the execution-time monitor
  Aborted,        ///< job aborted by the deadline monitor
};

/// One kernel-level event, streamed to an external tap (golden-trace
/// recording, observers). Job/task fields are valid for the job kinds only.
struct KernelEvent {
  enum class Kind : std::uint8_t {
    JobCompleted,  ///< job delivered a result
    JobOmitted,    ///< job finished with an omission (no result)
    KernelError,   ///< kernel-internal error: the kernel stops
  };
  Kind kind = Kind::JobCompleted;
  TaskId task{};
  std::uint64_t jobIndex = 0;
};

/// A delivered job result (the "write output" of the task loop).
///
/// `data` views the words the job completed with; it is valid only during
/// the result-sink callback. A sink that keeps the words must copy them.
struct JobResult {
  TaskId task;
  std::uint64_t jobIndex = 0;
  std::span<const std::uint32_t> data;
  SimTime deliveredAt;
};

/// Handle used by the job handler (the NLFT layer) to drive one job.
///
/// Lifetime: valid from the handler invocation until complete()/omit() or a
/// deadline abort. The kernel owns the object and recycles it for a later
/// job once the event that finished it is over.
class Job {
 public:
  [[nodiscard]] TaskId taskId() const { return task_; }
  [[nodiscard]] std::uint64_t index() const { return index_; }
  [[nodiscard]] SimTime releaseTime() const { return release_; }
  [[nodiscard]] SimTime absoluteDeadline() const { return deadline_; }
  [[nodiscard]] const TaskConfig& config() const;

  /// Time left until the deadline (can be negative after the deadline).
  [[nodiscard]] Duration timeToDeadline() const;

  /// Posts one task-copy execution of `work` CPU time at the task priority.
  /// The execution-time monitor kills the copy after the task budget. How
  /// the copy stops goes to the task's copy-stop handler (see addTask).
  /// Exactly one copy may run at a time.
  void runCopy(Duration work);

  /// Delivers the job result and finishes the job. The result sink sees
  /// `result` itself; the kernel does not copy it.
  void complete(std::span<const std::uint32_t> result);

  /// Finishes the job with an omission failure (no result delivered).
  void omit();

 private:
  friend class RtKernel;
  explicit Job(RtKernel& kernel) : kernel_{kernel} {}

  /// Readies a fresh or recycled object for a new job.
  void begin(TaskId task, std::uint64_t index, SimTime release, SimTime deadline);
  void finish();
  /// The deadline monitor: fires at the absolute deadline of a sporadic job,
  /// or of a periodic job whose deadline comes before the next release. A
  /// periodic job with D >= T gets no deadline event: the next release
  /// aborts it instead, with the same miss count, omission and abort handler.
  void onDeadline();

  RtKernel& kernel_;
  TaskId task_{};
  std::uint64_t index_ = 0;
  SimTime release_;
  SimTime deadline_;
  WorkId copyWork_{};
  /// The active copy asked for more than the budget, so the CPU grants only
  /// the budget and its completion is a BudgetOverrun stop.
  bool copyOverruns_ = false;
  sim::EventId deadlineEvent_{};
  bool finished_ = false;
};

class RtKernel {
 public:
  using JobHandler = std::function<void(Job&)>;
  using CopyStopHandler = std::function<void(Job&, CopyStop)>;
  using AbortHandler = std::function<void(Job&)>;
  using ResultSink = std::function<void(const JobResult&)>;

  RtKernel(sim::Simulator& simulator, Cpu& cpu);
  RtKernel(const RtKernel&) = delete;
  RtKernel& operator=(const RtKernel&) = delete;

  /// Registers a task; `handler` is invoked at every job release. The
  /// optional `onCopyStop` receives every stop of the task's copies with
  /// the job that ran the copy: Completed, BudgetOverrun, or Aborted by the
  /// deadline monitor (a copy cancelled because its job finished reaches no
  /// handler). `onAbort` receives every job that the deadline monitor, or
  /// the task's next release, aborts (after the job's omission; the job
  /// stays valid during the call).
  TaskId addTask(TaskConfig config, JobHandler handler, CopyStopHandler onCopyStop = {},
                 AbortHandler onAbort = {});

  /// Receives every delivered job result (e.g. the network layer).
  void setResultSink(ResultSink sink) { resultSink_ = std::move(sink); }

  /// Streams kernel-level events (job completion/omission, kernel errors) to
  /// an observer; one tap per kernel.
  using EventTap = std::function<void(const KernelEvent&)>;
  void setEventTap(EventTap tap) { eventTap_ = std::move(tap); }

  /// Invoked when the kernel decides the node must become silent
  /// (kernel-internal error, Section 2.2 strategy 3).
  void setFailSilentHook(std::function<void()> hook) { failSilent_ = std::move(hook); }

  /// Schedules the first release of every periodic task.
  void start();
  /// Stops all activity (node silent): cancels releases and aborts jobs.
  void stop();
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Brings a stopped kernel back up (node restart after diagnosis found a
  /// transient fault): periodic releases resume from the current time.
  /// Tasks disabled with disableTask() stay disabled.
  void restart();

  /// Releases one job of a sporadic task right now. Ignored after stop().
  /// Throws std::invalid_argument for a periodic task: only its own release
  /// chain releases its jobs.
  void releaseSporadic(TaskId task);

  /// A kernel-internal error: the node becomes silent (strategy 3).
  void reportKernelError();

  /// Disables further releases of a task (used to shut down non-critical
  /// tasks after an error, Section 2.2 strategy 2).
  void disableTask(TaskId task);

  [[nodiscard]] const TaskConfig& config(TaskId task) const;
  [[nodiscard]] const TaskStats& stats(TaskId task) const;
  [[nodiscard]] TaskStats& mutableStats(TaskId task);
  [[nodiscard]] Job* activeJob(TaskId task);
  [[nodiscard]] std::size_t taskCount() const { return tasks_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] Cpu& cpu() { return cpu_; }

  [[nodiscard]] std::uint64_t kernelErrors() const { return kernelErrors_; }

 private:
  friend class Job;
  struct TaskEntry {
    TaskConfig config;
    Cpu::Label label;  ///< config.name, interned by the Cpu
    JobHandler handler;
    CopyStopHandler onCopyStop;
    AbortHandler onAbort;
    TaskStats stats;
    std::uint64_t nextJobIndex = 0;
    std::unique_ptr<Job> activeJob;
    sim::EventId nextRelease{};
    bool disabled = false;
  };

  /// Typed-event handlers; `taskIndex` is the event's payload.
  void release(std::uint64_t taskIndex);
  void onDeadline(std::uint64_t taskIndex);
  /// The completion of the task's active copy, called by the Cpu.
  void onCopyCompleted(std::uint64_t taskIndex);
  void recycleRetired(std::uint64_t);
  /// A typed event of this kernel that calls `Handler`.
  template <void (RtKernel::*Handler)(std::uint64_t)>
  [[nodiscard]] sim::Event event(std::uint64_t word = 0) const {
    return sim::Event{&sim::callMember<RtKernel, Handler>, component_, word};
  }
  /// Ends `job`'s copy (already cancelled or completed on the CPU) and hands
  /// `stop` to its task's copy-stop handler.
  void endCopy(Job& job, CopyStop stop);
  void scheduleNextRelease(std::uint32_t taskIndex, SimTime at);
  /// Omits the active job of `task` and hands it to the abort handler.
  void abortActiveJob(TaskEntry& task);
  TaskEntry& entry(TaskId task);
  const TaskEntry& entry(TaskId task) const;

  /// Finished jobs are recycled deferred (at the end of the current event)
  /// because finish() is regularly reached from inside the job's own
  /// callbacks.
  void retire(std::unique_ptr<Job> job);

  void emitEvent(KernelEvent::Kind kind, TaskId task = {}, std::uint64_t jobIndex = 0);

  sim::Simulator& simulator_;
  std::uint32_t component_;  ///< this kernel's index in the simulator
  Cpu& cpu_;
  std::vector<TaskEntry> tasks_;
  ResultSink resultSink_;
  EventTap eventTap_;
  std::function<void()> failSilent_;
  bool stopped_ = false;
  std::uint64_t kernelErrors_ = 0;
  std::vector<std::unique_ptr<Job>> retired_;
  std::vector<std::unique_ptr<Job>> freeJobs_;  ///< recycled, ready for release()
  bool retireCleanupScheduled_ = false;
};

}  // namespace nlft::rt
