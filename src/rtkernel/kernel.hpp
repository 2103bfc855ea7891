// The real-time kernel: periodic/sporadic job release, per-job control,
// deadline monitoring and budget enforcement on top of the preemptive
// fixed-priority Cpu.
//
// The kernel itself is policy-free about error handling: it routes detected
// errors to the active job's error handler and exposes the omission /
// fail-silent actions. The NLFT layer (src/core) implements temporal error
// masking on top of exactly this interface; a conventional fail-silent node
// uses the same kernel with a different policy.
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
  Killed,         ///< killed by killRunningCopy() (e.g. EDM error)
  Aborted,        ///< job aborted by the deadline monitor
};

/// An error detected while a task (or the kernel) was executing.
struct ErrorEvent {
  enum class Source : std::uint8_t {
    HardwareException,  ///< CPU exception (illegal opcode, address error, ...)
    EccUncorrectable,
    MmuViolation,
    DataIntegrity,      ///< duplicated-data / CRC check mismatch
    ControlFlow,        ///< control-flow signature check failed
    External,           ///< injected or reported by another mechanism
  };
  Source source = Source::External;
  int detail = 0;  ///< e.g. hw::ExceptionKind as int
};

/// One kernel-level event, streamed to an external tap (golden-trace
/// recording, observers). Job/task fields are valid for the job- and
/// task-scoped kinds only.
struct KernelEvent {
  enum class Kind : std::uint8_t {
    JobCompleted,  ///< job delivered a result
    JobOmitted,    ///< job finished with an omission (no result)
    TaskError,     ///< detected error routed to a task
    KernelError,   ///< kernel-internal error (leads to Stopped)
    Stopped,       ///< kernel went silent
    Restarted,     ///< kernel came back up
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
  /// The execution-time monitor kills the copy after the task budget.
  /// Exactly one copy may run at a time.
  void runCopy(Duration work, std::function<void(CopyStop)> onStop);

  /// True while a copy is queued or running on the CPU.
  [[nodiscard]] bool copyActive() const { return copyWork_.valid(); }

  /// Kills the active copy; its onStop fires with CopyStop::Killed. The
  /// remaining CPU time is reclaimed (paper Fig. 3, scenario iii).
  void killRunningCopy();

  /// Delivers the job result and finishes the job. The result sink sees
  /// `result` itself; the kernel does not copy it.
  void complete(std::span<const std::uint32_t> result);

  /// Finishes the job with an omission failure (no result delivered).
  void omit();

  /// Registers a callback for errors routed to this job while it is active.
  void setErrorHandler(std::function<void(const ErrorEvent&)> handler) {
    errorHandler_ = std::move(handler);
  }

  /// Registers a callback fired if the deadline monitor aborts the job.
  void setAbortHandler(std::function<void()> handler) { abortHandler_ = std::move(handler); }

 private:
  friend class RtKernel;
  explicit Job(RtKernel& kernel) : kernel_{kernel} {}

  /// Readies a fresh or recycled object for a new job.
  void begin(TaskId task, std::uint64_t index, SimTime release, SimTime deadline);
  void finish();
  /// The deadline monitor: fires at the absolute deadline.
  void onDeadline();

  RtKernel& kernel_;
  TaskId task_{};
  std::uint64_t index_ = 0;
  SimTime release_;
  SimTime deadline_;
  WorkId copyWork_{};
  std::function<void(CopyStop)> copyStop_;
  std::function<void(const ErrorEvent&)> errorHandler_;
  std::function<void()> abortHandler_;
  sim::EventId deadlineEvent_{};
  bool finished_ = false;
};

class RtKernel {
 public:
  using JobHandler = std::function<void(Job&)>;
  using ResultSink = std::function<void(const JobResult&)>;

  RtKernel(sim::Simulator& simulator, Cpu& cpu);
  RtKernel(const RtKernel&) = delete;
  RtKernel& operator=(const RtKernel&) = delete;

  /// Registers a task; `handler` is invoked at every job release.
  TaskId addTask(TaskConfig config, JobHandler handler);

  /// Receives every delivered job result (e.g. the network layer).
  void setResultSink(ResultSink sink) { resultSink_ = std::move(sink); }

  /// Streams kernel-level events (job completion/omission, detected errors,
  /// stop/restart) to an observer; one tap per kernel.
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

  /// Releases one job of a sporadic (or periodic) task right now.
  void releaseSporadic(TaskId task);

  /// Routes a detected error to the task's active job (TEM reacts to it).
  /// Errors for tasks without an active job are counted but otherwise lost.
  void reportTaskError(TaskId task, const ErrorEvent& event);

  /// A kernel-internal error: the node becomes silent (strategy 3).
  void reportKernelError(const ErrorEvent& event);

  /// Disables further releases of a task (used to shut down non-critical
  /// tasks after an error, Section 2.2 strategy 2).
  void disableTask(TaskId task);

  [[nodiscard]] const TaskConfig& config(TaskId task) const;
  [[nodiscard]] const TaskStats& stats(TaskId task) const;
  [[nodiscard]] TaskStats& mutableStats(TaskId task);
  [[nodiscard]] bool jobActive(TaskId task) const;
  [[nodiscard]] Job* activeJob(TaskId task);
  [[nodiscard]] std::size_t taskCount() const { return tasks_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] Cpu& cpu() { return cpu_; }

  [[nodiscard]] std::uint64_t kernelErrors() const { return kernelErrors_; }

 private:
  friend class Job;
  struct TaskEntry {
    TaskConfig config;
    JobHandler handler;
    TaskStats stats;
    std::uint64_t nextJobIndex = 0;
    std::unique_ptr<Job> activeJob;
    sim::EventId nextRelease{};
    bool disabled = false;
  };

  void release(std::uint32_t taskIndex);
  void scheduleNextRelease(std::uint32_t taskIndex, SimTime at);
  TaskEntry& entry(TaskId task);
  const TaskEntry& entry(TaskId task) const;

  /// Finished jobs are recycled deferred (at the end of the current event)
  /// because finish() is regularly reached from inside the job's own
  /// callbacks.
  void retire(std::unique_ptr<Job> job);

  void emitEvent(KernelEvent::Kind kind, TaskId task = {}, std::uint64_t jobIndex = 0);

  sim::Simulator& simulator_;
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
