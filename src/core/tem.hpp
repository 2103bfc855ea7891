// Temporal Error Masking (TEM) — the heart of light-weight NLFT
// (paper Section 2.5, Fig. 3).
//
// Every critical-task job is executed as a sequence of copies on the
// real-time kernel:
//
//   (i)   Fault-free: two copies run, their results match, the result is
//         delivered. The would-be third-copy slack is left to other tasks.
//   (ii)  A comparison mismatch (silent data corruption) triggers a third
//         copy and a 2-of-3 majority vote; two matching results are
//         delivered, otherwise the job ends in an omission failure.
//   (iii) An error detected by a hardware/software EDM terminates the
//         affected copy immediately; a replacement copy starts at once,
//         reclaiming the terminated copy's remaining time. The CPU context
//         is fully restored from the task control block (EDM exceptions
//         typically stem from PC/SP register faults).
//   (iv)  Same as (iii) with the fault in the first copy.
//
// Before every extra copy the executor checks the job deadline; when the
// remaining time cannot fit another copy plus its check, an omission
// failure is enforced (the system level then handles it, Section 2.2).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/result.hpp"
#include "rtkernel/kernel.hpp"
#include "rtkernel/task.hpp"

namespace nlft::tem {

using rt::Duration;

/// What one task copy will do when executed. Filled by the copy behavior
/// before the copy runs, so that EDM-detected errors can terminate the copy
/// part-way through (its remaining time is reclaimed).
///
/// The executor owns the plan. It hands it to the behavior reset to the
/// defaults below, with an empty `result` that keeps the capacity of earlier
/// copies, so a behavior that writes its words into `result` allocates
/// nothing once the buffers have grown.
struct CopyPlan {
  enum class End : std::uint8_t {
    Result,         ///< runs to completion and produces `result`
    DetectedError,  ///< an EDM fires after `executionTime` of CPU time
  };
  Duration executionTime{};  ///< CPU time this copy consumes
  End end = End::Result;
  TaskResult result;         ///< possibly silently corrupted
  rt::ErrorEvent error{};    ///< when end == DetectedError
};

struct CopyContext {
  std::uint64_t jobIndex = 0;
  int copyIndex = 0;  ///< 1-based; counts every started copy including replacements
};

/// Behavior of a critical task: invoked once per started copy; fills `plan`.
using CopyBehavior = std::function<void(const CopyContext&, CopyPlan& plan)>;

/// Resets `plan` to the defaults, keeping the capacity of its result buffer.
void resetPlan(CopyPlan& plan);

/// TEM tuning knobs.
struct TemConfig {
  int maxCopies = 3;             ///< total started copies per job (paper: 3)
  Duration checkOverhead{};      ///< CPU cost of one comparison or vote
};

/// Per-task TEM statistics, beyond the kernel's TaskStats.
struct TemStats {
  std::uint64_t jobs = 0;
  std::uint64_t firstCopies = 0;   ///< started copies with copyIndex == 1
  std::uint64_t secondCopies = 0;  ///< started copies with copyIndex == 2
  std::uint64_t thirdCopies = 0;   ///< started copies with copyIndex >= 3
  std::uint64_t deliveredCleanly = 0;    ///< scenario (i)
  std::uint64_t maskedByVote = 0;        ///< scenario (ii) success
  std::uint64_t maskedByReplacement = 0; ///< scenario (iii)/(iv) success
  std::uint64_t comparisonMismatches = 0;
  std::uint64_t edmDetectedErrors = 0;
  std::uint64_t omissionsNoTime = 0;     ///< recovery abandoned: deadline too close
  std::uint64_t omissionsVoteFailed = 0; ///< three pairwise-different results
  std::uint64_t omissionsAborted = 0;    ///< deadline monitor aborted the job
};

/// Creates the kernel job handler that executes one critical task under TEM.
///
/// `onJobError` (optional) is told after each finished job whether the job
/// experienced any error — the node policy uses this for permanent-fault
/// suspicion (repeated errors => shut down for off-line diagnosis).
class TemExecutor {
 public:
  TemExecutor(rt::RtKernel& kernel, TemConfig config = {});

  /// Registers `behavior` as a TEM-protected critical task.
  rt::TaskId addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior);

  [[nodiscard]] const TemStats& stats(rt::TaskId task) const;

  using JobErrorCallback = std::function<void(rt::TaskId, bool jobHadError)>;
  void setJobErrorCallback(JobErrorCallback callback) { onJobError_ = std::move(callback); }

 private:
  /// Mutable state of one job's TEM execution. The kernel runs at most one
  /// job per task, so each task keeps one instance that runJob() resets.
  struct JobRun {
    int copiesStarted = 0;
    /// The first `resultCount` entries are this job's copy results. A
    /// finished copy's result is swapped in from `plan`, so the buffers are
    /// reused from job to job.
    std::vector<TaskResult> results;
    std::size_t resultCount = 0;
    bool sawMismatch = false;
    bool sawDetectedError = false;
    CopyPlan plan;  ///< the running copy's plan

    [[nodiscard]] bool hadError() const { return sawMismatch || sawDetectedError; }
  };
  struct TaskState {
    rt::TaskId id;
    CopyBehavior behavior;
    TemStats stats;
    JobRun run;
  };

  void runJob(TaskState& state, rt::Job& job);
  void startCopy(TaskState& state, rt::Job& job);
  /// The task's copy-stop handler, registered once with the kernel.
  void onCopyStop(TaskState& state, rt::Job& job, rt::CopyStop stop);

  rt::RtKernel& kernel_;
  TemConfig config_;
  std::vector<std::unique_ptr<TaskState>> tasks_;
  JobErrorCallback onJobError_;
};

}  // namespace nlft::tem
