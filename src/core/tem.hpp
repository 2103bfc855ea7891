// Temporal Error Masking (TEM) on the real-time kernel — the heart of
// light-weight NLFT (paper Section 2.5, Fig. 3). Every critical-task job
// runs as a sequence of copies, and tem::Protocol (core/protocol.hpp) takes
// every copy, vote and omission decision. An error detected by a
// hardware/software EDM terminates the running copy at once (the copy's
// plan ends in End::DetectedError, or the execution-time monitor stops it):
// its remaining time is reclaimed, and the next copy starts from the CPU
// context in the task control block (EDM exceptions typically stem from
// PC/SP register faults). Another copy fits while the job's deadline still
// holds one worst-case copy; otherwise the job is omitted and the system
// level handles the omission (Section 2.2).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/protocol.hpp"
#include "rtkernel/kernel.hpp"

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
};

struct CopyContext {
  std::uint64_t jobIndex = 0;
  int copyIndex = 0;  ///< 1-based; counts every started copy including replacements
};

/// Behavior of a critical task: invoked once per started copy; fills `plan`.
using CopyBehavior = std::function<void(const CopyContext&, CopyPlan& plan)>;

/// Resets `plan` to the defaults, keeping the capacity of its result buffer.
void resetPlan(CopyPlan& plan);

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
  std::uint64_t omissionsNoTime = 0;     ///< no further copy permitted or fits, no vote possible
  std::uint64_t omissionsVoteFailed = 0; ///< the last permitted copy gave a result; no two agree
  std::uint64_t omissionsAborted = 0;    ///< deadline monitor aborted the job
};

/// Creates the kernel job handler that executes one critical task under TEM:
/// at most Protocol::kMaxCopies copies per job, with the comparison and the
/// vote charged no CPU time of their own.
///
/// `onJobError` (optional) is told after each finished job whether the job
/// experienced any error — the node policy uses this for permanent-fault
/// suspicion (repeated errors => shut down for off-line diagnosis).
///
/// The kernel's handlers hold the executor, so it can be neither copied nor
/// moved.
class TemExecutor {
 public:
  explicit TemExecutor(rt::RtKernel& kernel);
  TemExecutor(const TemExecutor&) = delete;
  TemExecutor& operator=(const TemExecutor&) = delete;

  /// Registers `behavior` as a TEM-protected critical task.
  rt::TaskId addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior);

  [[nodiscard]] const TemStats& stats(rt::TaskId task) const;

  using JobErrorCallback = std::function<void(rt::TaskId, bool jobHadError)>;
  void setJobErrorCallback(JobErrorCallback callback) { onJobError_ = std::move(callback); }

 private:
  /// The kernel runs at most one job per task, so each task keeps one
  /// protocol, readied at each release. A finished copy's result is swapped in
  /// from `plan`, so the buffers are reused from job to job.
  struct TaskState {
    rt::TaskId id;
    CopyBehavior behavior;
    TemStats stats;
    Protocol protocol;
    CopyPlan plan;  ///< the running copy's plan
  };

  void startCopy(TaskState& state, rt::Job& job);
  /// The task's copy-stop handler, registered once with the kernel.
  void onCopyStop(TaskState& state, rt::Job& job, rt::CopyStop stop);

  rt::RtKernel& kernel_;
  std::vector<std::unique_ptr<TaskState>> tasks_;
  JobErrorCallback onJobError_;
};

}  // namespace nlft::tem
