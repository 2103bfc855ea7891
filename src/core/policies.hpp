// Node-level error-handling policies built on the kernel and TEM:
//
//  * addFailSilentTask — a task of the conventional fail-silent node of the
//    paper's comparison baseline: it runs once per job, and ANY detected
//    error silences the whole node (kernel stop + fail-silent hook).
//  * addNonCriticalTask — strategy 2 of Section 2.2: a non-critical task is
//    shut down on error so the remaining tasks keep running.
//  * PermanentFaultMonitor — repeated errors on consecutive jobs suggest a
//    permanent fault; the node is shut down for off-line diagnosis
//    (Section 2.5, last paragraph).
#pragma once

#include <functional>
#include <vector>

#include "core/tem.hpp"
#include "rtkernel/kernel.hpp"

namespace nlft::tem {

/// Registers a critical task of a fail-silent node: executed once per
/// release, with no masking; a detected error stops the node. It takes the
/// same CopyBehavior as TEM, so the two node types run identical workloads.
rt::TaskId addFailSilentTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                             CopyBehavior behavior);

/// Registers a non-critical task: executed once per release; a detected
/// error shuts the task down (further releases disabled) without affecting
/// the node.
rt::TaskId addNonCriticalTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                              CopyBehavior behavior);

/// Consecutive erroneous jobs of one task after which a node is suspected of
/// a permanent fault.
inline constexpr int kPermanentFaultThreshold = 3;

/// Watches per-task job error streaks and requests a node shutdown for
/// off-line diagnosis when `threshold` consecutive jobs of the same task saw
/// errors (transient faults do not repeat; permanent faults do).
class PermanentFaultMonitor {
 public:
  explicit PermanentFaultMonitor(int threshold = kPermanentFaultThreshold);

  /// Wire to TemExecutor::setJobErrorCallback.
  void onJob(rt::TaskId task, bool jobHadError);

  /// Invoked once when the threshold is first reached.
  void setShutdownHook(std::function<void()> hook) { shutdown_ = std::move(hook); }

  [[nodiscard]] bool permanentSuspected() const { return suspected_; }
  [[nodiscard]] int streak(rt::TaskId task) const;

 private:
  int threshold_;
  bool suspected_ = false;
  std::function<void()> shutdown_;
  /// Indexed by TaskId::value; grown at a task's first erroneous job, so
  /// error-free jobs never allocate.
  std::vector<int> streaks_;
};

}  // namespace nlft::tem
