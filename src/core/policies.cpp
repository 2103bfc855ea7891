#include "core/policies.hpp"

#include <stdexcept>

namespace nlft::tem {

namespace {

/// A task that runs one copy per job and hands any detected error to
/// `onError`: the fail-silent node's silence, or a non-critical task's
/// shutdown. The kernel runs at most one job per task, so the plan is reused
/// from job to job.
struct SingleCopyTask {
  SingleCopyTask(CopyBehavior b, std::function<void(rt::TaskId)> e)
      : behavior{std::move(b)}, onError{std::move(e)} {}

  void run(rt::Job& job) {
    resetPlan(plan);
    behavior(CopyContext{job.index(), 1}, plan);
    job.runCopy(plan.executionTime);
  }

  /// The task's copy-stop handler, registered once with the kernel.
  void onStop(rt::Job& job, rt::CopyStop stop) {
    if (stop == rt::CopyStop::Aborted) return;
    if (stop != rt::CopyStop::Completed || plan.end == CopyPlan::End::DetectedError) {
      onError(job.taskId());
      return;
    }
    job.complete(plan.result);
  }

  CopyBehavior behavior;
  std::function<void(rt::TaskId)> onError;
  CopyPlan plan;
};

rt::TaskId addSingleCopyTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                             CopyBehavior behavior, std::function<void(rt::TaskId)> onError) {
  auto task = std::make_shared<SingleCopyTask>(std::move(behavior), std::move(onError));
  return kernel.addTask(
      std::move(taskConfig), [task](rt::Job& job) { task->run(job); },
      [task](rt::Job& job, rt::CopyStop stop) { task->onStop(job, stop); });
}

}  // namespace

rt::TaskId addFailSilentTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                             CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("addFailSilentTask: null behavior");
  // Fail-silent semantics: the node stops producing any output.
  return addSingleCopyTask(kernel, std::move(taskConfig), std::move(behavior),
                           [&kernel](rt::TaskId) { kernel.reportKernelError(); });
}

rt::TaskId addNonCriticalTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                              CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("addNonCriticalTask: null behavior");
  return addSingleCopyTask(kernel, std::move(taskConfig), std::move(behavior),
                           [&kernel](rt::TaskId id) { kernel.disableTask(id); });
}

PermanentFaultMonitor::PermanentFaultMonitor(int threshold) : threshold_{threshold} {
  if (threshold < 1) throw std::invalid_argument("PermanentFaultMonitor: threshold must be >= 1");
}

void PermanentFaultMonitor::onJob(rt::TaskId task, bool jobHadError) {
  if (!jobHadError) {
    if (task.value < streaks_.size()) streaks_[task.value] = 0;
    return;
  }
  if (task.value >= streaks_.size()) streaks_.resize(task.value + 1, 0);
  if (++streaks_[task.value] >= threshold_ && !suspected_) {
    suspected_ = true;
    if (shutdown_) shutdown_();
  }
}

int PermanentFaultMonitor::streak(rt::TaskId task) const {
  return task.value < streaks_.size() ? streaks_[task.value] : 0;
}

}  // namespace nlft::tem
