#include "core/tem.hpp"

#include <stdexcept>

namespace nlft::tem {

void resetPlan(CopyPlan& plan) {
  plan.executionTime = Duration{};
  plan.end = CopyPlan::End::Result;
  plan.result.clear();
}

TemExecutor::TemExecutor(rt::RtKernel& kernel) : kernel_{kernel} {}

rt::TaskId TemExecutor::addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("TemExecutor: null behavior");
  taskConfig.criticality = rt::Criticality::Critical;
  auto state = std::make_unique<TaskState>();
  TaskState* raw = state.get();
  state->behavior = std::move(behavior);
  state->id = kernel_.addTask(
      std::move(taskConfig),
      [this, raw](rt::Job& job) {
        raw->stats.jobs++;
        raw->protocol.begin();
        startCopy(*raw, job);
      },
      [this, raw](rt::Job& job, rt::CopyStop stop) { onCopyStop(*raw, job, stop); },
      [this, raw](rt::Job&) {
        raw->stats.omissionsAborted++;
        if (onJobError_) onJobError_(raw->id, true);
      });
  tasks_.push_back(std::move(state));
  return tasks_.back()->id;
}

const TemStats& TemExecutor::stats(rt::TaskId task) const {
  for (const auto& state : tasks_) {
    if (state->id == task) return state->stats;
  }
  throw std::invalid_argument("TemExecutor: unknown task");
}

void TemExecutor::startCopy(TaskState& state, rt::Job& job) {
  const CopyContext context{job.index(), state.protocol.startCopy()};
  TemStats& s = state.stats;
  ++(context.copyIndex == 1   ? s.firstCopies
     : context.copyIndex == 2 ? s.secondCopies
                              : s.thirdCopies);
  resetPlan(state.plan);
  state.behavior(context, state.plan);
  job.runCopy(state.plan.executionTime);
}

void TemExecutor::onCopyStop(TaskState& state, rt::Job& job, rt::CopyStop stop) {
  // The deadline monitor ended the copy; after this handler returns, it
  // omits the job and calls the abort handler.
  if (stop == rt::CopyStop::Aborted) return;

  // Can another copy start and still meet the deadline? The kernel checks
  // the deadline after every error (Section 2.5); the estimate is one copy
  // worst case.
  const bool fits = job.timeToDeadline() >= job.config().wcet;
  Decision decision;
  if (stop == rt::CopyStop::Completed && state.plan.end == CopyPlan::End::Result) {
    decision = state.protocol.onResult(state.plan.result, fits);
    if (decision.mismatch) state.stats.comparisonMismatches++;
  } else {
    // An EDM ended the copy: the execution-time monitor (BudgetOverrun;
    // Table 1), or the one a DetectedError plan fires once the copy has
    // consumed plan.executionTime. The copy's remaining time is reclaimed.
    state.stats.edmDetectedErrors++;
    decision = state.protocol.onDetectedError(fits);
  }

  switch (decision.action) {
    case Action::RunCopy: startCopy(state, job); return;
    case Action::DeliverClean: state.stats.deliveredCleanly++; break;
    case Action::DeliverByVote: state.stats.maskedByVote++; break;
    case Action::DeliverByReplacement: state.stats.maskedByReplacement++; break;
    case Action::OmitVoteFailed: state.stats.omissionsVoteFailed++; break;
    case Action::OmitNoTime: state.stats.omissionsNoTime++; break;
  }
  // complete() and omit() finish the job, so they are the last use of the
  // protocol: a release they trigger may already ready it for the next job.
  const bool jobHadError = !decision.delivers() || state.protocol.hadError();
  if (decision.delivers()) {
    job.complete(state.protocol.result(decision.result));
  } else {
    job.omit();
  }
  if (onJobError_) onJobError_(state.id, jobHadError);
}

}  // namespace nlft::tem
