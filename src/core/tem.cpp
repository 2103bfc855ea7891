#include "core/tem.hpp"

#include <stdexcept>

namespace nlft::tem {

void resetPlan(CopyPlan& plan) {
  plan.executionTime = Duration{};
  plan.end = CopyPlan::End::Result;
  plan.result.clear();
  plan.error = rt::ErrorEvent{};
}

TemExecutor::TemExecutor(rt::RtKernel& kernel, TemConfig config)
    : kernel_{kernel}, config_{config} {
  if (config_.maxCopies < 2) throw std::invalid_argument("TemExecutor: maxCopies must be >= 2");
}

rt::TaskId TemExecutor::addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("TemExecutor: null behavior");
  taskConfig.criticality = rt::Criticality::Critical;
  // The comparison/vote is charged as part of the copy's CPU work, so the
  // execution-time-monitor budget must cover it too.
  if (taskConfig.budget == Duration{}) taskConfig.budget = taskConfig.wcet;
  taskConfig.budget += config_.checkOverhead;
  auto state = std::make_unique<TaskState>();
  TaskState* raw = state.get();
  state->behavior = std::move(behavior);
  state->id = kernel_.addTask(std::move(taskConfig),
                              [this, raw](rt::Job& job) { runJob(*raw, job); });
  tasks_.push_back(std::move(state));
  return tasks_.back()->id;
}

const TemStats& TemExecutor::stats(rt::TaskId task) const {
  for (const auto& state : tasks_) {
    if (state->id == task) return state->stats;
  }
  throw std::invalid_argument("TemExecutor: unknown task");
}

void TemExecutor::runJob(TaskState& state, rt::Job& job) {
  state.stats.jobs++;
  JobRun& run = state.run;
  run.job = &job;
  run.copiesStarted = 0;
  run.resultCount = 0;
  run.sawMismatch = false;
  run.sawDetectedError = false;

  // The handlers capture only `this` and the task state, so they fit the
  // std::function inline buffer and need no allocation per job.
  job.setAbortHandler([this, s = &state] {
    s->stats.omissionsAborted++;
    if (onJobError_) onJobError_(s->id, true);
  });

  // Errors reported while a copy runs (hardware EDM, ECC, MMU, integrity
  // checks): terminate the copy at once — scenario (iii)/(iv). Remaining
  // copy time is reclaimed because the CPU work item is cancelled.
  job.setErrorHandler([this, s = &state](const rt::ErrorEvent&) {
    s->run.sawDetectedError = true;
    s->stats.edmDetectedErrors++;
    if (config_.restoreContextOnEdmError) s->stats.contextRestores++;
    if (s->run.job->copyActive()) {
      s->run.job->killRunningCopy();  // its onStop(Killed) continues the recovery
    }
  });

  startCopy(state);
}

void TemExecutor::startCopy(TaskState& state) {
  JobRun& run = state.run;
  const CopyContext context{run.job->index(), ++run.copiesStarted};
  if (context.copyIndex == 1) {
    state.stats.firstCopies++;
  } else if (context.copyIndex == 2) {
    state.stats.secondCopies++;
  } else {
    state.stats.thirdCopies++;
  }
  resetPlan(run.plan);
  state.behavior(context, run.plan);

  // Comparison (after the second and later copies) is charged as CPU time
  // together with the copy itself.
  Duration work = run.plan.executionTime;
  if (context.copyIndex >= 2) work += config_.checkOverhead;

  run.job->runCopy(work, [this, s = &state](rt::CopyStop stop) { onCopyStop(*s, stop); });
}

void TemExecutor::onCopyStop(TaskState& state, rt::CopyStop stop) {
  JobRun& run = state.run;
  rt::Job& job = *run.job;
  // complete() and omit() finish the job, so they are the last use of `run`:
  // a release they trigger may already reset it for the next job.
  auto deliver = [&](const TaskResult& result) {
    if (!run.hadError()) {
      state.stats.deliveredCleanly++;
    } else if (run.sawMismatch && run.resultCount >= 3) {
      state.stats.maskedByVote++;
    } else {
      state.stats.maskedByReplacement++;
    }
    const bool hadError = run.hadError();
    job.complete(result);  // retires the job: last action
    if (onJobError_) onJobError_(state.id, hadError);
  };
  auto omitNoTime = [&] {
    state.stats.omissionsNoTime++;
    job.omit();
    if (onJobError_) onJobError_(state.id, true);
  };
  auto omitVoteFailed = [&] {
    state.stats.omissionsVoteFailed++;
    job.omit();
    if (onJobError_) onJobError_(state.id, true);
  };
  // Can another copy be started and still meet the deadline? The kernel
  // checks the deadline after every error (Section 2.5); the estimate is
  // one copy worst case plus the comparison/vote.
  auto anotherCopyFeasible = [&] {
    if (run.copiesStarted >= config_.maxCopies) return false;
    const Duration estimate = job.config().wcet + config_.checkOverhead;
    return job.timeToDeadline() >= estimate;
  };

  switch (stop) {
    case rt::CopyStop::Aborted:
      // The kernel's deadline monitor already omitted the job and invoked
      // the abort handler; nothing more to do.
      return;
    case rt::CopyStop::Killed:
      // Terminated by the error handler; fall through to recovery.
      break;
    case rt::CopyStop::BudgetOverrun:
      // The execution-time monitor is itself an EDM (Table 1).
      run.sawDetectedError = true;
      state.stats.edmDetectedErrors++;
      if (config_.restoreContextOnEdmError) state.stats.contextRestores++;
      break;
    case rt::CopyStop::Completed:
      if (run.plan.end == CopyPlan::End::DetectedError) {
        // The EDM fired after the copy consumed plan.executionTime.
        run.sawDetectedError = true;
        state.stats.edmDetectedErrors++;
        if (config_.restoreContextOnEdmError) state.stats.contextRestores++;
        break;  // discard: the copy produced no trustworthy result
      }
      if (run.resultCount == run.results.size()) run.results.emplace_back();
      run.results[run.resultCount++].swap(run.plan.result);
      if (run.resultCount >= 2) {
        if (run.resultCount == 2 && !resultsMatch(run.results[0], run.results[1])) {
          run.sawMismatch = true;
          state.stats.comparisonMismatches++;
        }
        const std::span<const TaskResult> results{run.results.data(), run.resultCount};
        if (const auto voted = majorityVote(results)) {
          deliver(results[*voted]);
          return;
        }
        // All results differ pairwise.
        if (run.copiesStarted >= config_.maxCopies) {
          omitVoteFailed();
          return;
        }
      }
      break;
  }

  // Need another copy (first result pending, mismatch, or detected error).
  if (anotherCopyFeasible()) {
    startCopy(state);
  } else {
    omitNoTime();
  }
}

}  // namespace nlft::tem
