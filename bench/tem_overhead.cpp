// Google-benchmark microbenchmarks: the runtime cost of the framework's
// moving parts — TEM job execution on the simulated kernel, CTMC transient
// solves, Monte-Carlo trials, interpreted task copies and fault-injection
// experiments. These quantify the "time redundancy is cheap" premise of the
// paper at simulator scale and keep the analysis engine's performance under
// regression watch.
//
// The custom main() additionally measures the cost of the observability
// layer itself: the same TEM kernel workload with and without a kernel event
// tap feeding an obs::Registry, appended to BENCH_obs_overhead.json. The
// instrumented run must stay within 10% of the plain run (enforced by CI
// reading the report), backing the claim that metrics are cheap enough to
// leave on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bbw/markov_models.hpp"
#include "bbw/wheel_task.hpp"
#include "core/tem.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/time.hpp"

using namespace nlft;
using util::Duration;
using util::SimTime;

namespace {

void cleanCopy(const tem::CopyContext&, tem::CopyPlan& plan) {
  plan.executionTime = Duration::microseconds(500);
  plan.result = {42};
}

void faultySecondCopy(const tem::CopyContext& context, tem::CopyPlan& plan) {
  cleanCopy(context, plan);
  if (context.copyIndex == 2) plan.result[0] ^= 1;
}

void runTemJobs(benchmark::State& state, tem::CopyBehavior behavior) {
  for (auto _ : state) {
    sim::Simulator simulator;
    rt::Cpu cpu{simulator};
    rt::RtKernel kernel{simulator, cpu};
    tem::TemExecutor temExecutor{kernel};
    rt::TaskConfig config;
    config.name = "bench";
    config.priority = 1;
    config.period = Duration::milliseconds(5);
    config.wcet = Duration::microseconds(500);
    temExecutor.addCriticalTask(config, behavior);
    kernel.start();
    simulator.runUntil(SimTime::fromUs(100'000));  // 20 jobs
    benchmark::DoNotOptimize(simulator.processedEvents());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}

void BM_TemJobsFaultFree(benchmark::State& state) { runTemJobs(state, cleanCopy); }
BENCHMARK(BM_TemJobsFaultFree);

void BM_TemJobsWithVoteRecovery(benchmark::State& state) {
  runTemJobs(state, faultySecondCopy);
}
BENCHMARK(BM_TemJobsWithVoteRecovery);

void BM_CtmcReliabilitySolve(benchmark::State& state) {
  const auto chain = bbw::centralUnitChain(bbw::NodeType::Nlft,
                                           bbw::ReliabilityParameters::paperDefaults());
  double t = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.reliability(t));
    t += 100.0;  // vary the horizon so nothing can be cached
  }
}
BENCHMARK(BM_CtmcReliabilitySolve);

void BM_SystemMttfKronecker(benchmark::State& state) {
  const bbw::BbwStudy study;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        study.systemMttfHours(bbw::NodeType::Nlft, bbw::FunctionalityMode::Degraded));
  }
}
BENCHMARK(BM_SystemMttfKronecker);

void BM_MonteCarloTrial(benchmark::State& state) {
  sys::SystemSpec spec;
  spec.behavior = sys::NodeBehavior::Nlft;
  spec.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  util::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys::simulateLifetime(spec, 8760.0, rng));
  }
}
BENCHMARK(BM_MonteCarloTrial);

void BM_InterpretedWheelTaskCopy(benchmark::State& state) {
  const fi::TaskImage image = bbw::makeWheelTaskImage(800 * 256, 50, 600 * 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fi::goldenRun(image).output[0]);
  }
}
BENCHMARK(BM_InterpretedWheelTaskCopy);

void BM_FaultInjectionExperiment(benchmark::State& state) {
  const fi::TaskImage image = bbw::makeWheelTaskImage(800 * 256, 50, 600 * 256);
  fi::FaultSpec fault;
  fault.location = fi::RegisterBitFlip{6, 4};
  fault.afterInstructions = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fi::runTemExperiment(image, fault));
  }
}
BENCHMARK(BM_FaultInjectionExperiment);

/// One fixed TEM workload: a kernel with a vote-recovering critical task,
/// run for 1 s of simulated time (200 jobs). When `metrics` is non-null a
/// kernel event tap counts every event and the totals are folded into the
/// registry after the run — the same accumulate-locally / snapshot-once
/// pattern the system simulator uses, and the instrumented configuration
/// whose overhead BENCH_obs_overhead.json tracks.
void runObsWorkload(obs::Registry* metrics) {
  sim::Simulator simulator;
  rt::Cpu cpu{simulator};
  rt::RtKernel kernel{simulator, cpu};
  struct EventCounts {
    std::uint64_t completed = 0, omitted = 0, taskErrors = 0, other = 0;
  } counts;
  if (metrics != nullptr) {
    kernel.setEventTap([&counts](const rt::KernelEvent& event) {
      switch (event.kind) {
        case rt::KernelEvent::Kind::JobCompleted: counts.completed++; break;
        case rt::KernelEvent::Kind::JobOmitted: counts.omitted++; break;
        case rt::KernelEvent::Kind::TaskError: counts.taskErrors++; break;
        default: counts.other++; break;
      }
    });
  }
  tem::TemExecutor temExecutor{kernel};
  rt::TaskConfig config;
  config.name = "bench";
  config.priority = 1;
  config.period = Duration::milliseconds(5);
  config.wcet = Duration::microseconds(500);
  const rt::TaskId task = temExecutor.addCriticalTask(config, faultySecondCopy);
  kernel.start();
  simulator.runUntil(SimTime::fromUs(1'000'000));
  if (metrics != nullptr) {
    metrics->add("kernel.job_completed", counts.completed);
    metrics->add("kernel.job_omitted", counts.omitted);
    metrics->add("kernel.task_error", counts.taskErrors);
    metrics->add("kernel.other", counts.other);
    const tem::TemStats& stats = temExecutor.stats(task);
    metrics->add("tem.jobs", stats.jobs);
    metrics->add("tem.copies.third", stats.thirdCopies);
  }
  benchmark::DoNotOptimize(simulator.processedEvents());
}

/// Best-of-N wall time of the workload (min filters scheduler noise).
double bestSeconds(obs::Registry* metrics, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const util::MonotonicStopwatch clock;
    runObsWorkload(metrics);
    best = std::min(best, clock.elapsedSeconds());
  }
  return best;
}

void measureObsOverhead() {
  constexpr int kRepeats = 7;
  bestSeconds(nullptr, 2);  // warm-up
  const double baseline = bestSeconds(nullptr, kRepeats);
  obs::Registry metrics;
  const double instrumented = bestSeconds(&metrics, kRepeats);
  const double overhead = baseline > 0.0 ? instrumented / baseline - 1.0 : 0.0;
  std::printf("\nobs overhead: baseline %.3f ms, instrumented %.3f ms (%+.1f%%)\n",
              baseline * 1e3, instrumented * 1e3, overhead * 100.0);

  obs::JsonValue entry = obs::JsonValue::object();
  entry.set("bench", obs::JsonValue::string("tem_overhead"));
  entry.set("workload", obs::JsonValue::string("tem_kernel_1s"));
  entry.set("baseline_seconds", obs::JsonValue::number(baseline));
  entry.set("instrumented_seconds", obs::JsonValue::number(instrumented));
  entry.set("overhead_fraction", obs::JsonValue::number(overhead));
  entry.set("events_recorded",
            obs::JsonValue::integer(static_cast<std::int64_t>(
                metrics.count("kernel.job_completed") + metrics.count("kernel.job_omitted") +
                metrics.count("kernel.task_error") + metrics.count("kernel.other"))));
  obs::appendToJsonArrayFile(entry, "BENCH_obs_overhead.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  measureObsOverhead();
  return 0;
}
