// Renders the paper's Figure 3 — the four temporal-error-masking scenarios —
// as ASCII Gantt charts of the actual kernel schedule. A filler task shows
// where TEM's unused third-copy slack goes in the fault-free case.
//
//   $ ./tem_gantt
#include <cstdio>

#include "core/tem.hpp"
#include "rtkernel/trace.hpp"

using namespace nlft;
using util::Duration;
using util::SimTime;

namespace {

void runScenario(const char* title, const char* caption, tem::CopyBehavior behavior) {
  sim::Simulator simulator;
  rt::Cpu cpu{simulator};
  rt::RtKernel kernel{simulator, cpu};
  tem::TemExecutor temExecutor{kernel};

  rt::TaskConfig critical;
  critical.name = "T";
  critical.priority = 10;
  critical.period = Duration::milliseconds(12);
  critical.wcet = Duration::milliseconds(2);
  temExecutor.addCriticalTask(critical, std::move(behavior));

  // A low-priority filler soaks up whatever the critical task leaves free.
  rt::TaskConfig filler;
  filler.name = "other";
  filler.priority = 1;
  filler.period = Duration::milliseconds(12);
  filler.wcet = Duration::milliseconds(5);
  filler.budget = Duration::milliseconds(5);
  kernel.addTask(filler, [](rt::Job& job) {
    job.runCopy(Duration::milliseconds(5), [&job](rt::CopyStop) { job.complete({}); });
  });

  kernel.start();
  simulator.runUntil(SimTime::fromUs(11'999));

  std::printf("%s\n%s\n", title, caption);
  std::printf("%s", renderGantt(cpu.trace(), Duration::microseconds(500),
                                Duration::milliseconds(12)).c_str());
  std::printf("          (one column = 0.5 ms, job period = 12 ms)\n\n");
}

void clean(const tem::CopyContext&, tem::CopyPlan& plan) {
  plan.executionTime = Duration::milliseconds(2);
  plan.result = {42};
}

}  // namespace

int main() {
  std::printf("Figure 3 of the paper, reproduced from live kernel schedules.\n\n");

  runScenario("(i) fault-free operation",
              "T^1 and T^2 run, results match, the third-copy slack goes to 'other':",
              clean);

  runScenario("(ii) error detected by the comparison",
              "T^2's result is corrupted; T^3 runs and the majority vote masks it:",
              [](const tem::CopyContext& context, tem::CopyPlan& plan) {
                clean(context, plan);
                if (context.copyIndex == 2) plan.result[0] ^= 0xFF;
              });

  runScenario("(iii) error detected by an EDM in T^2",
              "T^2 is terminated at 0.8 ms (time reclaimed), T^3 starts immediately:",
              [](const tem::CopyContext& context, tem::CopyPlan& plan) {
                clean(context, plan);
                if (context.copyIndex == 2) {
                  plan.end = tem::CopyPlan::End::DetectedError;
                  plan.executionTime = Duration::microseconds(800);
                }
              });

  runScenario("(iv) error detected by an EDM in T^1",
              "T^1 is terminated at 0.8 ms; the replacement and T^2 still fit:",
              [](const tem::CopyContext& context, tem::CopyPlan& plan) {
                clean(context, plan);
                if (context.copyIndex == 1) {
                  plan.end = tem::CopyPlan::End::DetectedError;
                  plan.executionTime = Duration::microseconds(800);
                }
              });

  return 0;
}
