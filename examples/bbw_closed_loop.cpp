// Closed-loop brake-by-wire demonstration (the paper's Fig. 4 architecture).
//
// A 1500 kg car brakes from 100 km/h. Six computer nodes (duplex central
// unit + four simplex wheel nodes) run the control system over a FlexRay-
// style bus. A transient fault strikes the front-left wheel node 0.3 s into
// the stop:
//   * with light-weight NLFT, the node masks the fault by re-execution and
//     the stopping distance is unchanged;
//   * with conventional fail-silent nodes, the node shuts down for 3 s
//     (restart + diagnosis) and the car brakes on three wheels.
//
//   $ ./bbw_closed_loop
#include <cstdio>

#include "bbw/system_sim.hpp"

using namespace nlft;
using namespace nlft::bbw;
using util::SimTime;

namespace {

void report(const char* label, const BbwSimResult& result) {
  std::printf("%-34s  distance %6.2f m   time %5.2f s   masked=%llu  fail-silent=%llu%s\n",
              label, result.stoppingDistanceM, result.stopTimeS,
              static_cast<unsigned long long>(result.errorsMaskedByTem),
              static_cast<unsigned long long>(result.failSilentEvents),
              result.stopped ? "" : "   (DID NOT STOP)");
}

}  // namespace

int main() {
  std::printf("Brake-by-wire: full stop from 100 km/h, fault in wheel node FL at t=0.3 s\n\n");

  {
    BbwSimConfig config;
    config.nodeType = NodeType::Nlft;
    BbwSystemSim sim{config};
    report("NLFT nodes, fault-free", sim.run());
  }
  {
    BbwSimConfig config;
    config.nodeType = NodeType::Nlft;
    BbwSystemSim sim{config};
    sim.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
    report("NLFT nodes, transient fault", sim.run());
  }
  {
    BbwSimConfig config;
    config.nodeType = NodeType::FailSilent;
    BbwSystemSim sim{config};
    report("fail-silent nodes, fault-free", sim.run());
  }
  {
    BbwSimConfig config;
    config.nodeType = NodeType::FailSilent;
    BbwSystemSim sim{config};
    sim.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
    report("fail-silent nodes, transient fault", sim.run());
  }
  {
    BbwSimConfig config;
    config.nodeType = NodeType::Nlft;
    BbwSystemSim sim{config};
    sim.injectKernelError(kCuA, SimTime::fromUs(100'000));
    report("NLFT, central unit A kernel error", sim.run());
  }
  {
    // Event-triggered path: driver coasts, then slams the emergency brake.
    BbwSimConfig config;
    config.nodeType = NodeType::Nlft;
    config.pedal = 0.0;
    BbwSystemSim sim{config};
    sim.pressEmergencyBrake(SimTime::fromUs(500'000));
    const BbwSimResult result = sim.run();
    report("NLFT, emergency brake at 0.5 s", result);
    std::printf("%-34s  press-to-actuation latency: %.2f ms (dynamic segment)\n", "",
                result.emergencyBrakeLatency.toMilliseconds());
  }

  std::printf("\nThe NLFT node masks the transient locally; the fail-silent node's\n"
              "3-wheel interlude costs stopping distance — the system-level value of\n"
              "node-level fault tolerance.\n");
  return 0;
}
