// The verifier's view of one complete distributed deployment.
//
// A SystemConfig aggregates exactly the structures the simulator consumes —
// the TDMA bus schedule (net::TdmaConfig), the membership protocol knobs
// (net::MembershipConfig), per-node task sets with their TEM inflation
// (rt::temTask), the analyzer-derived per-task data (budgets, signature
// paths, MMU regions), the clock-sync platform assumptions and the fault
// hypothesis — plus the vehicle-level requirements the deployment must meet
// (the brake deadline, the detection deadline, the required redundancy).
//
// It is deliberately a plain mutable value type: the mutation-test suite
// corrupts copies of a known-good configuration field by field and asserts
// the verifier refutes each corruption.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bbw/params.hpp"
#include "hw/mmu.hpp"
#include "net/bus.hpp"
#include "net/membership.hpp"
#include "rtkernel/rta.hpp"
#include "util/time.hpp"

namespace nlft::verify {

using util::Duration;

/// One task as deployed on a node. `singleCopyWcet` is the execution time of
/// ONE copy; the fault-tolerant RTA demand (two copies + comparison, third
/// copy as recovery) is derived via rt::temTask when `temProtected`.
struct TaskSpec {
  std::string name;
  bool critical = true;       ///< deadline miss is a system failure
  bool temProtected = true;   ///< triple-execution recovery slack under TEM
  int priority = 0;           ///< higher value = higher priority
  Duration period{};          ///< zero for sporadic tasks
  Duration minInterArrival{}; ///< sporadic tasks: worst-case arrival rate
  Duration deadline{};        ///< relative deadline; zero = period
  Duration singleCopyWcet{};
  Duration checkOverhead{};   ///< one comparison/vote (TEM tasks)

  /// Analyzer linkage for interpreted guest tasks (empty = host-coded task,
  /// the fields below are then ignored).
  std::string guestProgram;
  std::uint64_t wcetInstructions = 0;    ///< analyzer-derived worst legal path
  std::uint64_t budgetInstructions = 0;  ///< configured execution-time budget
  std::uint64_t legalPaths = 0;          ///< enumerated signature paths
  bool analysisClean = true;             ///< analyzer findings empty
  double usPerInstruction = 0.0;         ///< interpreter cost scale (0 = skip
                                         ///< the derived-WCET cross-check)
  std::vector<hw::MmuRegion> mmuRegions;

  /// Effective period/deadline with the sporadic/default fallbacks applied.
  [[nodiscard]] Duration effectivePeriod() const;
  [[nodiscard]] Duration effectiveDeadline() const;

  /// The RTA task this spec induces (TEM inflation applied when protected).
  [[nodiscard]] rt::RtaTask toRtaTask() const;
};

enum class NodeRole : std::uint8_t { CentralUnit, WheelNode };

struct NodeSpec {
  net::NodeId id = 0;
  std::string name;
  NodeRole role = NodeRole::WheelNode;
  std::vector<TaskSpec> tasks;
  /// Hardware watchdog the kernel kicks on every job release (a deployment
  /// assumption the simulator does not model); zero = no watchdog.
  Duration watchdogTimeout{};
  /// Largest static-slot payload this node transmits (words), heartbeat
  /// word included — sizes the frame-fits-slot check.
  std::uint32_t maxFrameWords = 0;
  /// Index into SystemConfig::replicaGroups this node arbitrates between
  /// (duplex voter wiring); negative = not a consumer.
  int votesOnGroup = -1;
};

/// Platform clock-synchronisation assumptions (Welch-Lynch fault-tolerant
/// averaging; the simulator gives every node the same global time and does
/// not model it). The TDMA slot windows only exist if all clocks agree to
/// within precisionBound().
struct ClockSyncAssumptions {
  double maxDriftPpm = 100.0;    ///< worst oscillator rate deviation
  Duration resyncInterval{};     ///< R: time between resynchronisations
  double residualSkewUs = 1.0;   ///< convergence residual after a round
  int faultyTolerated = 1;       ///< k of the fault-tolerant average

  /// Classic bound: worst pairwise skew ~ 2 * rho * R + residual.
  [[nodiscard]] double precisionBoundUs() const;
};

/// Bus timing model: the simulator delivers one frame per slot regardless of
/// size; the verifier checks the claim that the frame actually FITS.
struct BusTiming {
  double bitsPerMicrosecond = 10.0;    ///< 10 Mbit/s (FlexRay class)
  std::uint32_t frameOverheadBits = 64;///< header + CRC-16 + trailer

  [[nodiscard]] Duration frameTransmission(std::uint32_t payloadWords) const;
};

struct SystemConfig {
  std::string name;
  net::TdmaConfig bus;
  BusTiming busTiming;
  ClockSyncAssumptions clockSync;
  net::MembershipConfig membership;
  std::vector<NodeSpec> nodes;
  /// Active-replication groups (e.g. the duplex central unit {1, 2}); all
  /// members must run identical task sets (replica determinism).
  std::vector<std::vector<net::NodeId>> replicaGroups;

  /// Fault hypothesis for the fault-tolerant RTA: minimum inter-arrival of
  /// transient faults (T_F of Burns/Davis/Punnekkat). Zero = fault-free.
  Duration faultMinInterArrival{};

  bbw::ReliabilityParameters reliability;

  /// Vehicle-level requirements.
  Duration vehicleBrakeDeadline{};   ///< pedal change -> actuator applied
  Duration detectionDeadline{};      ///< node failure -> peers act on it
  Duration restartTime{};            ///< node reboot + diagnosis (mu_R)
  std::uint32_t requiredWheelNodes = 4;  ///< FunctionalityMode::Full
  std::uint32_t degradedWheelNodes = 3;  ///< FunctionalityMode::Degraded

  /// Names of the end-to-end chain tasks (producer on the CUs, consumer on
  /// the wheel nodes).
  std::string producerTask;
  std::string consumerTask;

  [[nodiscard]] Duration cycleLength() const;
  [[nodiscard]] const NodeSpec* findNode(net::NodeId id) const;
  /// Slots in bus.staticSchedule owned by `id`.
  [[nodiscard]] std::size_t slotsOwnedBy(net::NodeId id) const;
  /// Membership expulsion latency: (missTolerance + 1) heartbeat cycles.
  [[nodiscard]] Duration expulsionLatency() const;
  /// Reintegration latency: reintegrationCycles heartbeat cycles.
  [[nodiscard]] Duration reintegrationLatency() const;
};

}  // namespace nlft::verify
