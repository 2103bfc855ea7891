// Closed-loop distributed brake-by-wire simulation (Fig. 4 of the paper).
//
// Six computer nodes on one FlexRay-style bus:
//   node 1, 2  — duplex central unit (active replication): pedal ->
//                per-wheel torque requests, broadcast each cycle;
//   node 3..6  — simplex wheel nodes: slip control, local brake actuator.
//
// Every node is a tem::NlftNode: a CPU and real-time kernel whose critical
// control tasks execute under TEM (NLFT nodes) or as single copies
// (fail-silent baseline). An NLFT node also goes silent after three
// erroneous jobs of one task in a row (permanent-fault suspicion). Faults
// can be injected into any node mid-stop and the effect shows up directly in
// the stopping distance — the system-level consequence of node-level fault
// tolerance.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bbw/params.hpp"
#include "bbw/vehicle.hpp"
#include "net/membership.hpp"
#include "rtkernel/kernel.hpp"
#include "sim/simulator.hpp"

namespace nlft::obs {
class Registry;
class TraceRecorder;
}  // namespace nlft::obs

namespace nlft::bbw {

using util::Duration;
using util::SimTime;

/// Format version of BbwSystemSim::saveState() blobs. Bump on any layout
/// change; restoreState() refuses blobs of any other version.
inline constexpr std::uint16_t kSystemStateVersion = 2;

/// Node ids on the bus.
inline constexpr net::NodeId kCuA = 1;
inline constexpr net::NodeId kCuB = 2;
inline constexpr net::NodeId kWheelNodeBase = 3;  // +0..3 = FL, FR, RL, RR

/// The fault kinds a stop can be injected with. The order is fixed: the
/// fuzzer's corpus signatures and mutator draws index it.
enum class InjectionKind : std::uint8_t {
  /// Corrupts one copy of the node's next control job: NLFT masks it by
  /// comparison and vote; a fail-silent node delivers the wrong value.
  ComputationFault,
  /// An EDM-detected error in the node's next control-task copy: NLFT
  /// replaces the copy; a fail-silent node goes silent.
  DetectedError,
  /// An error in the node's kernel: the node goes silent and restarts after
  /// restartTime (both node types, Section 2.2 strategy 3).
  KernelError,
  /// Suppresses the node's next delivered control result, the node-level
  /// OMISSION failure (P_OM): no command that period; receivers bridge with
  /// the previous value (Section 2.2 "the system is able to use a previous
  /// value").
  OmissionFailure,
  /// The coverage gap: the node's next control job computes the same wrong
  /// result in EVERY copy, so neither comparison nor vote detects it
  /// (counted in BbwSimResult::undetectedValueDeliveries).
  ValueFailure,
  /// Flips bits of the node's next bus frame in transit: the CRC check
  /// drops it at every receiver, so one command/heartbeat is lost.
  BusCorruption,
};
inline constexpr std::size_t kInjectionKindCount = 6;

/// Name of a kind as fuzz case files spell it ("omission-failure", ...).
[[nodiscard]] const char* describe(InjectionKind kind);
/// Inverse of describe(); throws std::invalid_argument for unknown names.
[[nodiscard]] InjectionKind parseInjectionKind(const std::string& name);

/// One fault of a stop's schedule: what, on which node, when.
struct Injection {
  InjectionKind kind = InjectionKind::ComputationFault;
  net::NodeId node = kCuA;  ///< 1..6
  SimTime at;
  /// BusCorruption only: the frame bits to flip (payload first, then CRC;
  /// indices wrap, see net::TdmaBus). Empty flips bit 0.
  std::vector<std::uint32_t> flipBits;

  friend bool operator==(const Injection&, const Injection&) = default;
};

/// The fixed deployment constants shared by the simulator AND the static
/// verifier (src/verify): TDMA bus layout and per-task timing of every node.
/// Single source of truth so the configuration the verifier certifies is
/// exactly the one the simulator executes.
struct BbwDeployment {
  net::TdmaConfig bus;
  Duration controlPeriod{};   ///< periodic control tasks (CU + wheels)
  int controlPriority = 0;
  Duration cuControlWcet{};   ///< single-copy time of brake-distribution
  Duration wheelControlWcet{};///< single-copy time of wheel-control
  int emergencyPriority = 0;  ///< sporadic emergency-brake task (CUs)
  Duration emergencyWcet{};
  Duration emergencyDeadline{};
  int diagnosticPriority = 0; ///< non-critical diagnostic task (all nodes)
  Duration diagnosticPeriod{};
  Duration diagnosticWcet{};
};

[[nodiscard]] const BbwDeployment& bbwDeployment();

struct BbwSimConfig {
  NodeType nodeType = NodeType::Nlft;
  double initialSpeedMps = 27.8;   ///< ~100 km/h
  double pedal = 1.0;              ///< position in [0,1] (clamped); 1 = panic braking
  Duration horizon = Duration::seconds(15);
  Duration restartTime = Duration::seconds(3);  ///< node reboot + diagnosis (mu_R)

  friend bool operator==(const BbwSimConfig&, const BbwSimConfig&) = default;
};

struct BbwSimResult {
  bool stopped = false;
  double stoppingDistanceM = 0.0;
  double stopTimeS = 0.0;
  std::uint64_t commandFramesDelivered = 0;   ///< accepted by the duplex arbiters
  std::uint64_t duplicateCommandsDropped = 0; ///< partner copies discarded
  std::uint64_t busFramesDropped = 0;
  std::set<net::NodeId> nodesDownAtEnd;
  /// Per wheel node: jobs completed / omissions (kernel stats).
  std::array<std::uint64_t, kWheelCount> wheelCompletions{};
  std::array<std::uint64_t, kWheelCount> wheelOmissions{};
  std::uint64_t cuCompletions = 0;
  std::uint64_t errorsMaskedByTem = 0;   ///< summed over all NLFT nodes
  std::uint64_t failSilentEvents = 0;
  /// Control results suppressed by OmissionFailure injections (node-level
  /// omission failures: no command that period).
  std::uint64_t commandsOmitted = 0;
  /// Results corrupted identically in every copy by ValueFailure injections
  /// that reached the actuator/bus undetected (the system-level coverage gap).
  std::uint64_t undetectedValueDeliveries = 0;
  /// Emergency-brake press -> first wheel actuation latency (zero if the
  /// emergency path was never exercised).
  Duration emergencyBrakeLatency{};
};

/// Monotone counters of a live system simulation, observable at any instant
/// (run() reports the same quantities, finalized). The snapshot campaign
/// engine (docs/SNAPSHOT.md "system campaigns") compares PER-INTERVAL deltas
/// of these against a precomputed golden timeline: equal deltas over
/// consecutive checkpoints mean the faulted run processed the exact same
/// event stream as the fault-free run over that interval.
struct BbwSystemCounters {
  std::uint64_t eventsProcessed = 0;
  std::uint64_t busCycles = 0;
  std::uint64_t busFramesDelivered = 0;
  std::uint64_t busFramesDropped = 0;
  std::uint64_t busCrcRejected = 0;
  std::uint64_t busCorruptionsInjected = 0;
  std::uint64_t commandFramesDelivered = 0;
  std::uint64_t duplicateCommandsDropped = 0;
  std::uint64_t commandsOmitted = 0;
  std::uint64_t undetectedValueDeliveries = 0;
  std::uint64_t failSilentEvents = 0;
  std::uint64_t kernelErrors = 0;
  std::uint64_t cpuDispatches = 0;
  std::uint64_t cpuPreemptions = 0;
  std::uint64_t controlReleases = 0;
  std::uint64_t controlDeadlineMisses = 0;
  std::uint64_t controlBudgetOverruns = 0;
  std::uint64_t cuCompletions = 0;
  std::uint64_t errorsMaskedByTem = 0;
  std::array<std::uint64_t, kWheelCount> wheelCompletions{};
  std::array<std::uint64_t, kWheelCount> wheelOmissions{};

  friend bool operator==(const BbwSystemCounters&, const BbwSystemCounters&) = default;

  /// Field-wise difference against an EARLIER snapshot of the same
  /// simulation (all counters are monotone, so this never underflows).
  [[nodiscard]] BbwSystemCounters minus(const BbwSystemCounters& earlier) const;
};

class BbwSystemSim {
 public:
  explicit BbwSystemSim(BbwSimConfig config = {});
  ~BbwSystemSim();
  BbwSystemSim(const BbwSystemSim&) = delete;
  BbwSystemSim& operator=(const BbwSystemSim&) = delete;

  /// Schedules one injection at `injection.at` (see InjectionKind for what
  /// each kind does). Throws std::invalid_argument, before anything is
  /// logged or scheduled, for a node outside 1..6.
  void inject(const Injection& injection);

  /// One-line forms of inject(), one per kind.
  void injectComputationFault(net::NodeId node, SimTime at) {
    inject({InjectionKind::ComputationFault, node, at, {}});
  }
  void injectDetectedError(net::NodeId node, SimTime at) {
    inject({InjectionKind::DetectedError, node, at, {}});
  }
  void injectKernelError(net::NodeId node, SimTime at) {
    inject({InjectionKind::KernelError, node, at, {}});
  }
  void injectOmissionFailure(net::NodeId node, SimTime at) {
    inject({InjectionKind::OmissionFailure, node, at, {}});
  }
  void injectValueFailure(net::NodeId node, SimTime at) {
    inject({InjectionKind::ValueFailure, node, at, {}});
  }
  void injectBusCorruption(net::NodeId node, SimTime at, std::vector<std::uint32_t> flipBits) {
    inject({InjectionKind::BusCorruption, node, at, std::move(flipBits)});
  }

  /// Presses the emergency-brake input at `at`: both CUs release a SPORADIC
  /// task whose full-brake command travels in the event-triggered (dynamic)
  /// segment — the paper's Section 2.1 argument for mixed time/event
  /// triggering ("fast handling of sporadic activities"). Wheel nodes apply
  /// it the moment it arrives, without waiting for the next periodic
  /// command. Returns nothing; the observed latency is in the result.
  void pressEmergencyBrake(SimTime at);

  /// Streams a line-oriented system event trace (fault firings, kernel
  /// errors, node silences/restarts, membership transitions, bus drops,
  /// vehicle stop) into `sink` — the input of the golden-trace harness.
  /// Must be called before run(); one sink per simulation.
  void setTraceSink(std::function<void(const std::string&)> sink);

  /// Attaches a metrics registry (not owned; must outlive the simulation).
  /// During run() the simulation folds its deterministic counters into it:
  /// kernel scheduling (preemptions, releases, budget overruns), TEM copy
  /// executions and vote outcomes, bus frames/CRC rejects/drops, the
  /// system-level failure counters, and the `e2e.latency` histogram with its
  /// `e2e.latency.max_us` gauge (its samples are kept in the simulation and
  /// folded in when run() returns). Call before run().
  void setMetricsRegistry(obs::Registry* registry);

  /// Attaches a span/trace recorder (not owned). Every system event that
  /// goes to the trace sink is mirrored as a Chrome instant event (pid =
  /// node id), and at the end of run() each node's CPU execution segments
  /// are exported as complete spans (one tid per task). Only a simulation
  /// with a recorder keeps those segments. Call once, before run().
  void setTraceRecorder(obs::TraceRecorder* recorder);

  /// The membership service (peer views, liveness) for assertions and
  /// observer taps.
  [[nodiscard]] const net::MembershipService& membership() const;
  [[nodiscard]] net::MembershipService& membership();

  /// The CPU of node 1..6 (busy time, dispatch counts) for assertions.
  /// Throws std::invalid_argument for any other node.
  [[nodiscard]] const rt::Cpu& cpu(net::NodeId node) const;

  /// Runs until the vehicle stops or the horizon elapses.
  [[nodiscard]] BbwSimResult run();

  // --- Replay checkpoints (snapshot campaign engine, docs/SNAPSHOT.md) ---
  //
  // A system simulation owns live kernels, executors and scheduled closures,
  // so its state is CHECKPOINTED BY REPLAY rather than serialized flat: the
  // blob records the configuration digest, the full injection schedule, the
  // simulated clock and a fingerprint of the deterministic state.
  // restoreState() re-applies the schedule to a freshly constructed,
  // identically configured simulation, advances it to the saved clock and
  // verifies the fingerprint — so a restored simulation is the REAL thing,
  // not a deserialized approximation, and any divergence fails loudly.

  /// Advances the simulation to `until` (or until the vehicle stops /
  /// events run out) WITHOUT finalizing a result. Callable repeatedly with
  /// nondecreasing times; a later run() continues to the horizon and
  /// finalizes as usual.
  void runUntil(SimTime until);

  /// Serializes a replay checkpoint at the current simulated time into a
  /// versioned, sectioned, CRC-32 protected blob (src/snap/blob.hpp).
  [[nodiscard]] std::vector<std::uint8_t> saveState() const;

  /// Restores a saveState() checkpoint into THIS simulation, which must be
  /// freshly constructed with the same BbwSimConfig and never advanced or
  /// injected into. Throws snap::BlobError on a damaged or
  /// version-mismatched blob or an unknown injection kind,
  /// std::invalid_argument for an injection on a node outside 1..6, and
  /// std::runtime_error if the configuration digest differs or the replayed
  /// state misses the checkpoint fingerprint.
  void restoreState(std::span<const std::uint8_t> blob);

  /// 64-bit digest of the deterministic simulation state: simulated clock,
  /// event/bus/kernel counters, vehicle kinematics, per-node liveness and
  /// task statistics. Equal fingerprints at equal simulated times are the
  /// snapshot layer's definition of state equality.
  [[nodiscard]] std::uint64_t stateFingerprint() const;

  /// Snapshot of the monotone counters at the current instant.
  [[nodiscard]] BbwSystemCounters counterSnapshot() const;

  /// 64-bit digest of the EVOLUTION-RELEVANT state only: clock, pending
  /// event count, vehicle kinematics, held commands/limits/sequences,
  /// emergency latching, per-node kernel liveness and armed one-shot faults,
  /// plus the membership, bus and duplex-arbiter state digests. Unlike
  /// stateFingerprint() it EXCLUDES monotone bookkeeping (processed events,
  /// delivery counters, task statistics), so a faulted simulation whose
  /// disturbance has fully healed produces the golden digest again — the
  /// rejoin condition of the snapshot campaign engine. Counter deltas are
  /// compared separately via counterSnapshot().
  [[nodiscard]] std::uint64_t behaviorFingerprint() const;

  /// True when no injected one-shot fault is still armed: every
  /// corrupt/detected-error/omission/value flag has been consumed by a
  /// control job, no value-failure job is in flight, and the bus holds no
  /// armed corruption. Scheduled-but-unfired injection closures
  /// are invisible here; callers gate on the injection time separately.
  [[nodiscard]] bool injectionQuiescent() const;

  [[nodiscard]] sim::Simulator& simulator();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nlft::bbw
