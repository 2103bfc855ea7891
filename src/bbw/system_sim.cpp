#include "bbw/system_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <variant>

#include "bbw/control.hpp"
#include "bbw/cu_task.hpp"
#include "core/replication.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snap/blob.hpp"
#include "util/state_hash.hpp"

namespace nlft::bbw {

BbwSystemCounters BbwSystemCounters::minus(const BbwSystemCounters& earlier) const {
  BbwSystemCounters delta;
  delta.eventsProcessed = eventsProcessed - earlier.eventsProcessed;
  delta.busCycles = busCycles - earlier.busCycles;
  delta.busFramesDelivered = busFramesDelivered - earlier.busFramesDelivered;
  delta.busFramesDropped = busFramesDropped - earlier.busFramesDropped;
  delta.busCrcRejected = busCrcRejected - earlier.busCrcRejected;
  delta.busCorruptionsInjected = busCorruptionsInjected - earlier.busCorruptionsInjected;
  delta.commandFramesDelivered = commandFramesDelivered - earlier.commandFramesDelivered;
  delta.duplicateCommandsDropped = duplicateCommandsDropped - earlier.duplicateCommandsDropped;
  delta.commandsOmitted = commandsOmitted - earlier.commandsOmitted;
  delta.undetectedValueDeliveries = undetectedValueDeliveries - earlier.undetectedValueDeliveries;
  delta.failSilentEvents = failSilentEvents - earlier.failSilentEvents;
  delta.kernelErrors = kernelErrors - earlier.kernelErrors;
  delta.cpuDispatches = cpuDispatches - earlier.cpuDispatches;
  delta.cpuPreemptions = cpuPreemptions - earlier.cpuPreemptions;
  delta.controlReleases = controlReleases - earlier.controlReleases;
  delta.controlDeadlineMisses = controlDeadlineMisses - earlier.controlDeadlineMisses;
  delta.controlBudgetOverruns = controlBudgetOverruns - earlier.controlBudgetOverruns;
  delta.cuCompletions = cuCompletions - earlier.cuCompletions;
  delta.errorsMaskedByTem = errorsMaskedByTem - earlier.errorsMaskedByTem;
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    delta.wheelCompletions[w] = wheelCompletions[w] - earlier.wheelCompletions[w];
    delta.wheelOmissions[w] = wheelOmissions[w] - earlier.wheelOmissions[w];
  }
  return delta;
}

namespace {
constexpr std::uint32_t kMsgCommand = 0xC0DE0001;
constexpr std::uint32_t kMsgWheelStatus = 0xC0DE0002;
constexpr std::uint32_t kMsgEmergency = 0xC0DE0003;

/// One replay-log entry: an injection, or the instant of an emergency press.
using LogEntry = std::variant<Injection, SimTime>;
/// Tag of an emergency-brake press in the blob's `inject` section; every
/// smaller tag is an InjectionKind.
constexpr std::uint16_t kPressTag = kInjectionKindCount;

/// Marks a command sequence whose pedal sample time is not known.
constexpr SimTime kNotSampled = SimTime::fromUs(-1);
/// Integration step of the vehicle plant.
constexpr Duration kPlantStep = Duration::milliseconds(1);

using StateHash = util::StateHash;
}  // namespace

const char* describe(InjectionKind kind) {
  switch (kind) {
    case InjectionKind::ComputationFault: return "computation-fault";
    case InjectionKind::DetectedError: return "detected-error";
    case InjectionKind::KernelError: return "kernel-error";
    case InjectionKind::OmissionFailure: return "omission-failure";
    case InjectionKind::ValueFailure: return "value-failure";
    case InjectionKind::BusCorruption: return "bus-corruption";
  }
  return "?";
}

InjectionKind parseInjectionKind(const std::string& name) {
  for (std::size_t k = 0; k < kInjectionKindCount; ++k) {
    const auto kind = static_cast<InjectionKind>(k);
    if (name == describe(kind)) return kind;
  }
  throw std::invalid_argument("parseInjectionKind: unknown injection kind '" + name + "'");
}

const BbwDeployment& bbwDeployment() {
  static const BbwDeployment deployment = [] {
    BbwDeployment d;
    d.bus.slotLength = Duration::microseconds(500);
    d.bus.staticSchedule = {kCuA, kCuB, kWheelNodeBase + 0, kWheelNodeBase + 1,
                            kWheelNodeBase + 2, kWheelNodeBase + 3};
    d.bus.dynamicMinislots = 4;  // event-triggered segment (diagnostics)
    d.bus.minislotLength = Duration::microseconds(250);
    d.controlPeriod = Duration::milliseconds(5);
    d.controlPriority = 10;
    d.cuControlWcet = Duration::microseconds(400);
    d.wheelControlWcet = Duration::microseconds(300);
    d.emergencyPriority = 12;  // above the periodic control task
    d.emergencyWcet = Duration::microseconds(150);
    d.emergencyDeadline = Duration::milliseconds(5);
    d.diagnosticPriority = 1;
    d.diagnosticPeriod = Duration::milliseconds(50);
    d.diagnosticWcet = Duration::microseconds(100);
    return d;
  }();
  return deployment;
}

struct BbwSystemSim::Impl {
  explicit Impl(BbwSimConfig cfg)
      : config{cfg}, bus{simulator, bbwDeployment().bus}, membership{simulator, bus} {}

  struct Node {
    net::NodeId id = 0;
    std::unique_ptr<rt::Cpu> cpu;
    std::unique_ptr<rt::RtKernel> kernel;
    std::unique_ptr<tem::TemExecutor> temExecutor;
    std::unique_ptr<tem::FailSilentExecutor> fsExecutor;
    rt::TaskId controlTask{};
    rt::TaskId emergencyTask{};  // CUs only
    // One-shot fault-injection flags, consumed by the next control job.
    bool corruptSecondCopy = false;
    bool detectedErrorNextCopy = false;
    bool omitNextResult = false;
    bool valueFailureArmed = false;
    std::uint64_t valueFailureJob = ~0ULL;  // job whose copies all compute wrong
    // Input snapshot taken once per job and reused by every copy, preserving
    // replica determinism (read input once per job, Fig. 2 task model).
    std::array<std::uint32_t, 4> jobInput{};
    std::uint64_t snapshotJob = ~0ULL;
    // Wheel nodes: command sequence captured with the input snapshot, so the
    // e2e.latency sample spans pedal-read (CU) -> torque-apply (this job).
    std::uint64_t snapshotSeq = ~0ULL;
  };

  BbwSimConfig config;
  sim::Simulator simulator;
  net::TdmaBus bus;
  net::MembershipService membership;
  Vehicle vehicle;
  std::vector<Node> nodes;  // index i -> node id i+1

  std::array<std::uint32_t, kWheelCount> lastCommandQ8{};
  // Per-wheel duplex arbitration of the two CUs' command streams: the first
  // valid copy of each command sequence wins, the partner's is dropped.
  std::array<tem::DuplexArbiter, kWheelCount> commandArbiter{};
  std::array<std::int32_t, kWheelCount> wheelLimitQ8{-1, -1, -1, -1};
  // End-to-end latency bookkeeping (simulated clock): when each command
  // sequence's pedal input was sampled on a CU (indexed by sequence,
  // kNotSampled where unknown), which sequence each wheel last received, and
  // which it already measured (one sample per wheel and sequence, taken at
  // the first actuator apply).
  std::vector<SimTime> commandSampleTime;
  std::array<std::uint64_t, kWheelCount> lastCommandSeq{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  std::array<std::uint64_t, kWheelCount> lastMeasuredSeq{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  std::uint64_t commandFramesDelivered = 0;
  std::uint64_t failSilentEvents = 0;
  std::uint64_t commandsOmitted = 0;
  std::uint64_t undetectedValueDeliveries = 0;
  double stopTimeS = 0.0;
  bool vehicleStopped = false;
  std::optional<SimTime> emergencyPressedAt;
  std::optional<SimTime> emergencyAppliedAt;
  bool emergencyLatched = false;  // the pedal sensor also shows full braking
  // Reused buffer of the CU command payload handed to the membership service.
  std::vector<std::uint32_t> commandPayload;
  std::function<void(const std::string&)> traceSink;
  obs::Registry* metrics = nullptr;
  // Metric names of observeEndToEnd(), built once instead of per sample.
  const std::string e2eLatencyName{"e2e.latency"};
  const std::string e2eLatencyMaxName{"e2e.latency.max_us"};
  obs::TraceRecorder* recorder = nullptr;
  bool tapsWired = false;

  /// Every inject() and pressEmergencyBrake() call, in call order: the
  /// schedule restoreState() re-applies to a fresh simulation.
  std::vector<LogEntry> replayLog;
  bool advanced = false;  ///< any simulated time has elapsed (run/runUntil)

  /// Emits one trace line, prefixed with the simulated time in microseconds.
  void trace(const std::string& message) {
    if (!traceSink) return;
    traceSink("t=" + std::to_string(simulator.now().us()) + " " + message);
  }

  /// Mirrors one system event into the Chrome-trace recorder. Every trace()
  /// call site has exactly one record() companion so the differential test
  /// can reconcile recorder event counts against the golden-trace lines.
  void record(net::NodeId pid, const std::string& name, const std::string& category,
              const std::string& detail = {}) {
    if (!recorder) return;
    recorder->instant(pid, 0, name, category, simulator.now(), detail);
  }

  Node& node(net::NodeId id) { return nodes[id - 1]; }
  [[nodiscard]] static bool isWheel(net::NodeId id) { return id >= kWheelNodeBase; }
  [[nodiscard]] static std::size_t wheelIndex(net::NodeId id) { return id - kWheelNodeBase; }

  void build() {
    for (net::NodeId id = kCuA; id <= kWheelNodeBase + 3; ++id) {
      membership.addNode(id);
    }
    membership.setAppReceive(
        [this](net::NodeId receiver, net::NodeId sender, std::span<const std::uint32_t> data) {
          onAppData(receiver, sender, data);
        });

    for (net::NodeId id = kCuA; id <= kWheelNodeBase + 3; ++id) {
      nodes.emplace_back();
      Node& n = nodes.back();
      n.id = id;
      n.cpu = std::make_unique<rt::Cpu>(simulator);
      n.kernel = std::make_unique<rt::RtKernel>(simulator, *n.cpu);
      n.kernel->setFailSilentHook([this, id] { onNodeSilent(id, /*scheduleRestart=*/true); });
      n.kernel->setResultSink([this, id](const rt::JobResult& result) { onResult(id, result); });

      const BbwDeployment& deployment = bbwDeployment();
      rt::TaskConfig control;
      control.name = isWheel(id) ? "wheel-control" : "brake-distribution";
      control.priority = deployment.controlPriority;
      control.period = deployment.controlPeriod;
      control.wcet = isWheel(id) ? deployment.wheelControlWcet : deployment.cuControlWcet;

      auto behavior = [this, id](const tem::CopyContext& context, tem::CopyPlan& plan) {
        controlCopy(id, context, plan);
      };
      if (config.nodeType == NodeType::Nlft) {
        n.temExecutor = std::make_unique<tem::TemExecutor>(*n.kernel);
        n.controlTask = n.temExecutor->addCriticalTask(control, behavior);
      } else {
        n.fsExecutor = std::make_unique<tem::FailSilentExecutor>(*n.kernel);
        n.controlTask = n.fsExecutor->addTask(control, behavior);
      }

      if (!isWheel(id)) {
        // Sporadic emergency-brake task (event-triggered path, Section 2.1):
        // released on the pedal-press event, its command bypasses the
        // periodic schedule via the dynamic segment at top priority.
        rt::TaskConfig emergency;
        emergency.name = "emergency-brake";
        emergency.priority = deployment.emergencyPriority;
        emergency.relativeDeadline = deployment.emergencyDeadline;
        emergency.wcet = deployment.emergencyWcet;
        auto emergencyBehavior = [](const tem::CopyContext&, tem::CopyPlan& plan) {
          plan.executionTime = bbwDeployment().emergencyWcet;
          plan.result.push_back(kMsgEmergency);
        };
        if (n.temExecutor) {
          n.emergencyTask = n.temExecutor->addCriticalTask(emergency, emergencyBehavior);
        } else {
          n.emergencyTask = n.fsExecutor->addTask(emergency, emergencyBehavior);
        }
      } else {
        // Wheels listen for emergency frames directly on the bus (the
        // membership service ignores non-heartbeat traffic).
        bus.attach(id, [this, id](const net::Frame& frame) {
          if (frame.payload.empty() || frame.payload[0] != kMsgEmergency) return;
          if (!membership.alive(id)) return;
          const std::size_t w = wheelIndex(id);
          const auto fullTorque = distributeFixedPoint(256);
          lastCommandQ8[w] = static_cast<std::uint32_t>(fullTorque[w]);
          vehicle.setBrakeTorque(w, static_cast<double>(fullTorque[w]) / 256.0);
          if (!emergencyAppliedAt) emergencyAppliedAt = simulator.now();
        });
      }

      // A non-critical diagnostic task rides the dynamic segment.
      rt::TaskConfig diagnostic;
      diagnostic.name = "diagnostic";
      diagnostic.priority = deployment.diagnosticPriority;
      diagnostic.period = deployment.diagnosticPeriod;
      diagnostic.wcet = deployment.diagnosticWcet;
      tem::addNonCriticalTask(
          *n.kernel, diagnostic, [this, id](const tem::CopyContext&, tem::CopyPlan& plan) {
            plan.executionTime = bbwDeployment().diagnosticWcet;
            plan.result.push_back(kMsgWheelStatus);
            bus.sendDynamic(id, id, std::array{kMsgWheelStatus, static_cast<std::uint32_t>(id)});
          });

      n.kernel->start();
    }

    membership.start();
    schedulePlantStep();
  }

  void controlCopy(net::NodeId id, const tem::CopyContext& context, tem::CopyPlan& plan) {
    Node& n = node(id);
    plan.executionTime =
        isWheel(id) ? bbwDeployment().wheelControlWcet : bbwDeployment().cuControlWcet;

    if (context.jobIndex != n.snapshotJob) {
      // Read-input phase: snapshot the sensors once per job (the input read
      // happens at the start of the first copy, before any fault strikes).
      n.snapshotJob = context.jobIndex;
      if (n.valueFailureArmed) {
        n.valueFailureArmed = false;
        n.valueFailureJob = context.jobIndex;
      }
      if (isWheel(id)) {
        const std::size_t w = wheelIndex(id);
        n.jobInput[0] = lastCommandQ8[w];
        n.jobInput[1] = static_cast<std::uint32_t>(std::lround(vehicle.slip(w) * 256.0));
        n.jobInput[2] = static_cast<std::uint32_t>(wheelLimitQ8[w]);
        n.snapshotSeq = lastCommandSeq[w];
      } else {
        // The pedal is read HERE; the job's sequence number equals its job
        // index, so the e2e.latency clock for that sequence starts now (the
        // earlier of the two CU replicas wins, which only widens the sample).
        if (context.jobIndex >= commandSampleTime.size()) {
          commandSampleTime.resize(context.jobIndex + 1, kNotSampled);
        }
        if (commandSampleTime[context.jobIndex] == kNotSampled) {
          commandSampleTime[context.jobIndex] = simulator.now();
        }
        // An emergency press latches the pedal input: the event-triggered
        // message delivers the FIRST actuation, the periodic path sustains it.
        const double pedal = emergencyLatched ? 1.0 : std::clamp(config.pedal, 0.0, 1.0);
        n.jobInput[0] = static_cast<std::uint32_t>(std::lround(pedal * 256.0));
      }
    }

    if (n.detectedErrorNextCopy && context.copyIndex == 1) {
      n.detectedErrorNextCopy = false;
      plan.end = tem::CopyPlan::End::DetectedError;
      plan.executionTime = Duration::microseconds(120);
      plan.error = {rt::ErrorEvent::Source::HardwareException, 0};
      return;
    }

    if (isWheel(id)) {
      std::int32_t newLimit = 0;
      const std::int32_t torque = wheelControlFixedPoint(
          static_cast<std::int32_t>(n.jobInput[0]), static_cast<std::int32_t>(n.jobInput[1]),
          static_cast<std::int32_t>(n.jobInput[2]), &newLimit);
      plan.result.push_back(static_cast<std::uint32_t>(torque));
      plan.result.push_back(static_cast<std::uint32_t>(newLimit));
    } else {
      for (const std::int32_t torque :
           distributeFixedPoint(static_cast<std::int32_t>(n.jobInput[0]))) {
        plan.result.push_back(static_cast<std::uint32_t>(torque));
      }
    }

    if (n.corruptSecondCopy && context.copyIndex == 2) {
      n.corruptSecondCopy = false;
      plan.result[0] ^= 1u << 7;  // silent data corruption
    }
    if (context.jobIndex == n.valueFailureJob) {
      // Coverage-gap fault: every copy computes the same wrong torque, so
      // comparison and vote pass it through (bit 16 = 256 Nm in q8.8).
      plan.result[0] ^= 1u << 16;
    }
  }

  void onResult(net::NodeId id, const rt::JobResult& result) {
    if (!isWheel(id) && node(id).emergencyTask == result.task &&
        !result.data.empty() && result.data[0] == kMsgEmergency) {
      bus.sendDynamic(id, 0 /* wins every minislot arbitration */, std::array{kMsgEmergency});
      return;
    }
    if (node(id).controlTask == result.task) {
      Node& n = node(id);
      if (n.omitNextResult) {
        // Injected omission failure: the write-output phase is suppressed;
        // the command for this period is simply missing (P_OM).
        n.omitNextResult = false;
        ++commandsOmitted;
        trace("omission node=" + std::to_string(id) + " job=" + std::to_string(result.jobIndex));
        record(id, "omission", "failure", "job=" + std::to_string(result.jobIndex));
        return;
      }
      if (result.jobIndex == n.valueFailureJob) {
        n.valueFailureJob = ~0ULL;
        ++undetectedValueDeliveries;
        trace("undetected-value node=" + std::to_string(id) +
              " job=" + std::to_string(result.jobIndex));
        record(id, "undetected-value", "failure", "job=" + std::to_string(result.jobIndex));
      }
      if (isWheel(id)) {
        const std::size_t w = wheelIndex(id);
        wheelLimitQ8[w] = static_cast<std::int32_t>(result.data[1]);
        vehicle.setBrakeTorque(w, static_cast<double>(result.data[0]) / 256.0);
        observeEndToEnd(w, n.snapshotSeq);
      } else {
        // Replica determinism: both CUs tag the command of job k with
        // sequence number k, so receivers can arbitrate the duplex pair.
        commandPayload.assign({kMsgCommand, static_cast<std::uint32_t>(result.jobIndex)});
        commandPayload.insert(commandPayload.end(), result.data.begin(), result.data.end());
        membership.queueAppData(id, commandPayload);
      }
    }
  }

  void onAppData(net::NodeId receiver, net::NodeId sender, std::span<const std::uint32_t> data) {
    if (data.empty() || data[0] != kMsgCommand) return;
    if (!isWheel(receiver) || sender > kCuB) return;
    if (data.size() < 2 + kWheelCount) return;
    const std::size_t w = wheelIndex(receiver);
    const std::uint64_t sequence = data[1];
    if (!commandArbiter[w].offer(sequence)) return;  // duplicate from the partner CU
    lastCommandQ8[w] = data[2 + w];
    lastCommandSeq[w] = sequence;
    ++commandFramesDelivered;
  }

  /// Records one pedal-sample -> actuator-apply latency into the metrics
  /// registry: first apply of each command sequence per wheel, on the
  /// simulated clock (deterministic, hence golden). No-op without a registry.
  void observeEndToEnd(std::size_t wheel, std::uint64_t sequence) {
    if (!metrics || sequence == ~0ULL) return;
    if (lastMeasuredSeq[wheel] == sequence) return;  // later applies hold the value
    if (sequence >= commandSampleTime.size() || commandSampleTime[sequence] == kNotSampled) return;
    lastMeasuredSeq[wheel] = sequence;
    const auto latencyUs =
        static_cast<double>((simulator.now() - commandSampleTime[sequence]).us());
    metrics->observe(e2eLatencyName, obs::HistogramSpec{0.0, 50000.0, 50}, latencyUs);
    metrics->gaugeMax(e2eLatencyMaxName, latencyUs);
  }

  void onNodeSilent(net::NodeId id, bool scheduleRestart) {
    ++failSilentEvents;
    membership.setAlive(id, false);
    trace("node-silent node=" + std::to_string(id));
    record(id, "node-silent", "node");
    if (isWheel(id)) {
      // The actuator watchdog releases the brake of a dead wheel node.
      vehicle.setBrakeTorque(wheelIndex(id), 0.0);
      // A restarting node re-applies the command it held when it died
      // ("use a previous value"); that apply measures the outage, not a
      // pedal->actuator chain traversal, so it must not enter e2e.latency.
      lastCommandSeq[wheelIndex(id)] = ~0ULL;
    }
    if (scheduleRestart) {
      simulator.scheduleAfter(config.restartTime, [this, id] {
        node(id).kernel->restart();
        membership.setAlive(id, true);
        trace("node-restarted node=" + std::to_string(id));
        record(id, "node-restarted", "node");
      });
    }
  }

  /// Routes kernel, membership and bus events into the trace sink AND the
  /// Chrome-trace recorder. Wired once, when the first observer (sink,
  /// recorder or metrics registry) is installed — after build(), so `nodes`
  /// is stable.
  void wireTaps() {
    if (tapsWired) return;
    tapsWired = true;
    for (Node& n : nodes) {
      const net::NodeId id = n.id;
      const rt::TaskId controlTask = n.controlTask;
      n.kernel->setEventTap([this, id, controlTask](const rt::KernelEvent& event) {
        switch (event.kind) {
          case rt::KernelEvent::Kind::TaskError:
            trace("task-error node=" + std::to_string(id) +
                  " task=" + std::to_string(event.task.value) +
                  " job=" + std::to_string(event.jobIndex));
            record(id, "task-error", "kernel", "job=" + std::to_string(event.jobIndex));
            break;
          case rt::KernelEvent::Kind::KernelError:
            trace("kernel-error node=" + std::to_string(id));
            record(id, "kernel-error", "kernel");
            break;
          case rt::KernelEvent::Kind::JobOmitted:
            if (event.task.value == controlTask.value) {
              trace("job-omitted node=" + std::to_string(id) +
                    " job=" + std::to_string(event.jobIndex));
              record(id, "job-omitted", "kernel", "job=" + std::to_string(event.jobIndex));
            }
            break;
          default:
            break;  // completions are too frequent to trace
        }
      });
    }
    membership.setMembershipTap([this](net::NodeId observer, net::NodeId peer, bool member) {
      trace("membership observer=" + std::to_string(observer) + " peer=" + std::to_string(peer) +
            " member=" + (member ? std::string{"1"} : std::string{"0"}));
      record(observer, "membership-change", "membership",
             "peer=" + std::to_string(peer) + " member=" + (member ? "1" : "0"));
    });
    bus.setDropTap([this](const net::Frame& frame, const char* reason) {
      trace("bus-drop sender=" + std::to_string(frame.sender) + " reason=" + reason);
      record(frame.sender, "bus-drop", "bus", reason);
    });
  }

  /// Folds the run's deterministic counters into the attached registry.
  void snapshotMetrics() {
    if (!metrics) return;
    obs::Registry& m = *metrics;
    m.add("bus.cycles", bus.cyclesCompleted());
    m.add("bus.frames_delivered", bus.framesDelivered());
    m.add("bus.frames_dropped", bus.framesDropped());
    m.add("bus.crc_rejected", bus.crcRejected());
    m.add("bus.corruptions_injected", bus.corruptionsInjected());
    m.add("sim.events_processed", simulator.processedEvents());
    m.add("sys.command_frames_delivered", commandFramesDelivered);
    m.add("sys.commands_omitted", commandsOmitted);
    m.add("sys.undetected_value_deliveries", undetectedValueDeliveries);
    m.add("sys.fail_silent_events", failSilentEvents);
    for (const Node& n : nodes) {
      m.add("kernel.preemptions", n.cpu->preemptions());
      m.add("kernel.dispatches", n.cpu->dispatches());
      m.add("kernel.errors", n.kernel->kernelErrors());
      const rt::TaskStats& stats = n.kernel->stats(n.controlTask);
      m.add("kernel.control.releases", stats.releases);
      m.add("kernel.control.completions", stats.completions);
      m.add("kernel.control.omissions", stats.omissions);
      m.add("kernel.control.deadline_misses", stats.deadlineMisses);
      m.add("kernel.control.budget_overruns", stats.budgetOverruns);
      if (!n.temExecutor) continue;
      tem::TemStats tem = n.temExecutor->stats(n.controlTask);
      if (!isWheel(n.id)) {
        const tem::TemStats& emergency = n.temExecutor->stats(n.emergencyTask);
        tem.jobs += emergency.jobs;
        tem.firstCopies += emergency.firstCopies;
        tem.secondCopies += emergency.secondCopies;
        tem.thirdCopies += emergency.thirdCopies;
        tem.deliveredCleanly += emergency.deliveredCleanly;
        tem.maskedByVote += emergency.maskedByVote;
        tem.maskedByReplacement += emergency.maskedByReplacement;
        tem.comparisonMismatches += emergency.comparisonMismatches;
        tem.edmDetectedErrors += emergency.edmDetectedErrors;
        tem.omissionsNoTime += emergency.omissionsNoTime;
        tem.omissionsVoteFailed += emergency.omissionsVoteFailed;
        tem.omissionsAborted += emergency.omissionsAborted;
      }
      m.add("tem.jobs", tem.jobs);
      m.add("tem.copies.first", tem.firstCopies);
      m.add("tem.copies.second", tem.secondCopies);
      m.add("tem.copies.third", tem.thirdCopies);
      m.add("tem.vote.delivered_cleanly", tem.deliveredCleanly);
      m.add("tem.vote.masked_by_vote", tem.maskedByVote);
      m.add("tem.vote.masked_by_replacement", tem.maskedByReplacement);
      m.add("tem.vote.comparison_mismatches", tem.comparisonMismatches);
      m.add("tem.edm_detected_errors", tem.edmDetectedErrors);
      m.add("tem.omissions.no_time", tem.omissionsNoTime);
      m.add("tem.omissions.vote_failed", tem.omissionsVoteFailed);
      m.add("tem.omissions.aborted", tem.omissionsAborted);
    }
  }

  /// Exports each node's CPU execution segments as Chrome complete spans:
  /// pid = node id, one tid per distinct task label (tid 0 is reserved for
  /// node-scope instants).
  void emitSpans() {
    if (!recorder) return;
    recorder->setProcessName(0, "vehicle");
    for (const Node& n : nodes) {
      recorder->setProcessName(n.id, (isWheel(n.id) ? "wheel-node-" : "central-unit-") +
                                         std::to_string(n.id));
      std::map<std::string, std::uint32_t, std::less<>> tids;
      for (const rt::ExecutionSegment& segment : n.cpu->trace()) {
        auto it = tids.find(segment.label);
        if (it == tids.end()) {
          const auto tid = static_cast<std::uint32_t>(tids.size() + 1);
          it = tids.emplace(std::string{segment.label}, tid).first;
          recorder->setThreadName(n.id, tid, it->first);
        }
        recorder->complete(n.id, it->second, it->first, "cpu", segment.start,
                           segment.end - segment.start);
      }
    }
  }

  /// Digest of the configuration a checkpoint was taken under: a replay is
  /// only meaningful on an identically configured simulation.
  [[nodiscard]] std::uint64_t configDigest() const {
    StateHash digest;
    digest.u64(static_cast<std::uint64_t>(config.nodeType));
    digest.f64(config.initialSpeedMps);
    digest.f64(config.pedal);
    digest.i64(config.horizon.us());
    digest.i64(config.restartTime.us());
    return digest.finish();
  }

  /// Digest of the deterministic simulation state (see the header docs).
  [[nodiscard]] std::uint64_t fingerprint() const {
    StateHash digest;
    digest.i64(simulator.now().us());
    digest.u64(simulator.processedEvents());
    digest.f64(vehicle.speedMps());
    digest.f64(vehicle.distanceM());
    digest.boolean(vehicleStopped);
    digest.f64(stopTimeS);
    digest.u64(bus.cyclesCompleted());
    digest.u64(bus.framesDelivered());
    digest.u64(bus.framesDropped());
    digest.u64(bus.crcRejected());
    digest.u64(bus.corruptionsInjected());
    digest.u64(commandFramesDelivered);
    digest.u64(failSilentEvents);
    digest.u64(commandsOmitted);
    digest.u64(undetectedValueDeliveries);
    digest.boolean(emergencyLatched);
    digest.i64(emergencyPressedAt ? emergencyPressedAt->us() : -1);
    digest.i64(emergencyAppliedAt ? emergencyAppliedAt->us() : -1);
    for (const std::uint32_t command : lastCommandQ8) digest.u64(command);
    for (const std::uint64_t seq : lastCommandSeq) digest.u64(seq);
    for (const Node& n : nodes) {
      digest.boolean(n.kernel->stopped());
      digest.boolean(membership.alive(n.id));
      digest.u64(n.kernel->kernelErrors());
      const rt::TaskStats& stats = n.kernel->stats(n.controlTask);
      digest.u64(stats.releases);
      digest.u64(stats.completions);
      digest.u64(stats.omissions);
      digest.u64(stats.deadlineMisses);
      digest.u64(stats.budgetOverruns);
      digest.u64(stats.errorsDetected);
      digest.u64(stats.errorsMasked);
    }
    return digest.finish();
  }

  /// Snapshot of the monotone counters (see BbwSystemCounters).
  [[nodiscard]] BbwSystemCounters counterSnapshot() const {
    BbwSystemCounters c;
    c.eventsProcessed = simulator.processedEvents();
    c.busCycles = bus.cyclesCompleted();
    c.busFramesDelivered = bus.framesDelivered();
    c.busFramesDropped = bus.framesDropped();
    c.busCrcRejected = bus.crcRejected();
    c.busCorruptionsInjected = bus.corruptionsInjected();
    c.commandFramesDelivered = commandFramesDelivered;
    for (const auto& arbiter : commandArbiter) {
      c.duplicateCommandsDropped += arbiter.duplicatesDropped();
    }
    c.commandsOmitted = commandsOmitted;
    c.undetectedValueDeliveries = undetectedValueDeliveries;
    c.failSilentEvents = failSilentEvents;
    for (const Node& n : nodes) {
      c.kernelErrors += n.kernel->kernelErrors();
      c.cpuDispatches += n.cpu->dispatches();
      c.cpuPreemptions += n.cpu->preemptions();
      const rt::TaskStats& stats = n.kernel->stats(n.controlTask);
      c.controlReleases += stats.releases;
      c.controlDeadlineMisses += stats.deadlineMisses;
      c.controlBudgetOverruns += stats.budgetOverruns;
      if (isWheel(n.id)) {
        c.wheelCompletions[wheelIndex(n.id)] = stats.completions;
        c.wheelOmissions[wheelIndex(n.id)] = stats.omissions;
      } else {
        c.cuCompletions += stats.completions;
      }
      if (n.temExecutor) {
        const tem::TemStats& temStats = n.temExecutor->stats(n.controlTask);
        c.errorsMaskedByTem += temStats.maskedByVote + temStats.maskedByReplacement;
      }
    }
    return c;
  }

  /// Digest of the evolution-relevant state only (see the header docs):
  /// everything that determines how the simulation behaves from here on,
  /// NOTHING that merely records how it got here.
  [[nodiscard]] std::uint64_t behaviorFingerprint() const {
    StateHash digest;
    digest.i64(simulator.now().us());
    digest.u64(simulator.pendingEvents());
    digest.f64(vehicle.speedMps());
    digest.f64(vehicle.distanceM());
    for (std::size_t w = 0; w < kWheelCount; ++w) {
      digest.f64(vehicle.wheelSpeedRadps(w));
      digest.f64(vehicle.brakeTorque(w));
    }
    digest.boolean(vehicleStopped);
    digest.f64(stopTimeS);
    for (const std::uint32_t command : lastCommandQ8) digest.u64(command);
    for (const std::int32_t limit : wheelLimitQ8) digest.i64(limit);
    for (const std::uint64_t seq : lastCommandSeq) digest.u64(seq);
    digest.boolean(emergencyLatched);
    digest.i64(emergencyPressedAt ? emergencyPressedAt->us() : -1);
    digest.i64(emergencyAppliedAt ? emergencyAppliedAt->us() : -1);
    digest.u64(membership.stateDigest());
    digest.u64(bus.stateDigest());
    for (const auto& arbiter : commandArbiter) digest.u64(arbiter.stateDigest());
    for (const Node& n : nodes) {
      digest.boolean(n.kernel->stopped());
      digest.boolean(n.corruptSecondCopy);
      digest.boolean(n.detectedErrorNextCopy);
      digest.boolean(n.omitNextResult);
      digest.boolean(n.valueFailureArmed);
      digest.u64(n.valueFailureJob);
      digest.u64(n.snapshotJob);
      digest.u64(n.snapshotSeq);
      for (const std::uint32_t input : n.jobInput) digest.u64(input);
    }
    return digest.finish();
  }

  /// See BbwSystemSim::injectionQuiescent.
  [[nodiscard]] bool injectionQuiescent() const {
    for (const Node& n : nodes) {
      if (n.corruptSecondCopy || n.detectedErrorNextCopy || n.omitNextResult ||
          n.valueFailureArmed || n.valueFailureJob != ~0ULL) {
        return false;
      }
    }
    return !bus.injectionArmed();
  }

  /// Advances the event loop to `until` (the run() loop without result
  /// finalization).
  void advanceTo(SimTime until) {
    const SimTime limit = std::min(until, SimTime::zero() + config.horizon);
    while (simulator.now() < limit && !vehicleStopped) {
      if (!simulator.step()) break;
    }
  }

  /// Makes an injection take effect: one trace line and recorder instant,
  /// then the kind's effect on the node (or on its next bus frame).
  void fire(const Injection& injection) {
    // Traces spell the omission kind "omission".
    const std::string name = injection.kind == InjectionKind::OmissionFailure
                                 ? "omission"
                                 : describe(injection.kind);
    trace("inject " + name + " node=" + std::to_string(injection.node));
    record(injection.node, name, "inject");
    Node& n = node(injection.node);
    switch (injection.kind) {
      case InjectionKind::ComputationFault: n.corruptSecondCopy = true; break;
      case InjectionKind::DetectedError: n.detectedErrorNextCopy = true; break;
      case InjectionKind::KernelError:
        n.kernel->reportKernelError({rt::ErrorEvent::Source::HardwareException, 0});
        break;
      case InjectionKind::OmissionFailure: n.omitNextResult = true; break;
      case InjectionKind::ValueFailure: n.valueFailureArmed = true; break;
      case InjectionKind::BusCorruption:
        bus.corruptNextFrame(injection.node, injection.flipBits);
        break;
    }
  }

  void schedulePlantStep() {
    simulator.scheduleAfter(kPlantStep, [this] {
      vehicle.step(kPlantStep.toSeconds());
      if (vehicle.stopped()) {
        if (!vehicleStopped) {
          vehicleStopped = true;
          stopTimeS = simulator.now().toSeconds();
          char line[64];
          std::snprintf(line, sizeof line, "vehicle-stopped distance=%.3f", vehicle.distanceM());
          trace(line);
          record(0, "vehicle-stopped", "vehicle", line + sizeof("vehicle-stopped ") - 1);
        }
        return;  // plant settled; no more stepping needed
      }
      schedulePlantStep();
    }, sim::EventPriority::Observer);
  }
};

BbwSystemSim::BbwSystemSim(BbwSimConfig config) : impl_{std::make_unique<Impl>(config)} {
  impl_->vehicle.reset(config.initialSpeedMps);
  impl_->build();
}

BbwSystemSim::~BbwSystemSim() = default;

sim::Simulator& BbwSystemSim::simulator() { return impl_->simulator; }

void BbwSystemSim::inject(const Injection& injection) {
  if (injection.node < kCuA || injection.node > kWheelNodeBase + 3) {
    throw std::invalid_argument("BbwSystemSim::inject: node " + std::to_string(injection.node) +
                                " is not a node of the stop (1..6)");
  }
  impl_->replayLog.emplace_back(injection);
  impl_->simulator.scheduleAt(injection.at, [this, injection] { impl_->fire(injection); },
                              sim::EventPriority::FaultInjection);
}

void BbwSystemSim::setTraceSink(std::function<void(const std::string&)> sink) {
  impl_->traceSink = std::move(sink);
  impl_->wireTaps();
}

void BbwSystemSim::setMetricsRegistry(obs::Registry* registry) {
  impl_->metrics = registry;
  impl_->wireTaps();
}

void BbwSystemSim::setTraceRecorder(obs::TraceRecorder* recorder) {
  impl_->recorder = recorder;
  impl_->wireTaps();
}

const net::MembershipService& BbwSystemSim::membership() const { return impl_->membership; }

net::MembershipService& BbwSystemSim::membership() { return impl_->membership; }

void BbwSystemSim::pressEmergencyBrake(SimTime at) {
  impl_->replayLog.emplace_back(at);
  impl_->simulator.scheduleAt(at, [this] {
    Impl& impl = *impl_;
    impl.emergencyLatched = true;
    if (!impl.emergencyPressedAt) impl.emergencyPressedAt = impl.simulator.now();
    for (const net::NodeId cu : {kCuA, kCuB}) {
      if (!impl.node(cu).kernel->stopped()) {
        impl.node(cu).kernel->releaseSporadic(impl.node(cu).emergencyTask);
      }
    }
  }, sim::EventPriority::Application);
}

BbwSimResult BbwSystemSim::run() {
  Impl& impl = *impl_;
  impl.advanced = true;
  const SimTime limit = SimTime::zero() + impl.config.horizon;
  while (impl.simulator.now() < limit && !impl.vehicleStopped) {
    if (!impl.simulator.step()) break;
  }

  BbwSimResult result;
  result.stopped = impl.vehicleStopped;
  result.stoppingDistanceM = impl.vehicle.distanceM();
  result.stopTimeS = impl.stopTimeS;
  const BbwSystemCounters counters = impl.counterSnapshot();
  result.commandFramesDelivered = counters.commandFramesDelivered;
  result.duplicateCommandsDropped = counters.duplicateCommandsDropped;
  result.busFramesDropped = counters.busFramesDropped;
  result.failSilentEvents = counters.failSilentEvents;
  result.commandsOmitted = counters.commandsOmitted;
  result.undetectedValueDeliveries = counters.undetectedValueDeliveries;
  result.wheelCompletions = counters.wheelCompletions;
  result.wheelOmissions = counters.wheelOmissions;
  result.cuCompletions = counters.cuCompletions;
  result.errorsMaskedByTem = counters.errorsMaskedByTem;
  if (impl.emergencyPressedAt && impl.emergencyAppliedAt) {
    result.emergencyBrakeLatency = *impl.emergencyAppliedAt - *impl.emergencyPressedAt;
  }
  for (const auto& n : impl.nodes) {
    if (n.kernel->stopped() || !impl.membership.alive(n.id)) {
      result.nodesDownAtEnd.insert(n.id);
    }
  }
  impl.snapshotMetrics();
  impl.emitSpans();
  return result;
}

void BbwSystemSim::runUntil(SimTime until) {
  impl_->advanced = true;
  impl_->advanceTo(until);
}

std::uint64_t BbwSystemSim::stateFingerprint() const { return impl_->fingerprint(); }

BbwSystemCounters BbwSystemSim::counterSnapshot() const { return impl_->counterSnapshot(); }

std::uint64_t BbwSystemSim::behaviorFingerprint() const { return impl_->behaviorFingerprint(); }

bool BbwSystemSim::injectionQuiescent() const { return impl_->injectionQuiescent(); }

std::vector<std::uint8_t> BbwSystemSim::saveState() const {
  const Impl& impl = *impl_;
  snap::BlobWriter writer{snap::kSystemSnapshot, kSystemStateVersion};
  writer.beginSection("config");
  writer.u64(impl.configDigest());
  writer.endSection();
  writer.beginSection("inject");
  writer.u32(static_cast<std::uint32_t>(impl.replayLog.size()));
  for (const LogEntry& entry : impl.replayLog) {
    if (const auto* injection = std::get_if<Injection>(&entry)) {
      writer.u16(static_cast<std::uint16_t>(injection->kind));
      writer.u32(injection->node);
      writer.i64(injection->at.us());
      writer.u32Vec(injection->flipBits);
    } else {
      writer.u16(kPressTag);
      writer.u32(0);
      writer.i64(std::get<SimTime>(entry).us());
      writer.u32Vec({});
    }
  }
  writer.endSection();
  writer.beginSection("clock");
  writer.i64(impl.simulator.now().us());
  // The clock alone under-specifies the state when several events share a
  // timestamp (e.g. a checkpoint taken right after the event that stopped
  // the vehicle), so the replay target is the PROCESSED-EVENT COUNT; the
  // deterministic event order makes it exact.
  writer.u64(impl.simulator.processedEvents());
  writer.endSection();
  writer.beginSection("fp");
  writer.u64(impl.fingerprint());
  writer.endSection();
  return writer.finish();
}

void BbwSystemSim::restoreState(std::span<const std::uint8_t> blob) {
  Impl& impl = *impl_;
  if (impl.advanced || !impl.replayLog.empty()) {
    throw std::runtime_error(
        "BbwSystemSim::restoreState: requires a freshly constructed simulation "
        "(this one has already advanced or been injected into)");
  }

  // Parse and validate the WHOLE checkpoint before replaying anything.
  snap::BlobReader reader{blob, snap::kSystemSnapshot, kSystemStateVersion};
  reader.openSection("config");
  const std::uint64_t configDigest = reader.u64();
  reader.closeSection();
  reader.openSection("inject");
  // Smallest entry: tag, node, time and an empty flip-bit list.
  const std::uint32_t entries = reader.elementCount(2 + 4 + 8 + 4);
  std::vector<LogEntry> schedule;
  schedule.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    const std::uint16_t tag = reader.u16();
    const net::NodeId node = reader.u32();
    const SimTime at = SimTime::fromUs(reader.i64());
    std::vector<std::uint32_t> flipBits = reader.u32Vec();
    if (tag == kPressTag) {
      schedule.emplace_back(at);
    } else if (tag < kInjectionKindCount) {
      schedule.emplace_back(
          Injection{static_cast<InjectionKind>(tag), node, at, std::move(flipBits)});
    } else {
      throw snap::BlobError("snapshot section 'inject': unknown injection kind " +
                            std::to_string(tag));
    }
  }
  reader.closeSection();
  reader.openSection("clock");
  const SimTime target = SimTime::fromUs(reader.i64());
  const std::uint64_t targetProcessed = reader.u64();
  reader.closeSection();
  reader.openSection("fp");
  const std::uint64_t expectedFingerprint = reader.u64();
  reader.closeSection();
  reader.finish();

  if (configDigest != impl.configDigest()) {
    throw std::runtime_error(
        "BbwSystemSim::restoreState: configuration digest mismatch (the checkpoint "
        "was taken under a different BbwSimConfig)");
  }

  // Replay: re-apply the injection schedule in call order, advance to the
  // checkpoint clock, and verify the state digest. Because the simulation
  // is a deterministic function of (config, schedule, clock), a fingerprint
  // match means THIS simulation is the checkpointed one.
  for (const LogEntry& entry : schedule) {
    if (const auto* injection = std::get_if<Injection>(&entry)) {
      inject(*injection);
    } else {
      pressEmergencyBrake(std::get<SimTime>(entry));
    }
  }
  // Advance by PROCESSED-EVENT COUNT, not by clock: the producer may have
  // processed further events at the checkpoint timestamp (its advance loops
  // gate on the pre-step clock), and the deterministic event order makes
  // the count exact. The clock and horizon bounds only guard against a
  // nonsensical count; the fingerprint check below is the real arbiter.
  impl.advanced = true;
  const SimTime horizon = SimTime::zero() + impl.config.horizon;
  while (impl.simulator.processedEvents() < targetProcessed &&
         impl.simulator.now() <= std::min(target, horizon) && !impl.vehicleStopped) {
    if (!impl.simulator.step()) break;
  }
  if (impl.fingerprint() != expectedFingerprint) {
    throw std::runtime_error(
        "BbwSystemSim::restoreState: replay diverged from the checkpoint fingerprint "
        "at t=" + std::to_string(target.us()) +
        "us (corrupted blob or nondeterminism)");
  }
}

}  // namespace nlft::bbw
