// Traced run: re-enacts one workload's campaign through the public calls of
// each module, recording one span per call, then probes single layer
// functions with inputs shaped like the workload's. Nothing is added to the
// program: every span and probe sits in this file, around calls into src/.
//
// The re-enactment runs twice, first with the recorder off and then on; the
// difference is the tracing overhead. Spans stay in memory and are written
// to the span file when the run ends.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "faults/snapshot_exec.hpp"
#include "hw/hamming.hpp"
#include "net/bus.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "sim/simulator.hpp"
#include "snap/cache.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace nlft;

namespace {

// ---------------------------------------------------------------- recorder

constexpr std::uint64_t kNoRun = ~std::uint64_t{0};
constexpr std::int64_t kInherit = -2;

struct SpanRecord {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;  ///< global id of the parent span, -1 = none
  std::uint64_t runId = kNoRun;
  std::uint32_t thread = 0;
};

/// In-memory span store: one log per thread, registered on first use.
/// Global span id = (thread << 32) | index in that thread's log.
class Recorder {
 public:
  struct ThreadLog {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::int64_t> open;  ///< stack of open span ids
  };

  bool enabled = false;
  Clock::time_point origin = Clock::now();

  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    thread_local std::uint64_t logGeneration = 0;
    if (log == nullptr || logGeneration != generation_) {
      const std::lock_guard<std::mutex> lock{mutex_};
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = static_cast<std::uint32_t>(logs_.size() - 1);
      logGeneration = generation_;
    }
    return *log;
  }

  /// Drops every recorded span; call only while no span is open.
  void clear() {
    const std::lock_guard<std::mutex> lock{mutex_};
    logs_.clear();
    ++generation_;
  }

  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
  }

  /// All spans, in (thread, open order).
  [[nodiscard]] std::vector<SpanRecord> collect() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    std::vector<SpanRecord> all;
    for (const auto& log : logs_) all.insert(all.end(), log->spans.begin(), log->spans.end());
    return all;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::uint64_t generation_ = 1;
};

Recorder gRecorder;
thread_local std::uint64_t tRunId = kNoRun;

/// Stable C strings for names built at run time (per-program span names).
const char* intern(const std::string& name) {
  static std::set<std::string> names;
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock{mutex};
  return names.insert(name).first->c_str();
}

}  // namespace

Span::Span(const char* name) : Span(name, kInherit) {}

Span::Span(const char* name, std::int64_t parent) {
  if (!gRecorder.enabled) return;
  Recorder::ThreadLog& log = gRecorder.local();
  SpanRecord record;
  record.name = name;
  record.parent = parent != kInherit ? parent : (log.open.empty() ? -1 : log.open.back());
  record.runId = tRunId;
  record.thread = log.thread;
  id_ = (static_cast<std::int64_t>(log.thread) << 32) | static_cast<std::int64_t>(log.spans.size());
  log.open.push_back(id_);
  record.startNs = gRecorder.nowNs();
  log.spans.push_back(record);
}

Span::~Span() {
  if (id_ < 0) return;
  const std::int64_t end = gRecorder.nowNs();
  Recorder::ThreadLog& log = gRecorder.local();
  log.spans[static_cast<std::size_t>(id_ & 0xffffffff)].endNs = end;
  log.open.pop_back();
}

void setRunId(std::uint64_t runId) { tRunId = runId; }

namespace {

// ------------------------------------------------------------- statistics

struct Distribution {
  std::vector<double> samples;

  [[nodiscard]] double percentile(double p) const {
    if (samples.empty()) return 0.0;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  }
  [[nodiscard]] double p50() const { return percentile(0.5); }
  [[nodiscard]] double max() const {
    return samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
  }
  /// The highest of p99.9 / p99 / p90 / p50 with at least ten samples above it.
  [[nodiscard]] double tailPct() const {
    const auto n = static_cast<double>(samples.size());
    for (const double pct : {99.9, 99.0, 90.0}) {
      if (n * (1.0 - pct / 100.0) >= 10.0) return pct;
    }
    return 50.0;
  }
  [[nodiscard]] double tail() const { return percentile(tailPct() / 100.0); }
};

/// Median per-call seconds of `batch()` (which makes `calls` calls) over
/// `rounds` rounds.
template <typename Batch>
double probeSeconds(std::size_t rounds, std::size_t calls, Batch batch) {
  Distribution perCall;
  for (std::size_t r = 0; r < rounds; ++r) {
    const Clock::time_point start = Clock::now();
    batch();
    perCall.samples.push_back(secondsSince(start) / static_cast<double>(calls));
  }
  return perCall.p50();
}

/// Results of probed calls land here so the optimiser cannot drop them.
std::atomic<std::uint64_t> gSink{0};

const fi::TaskImage& imageOf(const Setup& setup, const std::string& program) {
  const auto it = std::find(setup.programNames.begin(), setup.programNames.end(), program);
  if (it == setup.programNames.end()) throw std::runtime_error("guest program missing: " + program);
  return setup.images[static_cast<std::size_t>(it - setup.programNames.begin())];
}

/// exec::forEachChunk bodies must not throw: the first exception of any
/// chunk is kept and rethrown on the calling thread once the loop is done.
class ChunkErrors {
 public:
  template <typename Body>
  void guard(Body body) {
    try {
      body();
    } catch (...) {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (!first_) first_ = std::current_exception();
    }
  }
  void rethrow() const {
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr first_;
};

// --------------------------------------------------- system re-enactment

enum class Injection : std::uint8_t { None, Computation, DetectedError, Omission, Value };

/// Node-level outcome of the machine experiment -> system injection (the
/// mapping runSystemCampaign applies for NLFT nodes).
Injection tally(fi::TemOutcome outcome, fi::NodeLevelCounts& counts) {
  ++counts.injected;
  switch (outcome) {
    case fi::TemOutcome::NotActivated: ++counts.notActivated; return Injection::None;
    case fi::TemOutcome::MaskedByEcc: ++counts.maskedByEcc; return Injection::None;
    case fi::TemOutcome::MaskedByVote: ++counts.masked; return Injection::Computation;
    case fi::TemOutcome::MaskedByRestart: ++counts.masked; return Injection::DetectedError;
    case fi::TemOutcome::OmissionVoteFailed:
    case fi::TemOutcome::OmissionNoBudget: ++counts.omission; return Injection::Omission;
    case fi::TemOutcome::UndetectedWrongOutput: ++counts.undetected; return Injection::Value;
  }
  return Injection::None;
}

void arm(bbw::BbwSystemSim& sim, const fi::SystemScenario& scenario, Injection injection) {
  const net::NodeId target = scenario.targets.front();
  switch (scenario.kind) {
    case fi::ScenarioKind::MachineTransient:
      switch (injection) {
        case Injection::Computation: sim.injectComputationFault(target, scenario.at); break;
        case Injection::DetectedError: sim.injectDetectedError(target, scenario.at); break;
        case Injection::Omission: sim.injectOmissionFailure(target, scenario.at); break;
        case Injection::Value: sim.injectValueFailure(target, scenario.at); break;
        case Injection::None: break;
      }
      break;
    case fi::ScenarioKind::BusCorruption:
      sim.injectBusCorruption(target, scenario.at, scenario.flipBits);
      break;
    case fi::ScenarioKind::NodeCrash: sim.injectKernelError(target, scenario.at); break;
    case fi::ScenarioKind::CorrelatedBurst:
      for (const net::NodeId node : scenario.targets) sim.injectKernelError(node, scenario.at);
      break;
  }
}

std::uint64_t omissions(const bbw::BbwSimResult& result) {
  std::uint64_t total = result.commandsOmitted;
  for (const std::uint64_t o : result.wheelOmissions) total += o;
  return total;
}

/// The system oracle, as documented in faults/system_campaign.hpp.
fi::SystemOutcome classify(const fi::SystemCampaignConfig& config,
                           const bbw::BbwSimResult& golden, const bbw::BbwSimResult& run) {
  if (!run.stopped || run.stoppingDistanceM > golden.stoppingDistanceM + config.missedStopMarginM) {
    return fi::SystemOutcome::MissedStop;
  }
  if (run.undetectedValueDeliveries > 0) return fi::SystemOutcome::ValueFailure;
  if (run.failSilentEvents > 0) return fi::SystemOutcome::FailSilentDegradation;
  if (omissions(run) > omissions(golden) || run.busFramesDropped > golden.busFramesDropped ||
      std::abs(run.stoppingDistanceM - golden.stoppingDistanceM) > config.maskToleranceM) {
    return fi::SystemOutcome::OmissionDegradation;
  }
  return fi::SystemOutcome::Masked;
}

/// Work counts of the simulated experiments (BbwSystemCounters at the end of
/// each simulation, so a spliced run counts only what it simulated).
struct SystemCounts {
  std::uint64_t events = 0;
  std::uint64_t runEvents = 0;  ///< events processed inside BbwSystemSim::run
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t framesDropped = 0;
  std::uint64_t crcRejected = 0;
  std::uint64_t restores = 0;
  std::uint64_t rejoinAttempts = 0;
  std::uint64_t rejoined = 0;

  void add(const bbw::BbwSystemCounters& c) {
    events += c.eventsProcessed;
    dispatches += c.cpuDispatches;
    preemptions += c.cpuPreemptions;
    framesDelivered += c.busFramesDelivered;
    framesDropped += c.busFramesDropped;
    crcRejected += c.busCrcRejected;
  }
  void merge(const SystemCounts& o) {
    events += o.events;
    runEvents += o.runEvents;
    dispatches += o.dispatches;
    preemptions += o.preemptions;
    framesDelivered += o.framesDelivered;
    framesDropped += o.framesDropped;
    crcRejected += o.crcRejected;
    restores += o.restores;
    rejoinAttempts += o.rejoinAttempts;
    rejoined += o.rejoined;
  }
};

struct SystemChunk {
  std::size_t experiments = 0;
  fi::SystemCampaignStats stats;
  SystemCounts counts;
  obs::Registry sims;

  void merge(const SystemChunk& o) {
    experiments += o.experiments;
    stats.merge(o.stats);
    counts.merge(o.counts);
    sims.merge(o.sims);
  }
};

struct SystemPass {
  SystemChunk total;
  std::uint64_t baselineSweepEvents = 0;
  std::size_t chunks = 0;
};

const char* experimentSpan(fi::ScenarioKind kind) {
  switch (kind) {
    case fi::ScenarioKind::MachineTransient: return "faults.system_experiment/machine-transient";
    case fi::ScenarioKind::BusCorruption: return "faults.system_experiment/bus-corruption";
    case fi::ScenarioKind::NodeCrash: return "faults.system_experiment/node-crash";
    case fi::ScenarioKind::CorrelatedBurst: return "faults.system_experiment/correlated-burst";
  }
  return "faults.system_experiment/?";
}

/// The campaign's crude sampler, drawing in its frozen order from the
/// set-up's guest images. fi::sampleScenario(config, rng) would give the
/// same scenario but rebuilds the guest context (assembly and two golden
/// runs) on every call, which runSystemCampaign does once per call.
fi::SystemScenario sampleScenario(const fi::SystemCampaignConfig& config, const Setup& setup,
                                  util::Rng& rng) {
  constexpr net::NodeId kNodeCount = bbw::kWheelNodeBase + 3;  // CU-A, CU-B, four wheels
  fi::SystemScenario scenario;
  const double total = config.machineTransientWeight + config.busCorruptionWeight +
                       config.nodeCrashWeight + config.correlatedBurstWeight;
  const double pick = rng.uniform(0.0, total);
  if (pick < config.machineTransientWeight) {
    scenario.kind = fi::ScenarioKind::MachineTransient;
  } else if (pick < config.machineTransientWeight + config.busCorruptionWeight) {
    scenario.kind = fi::ScenarioKind::BusCorruption;
  } else if (pick < config.machineTransientWeight + config.busCorruptionWeight +
                        config.nodeCrashWeight) {
    scenario.kind = fi::ScenarioKind::NodeCrash;
  } else {
    scenario.kind = fi::ScenarioKind::CorrelatedBurst;
  }
  scenario.at = util::SimTime::fromUs(static_cast<std::int64_t>(
      std::llround(rng.uniform(config.injectEarliestS, config.injectLatestS) * 1e6)));
  const auto pickNode = [&rng] { return static_cast<net::NodeId>(1 + rng.uniformInt(kNodeCount)); };
  switch (scenario.kind) {
    case fi::ScenarioKind::MachineTransient: {
      const net::NodeId target = pickNode();
      const bool wheel = target >= bbw::kWheelNodeBase;
      const auto p = static_cast<std::size_t>(&imageOf(setup, wheel ? "wheel" : "cu") -
                                              setup.images.data());
      scenario.targets.push_back(target);
      scenario.fault = fi::sampleFault(setup.images[p], setup.goldenInstructions[p], config.mix, rng);
      break;
    }
    case fi::ScenarioKind::BusCorruption: {
      scenario.targets.push_back(pickNode());
      const std::size_t flips = 1 + rng.uniformInt(3);
      for (std::size_t i = 0; i < flips; ++i) {
        scenario.flipBits.push_back(static_cast<std::uint32_t>(rng.uniformInt(512)));
      }
      break;
    }
    case fi::ScenarioKind::NodeCrash: scenario.targets.push_back(pickNode()); break;
    case fi::ScenarioKind::CorrelatedBurst: {
      const std::size_t count = 2 + rng.uniformInt(2);
      while (scenario.targets.size() < count) {
        const net::NodeId candidate = pickNode();
        if (std::find(scenario.targets.begin(), scenario.targets.end(), candidate) ==
            scenario.targets.end()) {
          scenario.targets.push_back(candidate);
        }
      }
      break;
    }
  }
  return scenario;
}

/// One system experiment along the workload's own path: Auto mode restores
/// from the replay baseline; without a registry it splices at rejoin, with
/// one it runs to the horizon streaming per-sim metrics.
void systemExperiment(const WorkloadSpec& workload, const fi::SystemCampaignConfig& config,
                      const Setup& setup, const fi::SystemBaseline& baseline,
                      snap::SnapshotCache& cache, util::Rng& rng, SystemChunk& chunk) {
  const fi::SystemScenario scenario = sampleScenario(config, setup, rng);
  const Span experiment{experimentSpan(scenario.kind)};
  fi::SystemCampaignStats& stats = chunk.stats;
  const auto record = [&](fi::SystemOutcome outcome, const bbw::BbwSimResult& result) {
    ++stats.outcomes[static_cast<std::size_t>(outcome)];
    ++stats.outcomesByKind[static_cast<std::size_t>(scenario.kind)]
                          [static_cast<std::size_t>(outcome)];
    stats.stoppingDistanceM.add(result.stoppingDistanceM);
    if (result.stopped) ++stats.stops;
  };

  Injection injection = Injection::None;
  if (scenario.kind == fi::ScenarioKind::MachineTransient) {
    const fi::TaskImage& image =
        imageOf(setup, scenario.targets.front() >= bbw::kWheelNodeBase ? "wheel" : "cu");
    fi::TemOutcome outcome;
    {
      const Span span{"faults.tem_experiment"};
      outcome = fi::runTemExperiment(image, scenario.fault, config.jobBudgetFactor);
    }
    injection = tally(outcome, stats.nodeLevel);
    if (injection == Injection::None) {
      ++stats.skippedMasked;
      record(fi::SystemOutcome::Masked, baseline.goldenResult());
      return;
    }
  }

  std::optional<bbw::BbwSystemSim> sim;
  {
    const Span span{"bbw.sim_construct"};
    sim.emplace(baseline.config());
  }
  if (workload.metricsAttached) sim->setMetricsRegistry(&chunk.sims);
  std::optional<std::size_t> restoredAt;
  {
    const Span span{"snap.sys.restore"};
    restoredAt = baseline.restoreBefore(*sim, scenario.at.us(), cache);
  }
  if (restoredAt) ++chunk.counts.restores;
  arm(*sim, scenario, injection);

  std::optional<bbw::BbwSimResult> result;
  if (!workload.metricsAttached) {
    const Span span{"snap.sys.run_to_rejoin"};
    ++chunk.counts.rejoinAttempts;
    result = baseline.runToRejoin(*sim, scenario.at.us(), restoredAt);
    if (result) ++chunk.counts.rejoined;
  }
  if (!result) {
    const std::uint64_t before = sim->counterSnapshot().eventsProcessed;
    const Span span{"bbw.sim_run"};
    result = sim->run();
    chunk.counts.runEvents += sim->counterSnapshot().eventsProcessed - before;
  }
  chunk.counts.add(sim->counterSnapshot());
  record(classify(config, baseline.goldenResult(), *result), *result);
}

SystemPass reenactSystem(const WorkloadSpec& workload, const fi::SystemCampaignConfig& config,
                         const Setup& setup) {
  SystemPass pass;
  const Span campaign{"exec.campaign"};

  bbw::BbwSimConfig simConfig = config.sim;
  simConfig.nodeType = config.nodeType;
  std::optional<fi::SystemBaseline> baseline;
  {
    const Span span{"snap.sys.baseline_build"};
    if (!fi::systemSnapshotSupported(simConfig)) {
      throw std::runtime_error("replay checkpoints unsupported: Auto would run straight");
    }
    baseline.emplace(simConfig, config.checkpointStride);
  }
  pass.baselineSweepEvents = baseline->sweepEvents();

  const std::size_t chunkSize = config.parallelism.resolvedChunkSize(config.experiments);
  pass.chunks = exec::chunkCount(config.experiments, chunkSize);
  util::Rng root{config.seed};
  std::vector<util::Rng> rngs;
  for (std::size_t c = 0; c < pass.chunks; ++c) rngs.push_back(root.fork(c));
  std::vector<SystemChunk> chunks(pass.chunks);
  ChunkErrors errors;
  {
    const Span loop{"exec.for_each_chunk"};
    const std::int64_t loopId = loop.id();
    exec::forEachChunk(config.experiments, config.parallelism,
                       [&](const exec::ChunkRange& range, unsigned) {
                         errors.guard([&] {
                           const Span span{"exec.chunk", loopId};
                           SystemChunk& chunk = chunks[range.index];
                           chunk.experiments = range.end - range.begin;
                           snap::SnapshotCache cache{config.snapshotCacheBytes};
                           {
                             const Span prime{"snap.sys.prime_cache"};
                             baseline->primeCache(cache);
                           }
                           util::Rng rng = rngs[range.index];
                           for (std::size_t i = range.begin; i < range.end; ++i) {
                             setRunId(i);
                             systemExperiment(workload, config, setup, *baseline, cache, rng,
                                              chunk);
                           }
                         });
                         setRunId(kNoRun);
                       });
  }
  errors.rethrow();
  for (const SystemChunk& chunk : chunks) pass.total.merge(chunk);
  pass.total.stats.experiments = pass.total.experiments;
  return pass;
}

// -------------------------------------------------- machine re-enactment

struct MachinePass {
  std::string outputs;
  fi::SnapCounters snap;
  std::vector<double> temCampaignSeconds;
  std::vector<double> fsCampaignSeconds;
};

MachinePass reenactMachine(const WorkloadSpec& workload, std::uint64_t seed, const Setup& setup) {
  MachinePass pass;
  const Span campaign{"exec.campaign"};
  Json programs;
  for (std::size_t p = 0; p < setup.images.size(); ++p) {
    const std::string& name = setup.programNames[p];
    Clock::time_point callStart = Clock::now();
    fi::TemCampaignStats tem;
    {
      const Span span{intern("faults.tem_campaign/" + name)};
      tem = fi::runTemCampaign(setup.images[p], machineConfig(workload, seed, p, false));
    }
    pass.temCampaignSeconds.push_back(secondsSince(callStart));
    callStart = Clock::now();
    fi::FsCampaignStats fs;
    {
      const Span span{intern("faults.fs_campaign/" + name)};
      fs = fi::runFsCampaign(setup.images[p], machineConfig(workload, seed, p, true));
    }
    pass.fsCampaignSeconds.push_back(secondsSince(callStart));
    pass.snap.merge(tem.snap);
    pass.snap.merge(fs.snap);
    programs.raw(name, Json{}.raw("tem", temOutputsJson(tem)).raw("fs", fsOutputsJson(fs)).dump());
  }
  pass.outputs = Json{}.raw("programs", programs.dump()).dump();
  return pass;
}

/// Single TEM experiments through fi::runTemExperiment, programs round-robin,
/// faults from the campaign sampler. The campaigns run their experiments
/// inside runTemCampaign, out of a span's reach, so machine_fi times them
/// here, apart from the traced pass.
Distribution temExperimentProbe(const Setup& setup, std::uint64_t seed, std::size_t count) {
  Distribution seconds;
  util::Rng rng{seed};
  const fi::FaultMix mix{};
  std::uint64_t outcomes = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = i % setup.images.size();
    const fi::FaultSpec fault =
        fi::sampleFault(setup.images[p], setup.goldenInstructions[p], mix, rng);
    const Clock::time_point start = Clock::now();
    outcomes += static_cast<std::uint64_t>(fi::runTemExperiment(setup.images[p], fault));
    seconds.samples.push_back(secondsSince(start));
  }
  gSink.fetch_add(outcomes, std::memory_order_relaxed);
  return seconds;
}

// ------------------------------------------------------------------ probes

struct Probes {
  double frameCrcNs = 0.0;
  double eccEncodeNs = 0.0;
  double eccDecodeNs = 0.0;
  double scheduleStepNs = 0.0;
  double behaviorDigestNs = 0.0;
  double machineConstructUs = 0.0;
  double saveStateUs = 0.0;
  double restoreStateUs = 0.0;
  double registryMergeUs = 0.0;
  double nsPerInstruction = 0.0;
  double simMetricsOverheadFrac = 0.0;
  std::size_t queueDepth = 0;
};

/// The campaign machine of `image` (fi's makeMachine: image loaded, MMU
/// regions installed for task 1).
hw::Machine campaignMachine(const fi::TaskImage& image) {
  hw::Machine machine{image.memBytes};
  machine.loadWords(image.program.origin, image.program.words);
  machine.loadWords(image.inputBase, image.input);
  if (image.enableMmu && !image.mmuRegions.empty()) {
    for (hw::MmuRegion region : image.mmuRegions) {
      region.owner = 1;
      machine.mmu().addRegion(std::move(region));
    }
    machine.mmu().setActiveTask(1);
    machine.mmu().setEnabled(true);
  }
  return machine;
}

Probes runProbes(const Setup& setup) {
  constexpr std::size_t kRounds = 9;
  Probes probes;
  const fi::TaskImage& cu = imageOf(setup, "cu");

  // net: a command frame carries a header pair plus the CU job's output.
  const std::vector<std::uint32_t> payload = [&] {
    std::vector<std::uint32_t> words{1, 7};
    for (std::uint32_t w = 0; w < cu.outputWords; ++w) words.push_back(0x9e3779b9u * (w + 1));
    return words;
  }();
  probes.frameCrcNs = 1e9 * probeSeconds(kRounds, 20000, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < 20000; ++i) acc += net::frameCrc(payload);
    gSink.fetch_add(acc, std::memory_order_relaxed);
  });

  // hw: ECC over the guest images' program and input words.
  std::vector<std::uint32_t> words;
  for (const fi::TaskImage& image : setup.images) {
    words.insert(words.end(), image.program.words.begin(), image.program.words.end());
    words.insert(words.end(), image.input.begin(), image.input.end());
  }
  std::vector<std::uint64_t> codewords;
  for (const std::uint32_t w : words) codewords.push_back(hw::eccEncode(w));
  constexpr std::size_t kEccCalls = 100000;
  probes.eccEncodeNs = 1e9 * probeSeconds(kRounds, kEccCalls, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kEccCalls; ++i) acc += hw::eccEncode(words[i % words.size()] ^ i);
    gSink.fetch_add(acc, std::memory_order_relaxed);
  });
  probes.eccDecodeNs = 1e9 * probeSeconds(kRounds, kEccCalls, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kEccCalls; ++i) {
      // Every 64th read carries a single-bit error, as a scrubbed upset would.
      const std::uint64_t flip = (i % 64 == 0) ? (std::uint64_t{1} << (i % 39)) : 0;
      acc += hw::eccDecode(codewords[i % codewords.size()] ^ flip).data;
    }
    gSink.fetch_add(acc, std::memory_order_relaxed);
  });

  // sim: schedule+step at the queue depth of a live closed-loop stop, with
  // the simulation's priority mix and one control period of time spread.
  {
    bbw::BbwSystemSim live{bbw::BbwSimConfig{}};
    live.runUntil(util::SimTime::fromUs(1'000'000));
    probes.queueDepth = live.simulator().pendingEvents();
  }
  constexpr std::size_t kSimCalls = 50000;
  probes.scheduleStepNs = 1e9 * probeSeconds(kRounds, kSimCalls, [&] {
    constexpr std::array<sim::EventPriority, 4> kMix{
        sim::EventPriority::Hardware, sim::EventPriority::Kernel, sim::EventPriority::Network,
        sim::EventPriority::Application};
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    util::Rng rng{7};
    const auto schedule = [&](std::size_t i) {
      const auto delay = util::Duration::microseconds(
          static_cast<std::int64_t>(rng.uniformInt(5000)));
      simulator.scheduleAt(simulator.now() + delay, [&fired, i] { fired += i; }, kMix[i % 4]);
    };
    for (std::size_t i = 0; i < probes.queueDepth; ++i) schedule(i);
    for (std::size_t i = 0; i < kSimCalls; ++i) {
      schedule(i);
      (void)simulator.step();
    }
    gSink.fetch_add(fired, std::memory_order_relaxed);
  });

  // hw::Machine and the snapshot digest on the wheel image's machine.
  const fi::TaskImage& wheel = imageOf(setup, "wheel");
  hw::Machine machine = campaignMachine(wheel);
  probes.behaviorDigestNs = 1e9 * probeSeconds(kRounds, 200, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < 200; ++i) acc += fi::behaviorDigest(machine);
    gSink.fetch_add(acc, std::memory_order_relaxed);
  });
  probes.machineConstructUs = 1e6 * probeSeconds(kRounds, 50, [&] {
    for (int i = 0; i < 50; ++i) {
      gSink.fetch_add(campaignMachine(wheel).executedInstructions(), std::memory_order_relaxed);
    }
  });
  const std::vector<std::uint8_t> blob = machine.saveState();
  probes.saveStateUs = 1e6 * probeSeconds(kRounds, 50, [&] {
    for (int i = 0; i < 50; ++i) {
      gSink.fetch_add(machine.saveState().size(), std::memory_order_relaxed);
    }
  });
  hw::Machine target{wheel.memBytes};
  probes.restoreStateUs = 1e6 * probeSeconds(kRounds, 50, [&] {
    for (int i = 0; i < 50; ++i) target.restoreState(blob);
  });

  // hw: interpreter cost per instruction through fi::runCopy, all programs.
  {
    std::vector<hw::Machine> machines;
    for (const fi::TaskImage& image : setup.images) machines.push_back(campaignMachine(image));
    std::uint64_t instructions = 0;
    const double seconds = probeSeconds(kRounds, 1, [&] {
      for (int i = 0; i < 300; ++i) {
        for (std::size_t p = 0; p < setup.images.size(); ++p) {
          instructions += fi::runCopy(machines[p], setup.images[p], std::nullopt).instructions;
        }
      }
    });
    probes.nsPerInstruction =
        1e9 * seconds * static_cast<double>(kRounds) / static_cast<double>(instructions);
  }

  // obs: one stop's per-sim registry merged into a chunk accumulator, and
  // the same golden stop with and without a registry attached.
  obs::Registry shape;
  {
    bbw::BbwSystemSim sim{bbw::BbwSimConfig{}};
    sim.setMetricsRegistry(&shape);
    (void)sim.run();
  }
  probes.registryMergeUs = 1e6 * probeSeconds(kRounds, 20, [&] {
    obs::Registry accumulator;
    for (int i = 0; i < 20; ++i) accumulator.merge(shape);
  });
  Distribution with;
  Distribution without;
  for (int i = 0; i < 6; ++i) {
    for (const bool attach : {false, true}) {
      obs::Registry registry;
      bbw::BbwSystemSim sim{bbw::BbwSimConfig{}};
      if (attach) sim.setMetricsRegistry(&registry);
      const Clock::time_point start = Clock::now();
      (void)sim.run();
      (attach ? with : without).samples.push_back(secondsSince(start));
    }
  }
  probes.simMetricsOverheadFrac = with.p50() / without.p50() - 1.0;
  return probes;
}

// ------------------------------------------------------------ span report

struct SpanSummary {
  std::map<std::string, Distribution> byName;     ///< durations (s) per span name
  std::map<std::string, double> layerSelfSeconds; ///< self time per layer
  double coverage = 0.0;
  double chunkBusySeconds = 0.0;
};

std::string layerOf(const std::string& name) { return name.substr(0, name.find('.')); }

SpanSummary summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary summary;
  std::map<std::int64_t, std::size_t> index;
  {
    std::map<std::uint32_t, std::size_t> seen;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::size_t local = seen[spans[i].thread]++;
      index[(static_cast<std::int64_t>(spans[i].thread) << 32) |
            static_cast<std::int64_t>(local)] = i;
    }
  }
  std::vector<double> childSeconds(spans.size(), 0.0);
  for (const SpanRecord& span : spans) {
    const double seconds = 1e-9 * static_cast<double>(span.endNs - span.startNs);
    summary.byName[span.name].samples.push_back(seconds);
    const auto parent = index.find(span.parent);
    // Only same-thread children subtract: a worker's chunk runs beside
    // (not inside) the main thread's campaign span.
    if (parent != index.end() && spans[parent->second].thread == span.thread) {
      childSeconds[parent->second] += seconds;
    }
  }
  double busy = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double seconds = 1e-9 * static_cast<double>(spans[i].endNs - spans[i].startNs);
    const double self = seconds - childSeconds[i];
    // The chunk loop's span only waits for its workers' chunk spans.
    if (name != "exec.for_each_chunk") summary.layerSelfSeconds[layerOf(name)] += self;
    // Busy time: the root span minus the main thread's wait in the chunk
    // loop, plus every worker chunk. Self time of the root and of chunk
    // spans is glue that no named layer call covers.
    if (name == "run") {
      busy += seconds;
      uncovered += self;
    } else if (name == "exec.chunk") {
      busy += seconds;
      uncovered += self;
      summary.chunkBusySeconds += seconds;
    } else if (name == "exec.for_each_chunk") {
      busy -= seconds;
    }
  }
  summary.coverage = busy > 0.0 ? 1.0 - uncovered / busy : 0.0;
  return summary;
}

void writeSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread << ",\"run\":"
        << (s.runId == kNoRun ? std::string{"null"} : std::to_string(s.runId)) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

/// Metrics of one named distribution: .p50 and .n, plus .tail / .tail_pct.
void addDistribution(Json& metrics, const std::string& base, const Distribution& d,
                     bool withTail) {
  metrics.num(base + ".p50", d.p50()).num(base + ".n", std::uint64_t{d.samples.size()});
  if (withTail) metrics.num(base + ".tail", d.tail()).num(base + ".tail_pct", d.tailPct());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int runTraced(const WorkloadSpec& workload, std::uint64_t seed, const std::string& spansPath) {
  const Setup setup = runSetup(workload, seed);
  const fi::SystemCampaignConfig config = systemConfig(workload, seed);

  // Alternating untraced (recorder off) and traced passes; the fastest of
  // each gives the tracing overhead, the last traced pass the spans.
  double untracedSeconds = 0.0;
  double tracedSeconds = 0.0;
  SystemPass system;
  MachinePass machine;
  Feedback feedback;
  for (const bool traced : {false, true, false, true}) {
    gRecorder.clear();
    gRecorder.enabled = traced;
    const Clock::time_point start = Clock::now();
    {
      const Span root{"run"};
      if (workload.systemLevel) {
        system = reenactSystem(workload, config, setup);
        if (workload.feedbackStage) feedback = runFeedback(workload, seed, system.total.stats);
      } else {
        machine = reenactMachine(workload, seed, setup);
      }
    }
    double& best = traced ? tracedSeconds : untracedSeconds;
    const double seconds = secondsSince(start);
    best = best > 0.0 ? std::min(best, seconds) : seconds;
  }
  gRecorder.enabled = false;
  const std::vector<SpanRecord> spans = gRecorder.collect();
  const SpanSummary summary = summarize(spans);
  const auto dist = [&summary](const std::string& name) {
    const auto it = summary.byName.find(name);
    return it == summary.byName.end() ? Distribution{} : it->second;
  };
  const Probes probes = runProbes(setup);
  const Distribution temExperiments =
      workload.systemLevel ? dist("faults.tem_experiment")
                           : temExperimentProbe(setup, seed, workload.tracedTemExperiments);
  writeSpans(spans, spansPath);
  const double workersCpuSeconds = summary.byName.at("run").max() * workload.workers;
  const Distribution chunk = dist("exec.chunk");
  const double loopSeconds = dist("exec.for_each_chunk").max();

  Json m;
  // exec
  m.num("exec.worker_utilization", ratio(summary.chunkBusySeconds, loopSeconds * workload.workers))
      .num("exec.chunk_s.p50", chunk.p50())
      .num("exec.chunk_s.max", chunk.max())
      .num("exec.chunk_s.n", std::uint64_t{chunk.samples.size()});

  // faults
  Distribution allExperiments;
  for (const fi::ScenarioKind kind :
       {fi::ScenarioKind::MachineTransient, fi::ScenarioKind::BusCorruption,
        fi::ScenarioKind::NodeCrash, fi::ScenarioKind::CorrelatedBurst}) {
    const Distribution d = dist(experimentSpan(kind));
    allExperiments.samples.insert(allExperiments.samples.end(), d.samples.begin(),
                                  d.samples.end());
  }
  addDistribution(m, "faults.system_experiment_s", allExperiments, true);
  for (const fi::ScenarioKind kind :
       {fi::ScenarioKind::MachineTransient, fi::ScenarioKind::BusCorruption,
        fi::ScenarioKind::NodeCrash, fi::ScenarioKind::CorrelatedBurst}) {
    addDistribution(m, std::string{"faults.system_experiment_s."} + fi::describe(kind),
                    dist(experimentSpan(kind)), false);
  }
  const fi::SystemCampaignStats& stats = system.total.stats;
  m.num("faults.skipped_masked_frac",
        ratio(static_cast<double>(stats.skippedMasked), static_cast<double>(stats.experiments)));
  addDistribution(m, "faults.tem_experiment_s", temExperiments, false);
  for (std::size_t p = 0; p < setup.programNames.size(); ++p) {
    const std::string& name = setup.programNames[p];
    m.num("faults.tem_campaign_s." + name,
          p < machine.temCampaignSeconds.size() ? machine.temCampaignSeconds[p] : 0.0)
        .num("faults.fs_campaign_s." + name,
             p < machine.fsCampaignSeconds.size() ? machine.fsCampaignSeconds[p] : 0.0);
  }
  m.num("faults.behavior_digest_ns", probes.behaviorDigestNs);

  // hw
  const fi::SnapCounters& snap = machine.snap;
  const double instructions = static_cast<double>(snap.simulatedCycles);
  m.num("hw.instructions", snap.simulatedCycles)
      .num("hw.ns_per_instruction", probes.nsPerInstruction)
      .num("hw.ecc_encode_ns", probes.eccEncodeNs)
      .num("hw.ecc_decode_ns", probes.eccDecodeNs)
      .num("hw.ecc_est_share", ratio(instructions * probes.eccDecodeNs * 1e-9, workersCpuSeconds))
      .num("hw.machine_construct_us", probes.machineConstructUs)
      .num("hw.save_state_us", probes.saveStateUs)
      .num("hw.restore_state_us", probes.restoreStateUs);

  // snap
  const SystemCounts& counts = system.total.counts;
  m.num("snap.machine.replay_frac",
        ratio(static_cast<double>(snap.replayedCopies),
              static_cast<double>(snap.replayedCopies + snap.executedCopies)))
      .num("snap.machine.resume_points", snap.resumePoints)
      .num("snap.machine.cache_hit_frac",
           ratio(static_cast<double>(snap.snapshotHits),
                 static_cast<double>(snap.snapshotHits + snap.snapshotMisses)))
      .num("snap.machine.snapshot_bytes", snap.snapshotBytes)
      .num("snap.sys.baseline_build_s", dist("snap.sys.baseline_build").max());
  addDistribution(m, "snap.sys.restore_s", dist("snap.sys.restore"), false);
  addDistribution(m, "snap.sys.run_to_rejoin_s", dist("snap.sys.run_to_rejoin"), false);
  m.num("snap.sys.rejoin_frac",
        ratio(static_cast<double>(counts.rejoined), static_cast<double>(counts.rejoinAttempts)))
      .num("snap.sys.restores", counts.restores);

  // bbw + sim
  const Distribution simRun = dist("bbw.sim_run");
  double simRunSeconds = 0.0;
  for (const double s : simRun.samples) simRunSeconds += s;
  const std::uint64_t events = counts.events + system.baselineSweepEvents;
  m.num("bbw.golden_stop_s", setup.goldenStopSeconds)
      .num("bbw.sim_construct_us", 1e6 * dist("bbw.sim_construct").p50());
  addDistribution(m, "bbw.sim_run_s", simRun, true);
  m.num("sim.events", events)
      .num("sim.events_per_stop",
           ratio(static_cast<double>(events), static_cast<double>(stats.experiments)))
      .num("sim.ns_per_event", ratio(1e9 * simRunSeconds, static_cast<double>(counts.runEvents)))
      .num("sim.schedule_step_ns", probes.scheduleStepNs)
      .num("sim.queue_est_share",
           ratio(static_cast<double>(events) * probes.scheduleStepNs * 1e-9, workersCpuSeconds))
      .num("sim.queue_depth", std::uint64_t{probes.queueDepth});

  // rtkernel / core (TEM counts need the registry: system_fi only)
  const obs::Registry& sims = system.total.sims;
  m.num("rtkernel.dispatches", counts.dispatches)
      .num("rtkernel.preemptions", counts.preemptions)
      .num("core.tem_jobs", sims.count("tem.jobs"))
      .num("core.tem_copies", sims.count("tem.copies.first") + sims.count("tem.copies.second") +
                                  sims.count("tem.copies.third"));

  // net
  const double crcCalls = 2.0 * static_cast<double>(counts.framesDelivered + counts.framesDropped);
  m.num("net.frames_delivered", counts.framesDelivered)
      .num("net.crc_rejected", counts.crcRejected)
      .num("net.frame_crc_ns", probes.frameCrcNs)
      .num("net.crc_est_share", ratio(crcCalls * probes.frameCrcNs * 1e-9, workersCpuSeconds));

  // obs
  const double merges = workload.metricsAttached ? static_cast<double>(system.chunks) : 0.0;
  m.num("obs.sim_metrics_overhead_frac", probes.simMetricsOverheadFrac)
      .num("obs.registry_merge_us", probes.registryMergeUs)
      .num("obs.merge_est_share", ratio(merges * probes.registryMergeUs * 1e-6, workersCpuSeconds));

  // reliability / sysmodel (feedback stage: system_fi only)
  m.num("reliability.study_s", feedback.studySeconds)
      .num("sysmodel.mc_trials_per_s",
           ratio(2.0 * static_cast<double>(workload.mcTrials), feedback.mcSeconds));

  // the trace itself
  m.num("trace.wall_s", summary.byName.at("run").max())
      .num("trace.coverage_frac", summary.coverage)
      .num("trace.overhead_frac", tracedSeconds / untracedSeconds - 1.0)
      .num("trace.spans", std::uint64_t{spans.size()});
  for (const char* layer :
       {"exec", "faults", "snap", "bbw", "reliability", "sysmodel"}) {
    const auto it = summary.layerSelfSeconds.find(layer);
    m.num(std::string{"trace.self_s."} + layer,
          it == summary.layerSelfSeconds.end() ? 0.0 : it->second);
  }

  std::string outputs = "{}";
  if (workload.systemLevel) {
    outputs = systemOutputsJson(stats, nullptr, workload.feedbackStage ? &feedback : nullptr);
  } else {
    outputs = machine.outputs;
  }
  Json result;
  result.str("mode", "trace")
      .str("workload", workload.name)
      .num("seed", seed)
      .num("peak_rss_mb", peakRssMiB())
      .raw("facts", factsJson(workload, seed))
      .raw("metrics", m.dump())
      .raw("outputs", outputs);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace perfbench
